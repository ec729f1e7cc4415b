"""One fresh interpreter that sets up a workload and, unless told to stop
there, measures it.

    python3 benchmarks/worker.py --workload W --seed N --passes P --trace 0|1 [--setup-only]

Prints ``ready`` once the package is imported and the inputs are built,
then (without ``--setup-only``) one JSON line with the raw samples.
``run.py`` starts it and turns the samples into metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from hostprobe import DeadlineExceeded, HostProbe
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_op(op: workloads.Op, deadline_s: float, in_process: bool = False, tracer: Tracer | None = None,
           sample: bool = False):
    """Run one operation under the deadline; return (latency_s, Verdict, HostProbe, returned).

    The latency covers the package call only: not the check, not the probe.
    ``returned`` is false when the call was cut off by the deadline or
    raised.  ``sample`` has the probe time the calibration loop; for an
    operation that runs a ``cli_child.py`` process, the child times it and
    the probe takes over the child's loops.
    """
    child = op.child_probe and not in_process
    call = op.call_in_process if in_process and op.call_in_process else op.call
    if tracer is not None:
        traced_call = call

        def call():
            return tracer.call(f"op.{op.id}", traced_call)

    probe = HostProbe(deadline_s, sample and not child)
    out = error = None
    start = time.perf_counter()
    try:
        try:
            probe.arm()
            out = call()
        finally:
            probe.disarm()
    except DeadlineExceeded:
        probe.disarm()
        error = f"deadline of {deadline_s} s exceeded"
    except Exception as exc:  # a crash of the package is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if child and error is None:
        out, loops, spent = out
        latency -= spent
        if sample:
            probe.samples += loops
    latency -= probe.spent
    if error is not None:
        return latency, workloads.Verdict(False, op.refs, detail=error), probe, False
    try:
        return latency, op.check(out), probe, True
    except Exception as exc:  # malformed output fails the check
        detail = f"unreadable output: {type(exc).__name__}: {exc}"
        return latency, workloads.Verdict(False, op.refs, detail=detail), probe, True


def run_pass(ops, deadline_s: float, in_process: bool = False, tracer: Tracer | None = None,
             host: list | None = None) -> list:
    """One sample per try of each operation in ``ops``, which may list an
    operation more than once: id, latency, ok, refs, recalled, exact,
    detail, and whether the call returned.

    With ``host`` given, the tries sample the host's speed and append the
    seconds of every calibration loop to it.
    """
    samples = []
    for op in ops:
        latency, verdict, probe, returned = run_op(op, deadline_s, in_process, tracer, host is not None)
        if host is not None:
            host.extend(probe.samples)
        samples.append(
            [op.id, latency, verdict.ok, verdict.refs, verdict.recalled, verdict.exact,
             verdict.detail, returned]
        )
    return samples


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import aimnu.cli  # noqa: F401

    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed, ROOT, False)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cli = args.workload == "cli_processes"
    if workload.warmup:
        run_pass(ops, workload.deadline_s)
    host: list[float] = []
    passes = [run_pass(ops, workload.deadline_s, host=host) for _ in range(1 if args.trace else args.passes)]
    result = {
        "import_s": import_s,
        "passes": passes,
        "host_s": statistics.median(host),
        "peak_rss_mb": _peak_rss_mb(children=cli),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, workload.deadline_s, in_process=True, tracer=tracer)
        finally:
            tracer.uninstall()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        result["traced_pass"] = traced
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
