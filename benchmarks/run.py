"""aimnu benchmark: one workload, checked, with end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric from a separate traced pass.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Load model: closed loop, one client, one process.  Each operation starts
after the previous one has finished; there are no threads, and
``cli_processes`` runs one child process at a time.

The run starts fresh interpreters (``worker.py``): several that only set
up, for ``setup_s``, and one that sets up and then measures.  The package
is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import PER_LAYER
from hostprobe import REFERENCE_LOOP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Fresh interpreters that only set up; the measuring one adds one more sample.
SETUP_PROBES = 10
#: Every run ends well inside the 180 s a run may take.
BUDGET_S = 170.0
TAIL_BEYOND = 10

#: (name, unit, better, bound): bound is the share of the parent's median by
#: which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.02),
    ("eig_recall", "ratio", "higher", 0.02),
    ("eig_exact_ratio", "ratio", "higher", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


class RunFailed(Exception):
    pass


def _worker_cmd(args, passes: int, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--passes", str(passes),
        "--trace", str(args.trace),
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def _start(cmd: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunFailed(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"worker overran the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise RunFailed(f"worker exited {proc.returncode}")
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the highest percentile with TAIL_BEYOND samples beyond it.

    With TAIL_BEYOND or fewer samples there is no such percentile; the
    slowest sample stands in, reported as p100 with none beyond.
    """
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s), TAIL_BEYOND


def calibrated_latencies(passes: list, host_s: float) -> tuple[dict[str, float], list[float], int, float]:
    """Each operation's latency at the reference host speed, every try's, and the tries left out.

    An operation's calibrated latency is the median of its tries' latencies
    times REFERENCE_LOOP_S / host_s, with host_s the median time of every
    calibration loop the run timed before, during and after its tries
    (``hostprobe.HostProbe``).  Other tenants of a shared host slow this
    process by 2x and more for tens of seconds at a time, longer than a run;
    the calibration loop slows down with the operations, so the ratio stays
    put.  The host's speed also wanders by a third within a second, but one
    3 ms loop reads it too roughly to correct a single try: scaling each try
    by the loops around it made the tries of a run spread more, not less.

    Tries that returned nothing, cut off by the deadline or raising, are
    left out: their time is the deadline's or the error's, not the
    program's work, and they count in ``ok_ratio`` only.  Returns also how
    many were left out and their wall-clock seconds.
    """
    tries: dict[str, list[float]] = {}
    left_out = [s[1] for p in passes for s in p if not s[7]]
    for s in (s for p in passes for s in p if s[7]):
        tries.setdefault(s[0], []).append(s[1])
    scale = REFERENCE_LOOP_S / host_s
    by_op = {op_id: statistics.median(v) * scale for op_id, v in tries.items()}
    every_try = [t * scale for v in tries.values() for t in v]
    return by_op, every_try, len(left_out), sum(left_out)


def _tally(samples: list) -> dict:
    failed_ids = sorted({s[0] for s in samples if not s[2]})
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s[2]),
        "failed_ids": failed_ids,
        "refs": sum(s[3] for s in samples),
        "recalled": sum(s[4] for s in samples),
        "exact": sum(s[5] for s in samples),
    }


def end_to_end(passes: list, setups: list[float], host_s: float, peak_rss_mb: float, rss_note: str) -> tuple[dict, list[str]]:
    t = _tally([s for p in passes for s in p])
    by_op, every_try, left_out, left_out_s = calibrated_latencies(passes, host_s)
    calibrated = list(by_op.values()) or [0.0]
    tail_value, tail_pct, beyond = tail(calibrated)
    values = {
        "setup_s": statistics.median(setups) * REFERENCE_LOOP_S / host_s,
        "wall_s": sum(calibrated),
        "op_p50_ms": 1000.0 * statistics.median(every_try or [0.0]),
        "op_tail_ms": 1000.0 * tail_value,
        "ok_ratio": (t["attempted"] - t["failed"]) / t["attempted"],
        "eig_recall": t["recalled"] / t["refs"] if t["refs"] else 0.0,
        "eig_exact_ratio": t["exact"] / t["refs"] if t["refs"] else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = statistics.median(sum(s[1] for s in p if s[7]) for p in passes)
    tries = "median of its tries, calibrated"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, calibrated (uncalibrated median "
        f"{statistics.median(setups):.4g} s; the run's median calibration loop {1000.0 * host_s:.4g} ms)",
        "wall_s": f"one pass of {len(by_op)} operations, each the {tries} (uncalibrated pass median {raw:.4g} s); "
        f"left out: {left_out} tries that returned nothing, {left_out_s:.4g} s",
        "op_p50_ms": f"median over all {len(every_try)} tries that returned, calibrated",
        "op_tail_ms": f"p{tail_pct:.1f} of {len(by_op)} operations, {beyond} beyond, each the {tries}",
        "ok_ratio": f"fail_ratio {t['failed'] / t['attempted']:.4f} ({t['failed']}/{t['attempted']})",
        "eig_recall": f"{t['recalled']}/{t['refs']} reference eigenvalues within 1e-8",
        "eig_exact_ratio": f"{t['exact']}/{t['refs']} returned as the exact rational",
        "peak_rss_mb": rss_note,
    }
    lines = [f"  {name:<16} {values[name]:>12.6g} {unit:<6} {notes[name]}" for name, unit, _, _ in END_TO_END]
    return values, lines


def _op_table(passes: list, host_s: float) -> list[str]:
    lines = []
    ids = [s[0] for s in passes[0]]
    calibrated = calibrated_latencies(passes, host_s)[0]
    for op_id in dict.fromkeys(ids):
        rows = [s for p in passes for s in p if s[0] == op_id]
        ok = sum(1 for s in rows if s[2])
        med = 1000.0 * statistics.median(s[1] for s in rows)
        cal = f"{1000.0 * calibrated[op_id]:>10.2f}" if op_id in calibrated else f"{'-':>10}"
        first = rows[0]
        recall = f"{first[4]}/{first[3]} found, {first[5]} exact" if first[3] else ""
        detail = next((s[6] for s in rows if not s[2]), "")
        lines.append(f"    {op_id:<28} {ok}/{len(rows)} ok {med:>10.2f} {cal} ms  {recall}  {detail}".rstrip())
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aimnu" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'aimnu'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    passes = max(2, round(args.seconds / workload.pass_s))
    deadline = time.monotonic() + BUDGET_S

    def probe():
        proc, setup = _start(_worker_cmd(args, passes, setup_only=True))
        _finish(proc, deadline)
        return setup

    try:
        # probes before and after the measurement sample two moments of the host's load
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        proc, setup = _start(_worker_cmd(args, passes, setup_only=False))
        setups.append(setup)
        raw = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
        setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = raw["passes"] + ([raw["traced_pass"]] if args.trace else [])
    t = _tally([s for p in measured for s in p])
    unexpected = [i for i in t["failed_ids"] if i not in workload.known_defects]
    correct = t["attempted"] >= 1 and not unexpected

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  why: {workload.why}")
    print(f"  operations: {t['attempted']} attempted, {t['failed']} failed")
    for op_id in t["failed_ids"]:
        reason = workload.known_defects.get(op_id, "NOT A KNOWN DEFECT")
        print(f"    failed {op_id}: {reason}")
    for label, ids in workload.subtotals.items():
        rows = [s for s in raw["passes"][0] if s[0] in ids]
        refs, recalled, exact = (sum(s[i] for s in rows) for i in (3, 4, 5))
        print(f"  {label}: {recalled}/{refs} found within 1e-8, {exact}/{refs} exact (one pass)")
    print("  per operation (untraced passes; median uncalibrated and calibrated latency):")
    for line in _op_table(raw["passes"], raw["host_s"]):
        print(line)

    if args.trace:
        # as in wall_s, tries that returned nothing are left out
        untraced_wall = sum(s[1] for s in raw["passes"][0] if s[7])
        traced_wall = sum(s[1] for s in raw["traced_pass"] if s[7])
        values = dict(raw["layers"])
        values["cli.import_s"] = raw["import_s"]
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        values["trace.spans"] = raw["spans"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"  per layer (one traced pass; untraced pass {untraced_wall:.3f} s):")
        for name, unit, _ in PER_LAYER:
            print(f"    {name:<42} {values[name]:>14.6g} {unit}")
    else:
        rss_note = "largest CLI child process" if workload.name == "cli_processes" else "measuring process"
        values, lines = end_to_end(raw["passes"], setups, raw["host_s"], raw["peak_rss_mb"], rss_note)
        units = {name: unit for name, unit, _, _ in END_TO_END}
        print("  end to end:")
        for line in lines:
            print(line)

    result = {
        "correct": correct,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
