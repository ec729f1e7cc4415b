"""Self-tests of the benchmark itself (not of the package).

    python3 benchmarks/selftest.py [--workload W ...]

1. Two traced runs in fresh processes give identical counts (calls,
   coefficient products, operand bits, ratios).
2. Every check can fail: with every reference shifted, every operation
   fails, so fail_ratio rises to 1.
3. The deadline path works: an operation past its deadline counts as
   failed, its spans are closed, and the next operation runs.
4. BENCHMARK.json names the metrics and workloads this code reports.

Takes about three and a half minutes for all four workloads.  Exits 1 if any test fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import END_TO_END
from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402  (after the package path is set)

#: Per-layer metrics that must repeat exactly between traced runs.
EXACT_UNITS = ("count", "bits", "ratio")


def _traced_run(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def test_traced_counts_repeat(names) -> list[str]:
    errors = []
    for name in names:
        first, second = _traced_run(name), _traced_run(name)
        exact = [m for m, unit, _ in PER_LAYER if unit in EXACT_UNITS]
        diff = [m for m in exact if first[m]["value"] != second[m]["value"]]
        if diff:
            errors.append(f"{name}: traced counts differ between runs: {diff}")
        if first["trace.spans"]["value"] <= len(workloads.WORKLOADS[name].build(7, ROOT, False)):
            errors.append(f"{name}: the traced pass recorded no span inside the package")
    return errors


def test_wrong_reference_fails(names) -> list[str]:
    errors = []
    for name in names:
        w = workloads.WORKLOADS[name]
        right = worker.run_pass(w.build(7, ROOT, False), w.deadline_s)
        wrong = worker.run_pass(w.build(7, ROOT, True), w.deadline_s)
        failed_right = sum(1 for s in right if not s[2])
        failed_wrong = sum(1 for s in wrong if not s[2])
        if not failed_wrong > failed_right:
            errors.append(f"{name}: wrong references did not raise the failure count")
        passed = [s[0] for s in wrong if s[2]]
        if passed:
            errors.append(f"{name}: checks passed against wrong references: {passed}")
    return errors


def test_deadline() -> list[str]:
    errors = []
    ops = {op.id: op for op in workloads.WORKLOADS["nu_reduction"].build(7, ROOT, False)}
    latency, verdict, _, returned = worker.run_op(ops["roadmap-25-digit"], 0.3)
    if verdict.ok or returned or "deadline" not in verdict.detail or latency > 2.0:
        errors.append(f"roadmap op under a 0.3 s deadline: ok={verdict.ok} after {latency:.2f} s ({verdict.detail})")
    _, verdict, _, _ = worker.run_op(ops["oscillator-n0"], 5.0)
    if not verdict.ok:
        errors.append(f"operation after a deadline failed: {verdict.detail}")

    def spin():
        while True:
            pass

    tracer = Tracer()
    hang = workloads.Op("spin", spin, lambda out: workloads.Verdict(True))
    _, verdict, _, _ = worker.run_op(hang, 0.2, tracer=tracer)
    if verdict.ok or tracer._stack or any(s is None for s in tracer.spans):
        errors.append("a traced operation past its deadline left a span open or passed")
    return errors


def test_benchmark_json() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
    if e2e != list(END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if layers != list(PER_LAYER):
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    wl = [(w["name"], w["why"]) for w in doc["workloads"]]
    if wl != [(w.name, w.why) for w in workloads.WORKLOADS.values()]:
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)

    failures = 0
    for title, test in (
        ("BENCHMARK.json matches the code", test_benchmark_json),
        ("deadline path", test_deadline),
        ("every check fails on a wrong reference", lambda: test_wrong_reference_fails(names)),
        ("traced counts repeat exactly", lambda: test_traced_counts_repeat(names)),
    ):
        errors = test()
        failures += bool(errors)
        print(f"{'PASS' if not errors else 'FAIL'}  {title}", flush=True)
        for e in errors:
            print(f"      {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
