"""End-to-end acceptance gate.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or on failure) and asserts the underlying checks.  Most
criteria reuse the library's self-verification suites so the gate and the
shipped ``verify`` command can never drift apart.
"""

import subprocess
import sys
import time

from aimnu.verify import SUITES


def _report(num: int, label: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} ({label}): {status}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def _suite_ok(key: str) -> tuple[bool, str]:
    results = SUITES[key]()
    bad = [r for r in results if not r.ok]
    return not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)


def test_criterion_1_catalog_spectra():
    start = time.monotonic()
    ok, _ = _suite_ok("table1")
    elapsed = time.monotonic() - start
    _report(1, "catalog spectra exact for n = 0..20", ok and elapsed < 1.0)


def test_criterion_2_gamma_sequence():
    ok, _ = _suite_ok("gamma")
    _report(2, "low-order quantization constants, 100 random cases", ok)


def test_criterion_3_morse():
    start = time.monotonic()
    ok, _ = _suite_ok("morse")
    elapsed = time.monotonic() - start
    _report(3, "Morse closed form and iterative agreement", ok and elapsed < 5.0)


def test_criterion_4_hulthen():
    ok, _ = _suite_ok("hulthen")
    _report(4, "Hulthen spectrum and terminating-series eigenfunctions", ok)


def test_criterion_5_kratzer():
    ok, _ = _suite_ok("kratzer")
    _report(5, "Kratzer derived spectrum with exact residual check", ok)


def test_criterion_6_eigenfunction_three_way():
    ok, _ = _suite_ok("eigenfunctions")
    _report(6, "three-way eigenfunction agreement and Pearson residuals", ok)


def test_criterion_7_route_equivalence():
    ok, _ = _suite_ok("nu")
    _report(7, "iteration/reduction eigenparameter equivalence and round trips", ok)


def test_criterion_8_delta_exactness():
    ok, _ = _suite_ok("delta")
    _report(8, "quantization determinant closed form and vanishing", ok)


def test_criterion_9_cli_determinism():
    cmd = [sys.executable, "-m", "aimnu", "verify"]
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    elapsed = time.monotonic() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and b"FAIL" not in first.stdout
        and elapsed < 20.0  # two full runs; each must stay under 10 s
    )
    # spot-check byte determinism of the data-emitting formats too
    for args in (
        ["solve", "hulthen", "--n", "3", "--format", "json"],
        ["solve", "hulthen", "--n", "3", "--format", "csv"],
    ):
        a = subprocess.run([sys.executable, "-m", "aimnu", *args], capture_output=True)
        b = subprocess.run([sys.executable, "-m", "aimnu", *args], capture_output=True)
        ok = ok and a.returncode == b.returncode == 0 and a.stdout == b.stdout
    _report(9, "verify suite green, fast, and byte-deterministic", ok)
