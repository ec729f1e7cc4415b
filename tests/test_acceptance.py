"""End-to-end acceptance gate: the time bounds.

Criteria 1 and 3 bound the wall time of the ``table1`` and ``morse``
verify suites, and criterion 9 checks that two whole ``aimnu verify``
processes agree byte for byte within their time bound.  Each prints a
single pass/fail line (visible with ``pytest -s`` or on failure).  That
every verify row passes is pinned by
``test_golden.py::test_verify_output_matches_golden``, and
``test_verify.py`` shows that each row can fail.
"""

import subprocess
import sys
import time

from aimnu.verify import SUITES


def _report(num: int, label: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} ({label}): {status}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def _suite_ok(key: str) -> bool:
    return all(r.ok for r in SUITES[key]())


def test_criterion_1_catalog_spectra():
    start = time.monotonic()
    ok = _suite_ok("table1")
    elapsed = time.monotonic() - start
    _report(1, "catalog spectra exact for n = 0..20", ok and elapsed < 1.0)


def test_criterion_3_morse():
    start = time.monotonic()
    ok = _suite_ok("morse")
    elapsed = time.monotonic() - start
    _report(3, "Morse closed form and iterative agreement", ok and elapsed < 5.0)


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
        and elapsed < 5.0  # two full runs of about 0.2-0.3 s each on a shared 2-core host
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
