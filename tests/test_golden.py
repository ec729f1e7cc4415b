"""`aimnu aim` and `aimnu eigenfunction` output, byte for byte, against files
written by an earlier build.

Any change to these outputs must be deliberate: rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and record why in CHANGES.md.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from aimnu.cli import main

DATA = Path(__file__).parent / "data"

#: (file stem, `aimnu aim` arguments, exit code); hermite-kmax5 has an
#: uncertified row, since 5 is a root of delta_5 but not of delta_4.
CASES = [
    ("hermite", ["hermite", "--r0", "1", "--bracket", "-1/2:21/2"], 0),
    ("legendre", ["legendre", "--r0", "1/3", "--bracket", "-1/2:60"], 0),
    ("kratzer", ["kratzer", "--r0", "1", "--bracket", "1/50:1"], 0),
    ("morse", ["morse", "--r0", "1", "--bracket", "0:4"], 0),
    ("hulthen", ["hulthen", "--r0", "1/2", "--bracket", "0:3"], 0),
    ("hermite-kmax5", ["hermite", "--r0", "1", "--bracket", "-1/2:21/2", "--kmax", "5"], 1),
]
FORMATS = ("json", "csv")

#: (file stem, `aimnu eigenfunction` arguments), written as json; every run exits 0.
EIGEN_CASES = [
    ("hermite", ["hermite", "--n", "11", "--method", "recursion"]),
    ("legendre", ["legendre", "--n", "11", "--method", "recursion"]),
    ("gegenbauer", ["gegenbauer", "--n", "11", "--method", "recursion"]),
    ("bessel", ["bessel", "--n", "8", "--method", "recursion"]),
    ("generalized_bessel", ["generalized_bessel", "--n", "8", "--method", "recursion"]),
    ("hulthen", ["hulthen", "--n", "6", "--method", "hypergeometric", "--param", "q=1/2"]),
]


def _run(command, args, fmt):
    return CliRunner().invoke(main, [command, *args, "--format", fmt])


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem, args, code", CASES, ids=[stem for stem, *_ in CASES])
def test_aim_output_matches_golden(stem, args, code, fmt):
    result = _run("aim", args, fmt)
    assert result.exit_code == code
    assert result.stdout_bytes == (DATA / f"aim-{stem}.{fmt}").read_bytes()


@pytest.mark.parametrize("stem, args", EIGEN_CASES, ids=[stem for stem, _ in EIGEN_CASES])
def test_eigenfunction_output_matches_golden(stem, args):
    result = _run("eigenfunction", args, "json")
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"eigenfunction-{stem}.json").read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for stem, args, _ in CASES:
        for fmt in FORMATS:
            (DATA / f"aim-{stem}.{fmt}").write_bytes(_run("aim", args, fmt).stdout_bytes)
    for stem, args in EIGEN_CASES:
        path = DATA / f"eigenfunction-{stem}.json"
        path.write_bytes(_run("eigenfunction", args, "json").stdout_bytes)
