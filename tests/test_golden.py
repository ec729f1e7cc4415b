"""`aimnu list`, `aimnu solve`, `aimnu aim`, `aimnu eigenfunction`, `aimnu nu` and
`aimnu verify` output, byte for byte, against files written by an earlier build.

Any change to these outputs must be deliberate: rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and record why in CHANGES.md.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from aimnu.cli import main

DATA = Path(__file__).parent / "data"

#: (file stem, `aimnu aim` arguments, exit code); kratzer-wide holds the 74
#: modes n <= 73, each a root of every delta_k with k >= n.
CASES = [
    ("hermite", ["hermite", "--bracket", "-1/2:21/2"], 0),
    ("legendre", ["legendre", "--bracket", "-1/2:60"], 0),
    ("kratzer", ["kratzer", "--bracket", "1/50:1"], 0),
    ("morse", ["morse", "--bracket", "0:4"], 0),
    ("hulthen", ["hulthen", "--bracket", "0:3"], 0),
    ("kratzer-wide", ["kratzer", "--bracket", "1/150:1"], 0),
]
FORMATS = ("json", "csv")
ALL_FORMATS = ("table", *FORMATS)

#: The golden file's extension for each ``--format``.
EXT = {"table": "txt", "csv": "csv", "json": "json"}

#: (file stem, `aimnu list` arguments), written in ALL_FORMATS; every run
#: exits 0.  "list-empty" matches no entry and prints the header alone.
LIST_CASES = [
    ("list", []),
    ("list-empty", ["--filter", "zzz"]),
]

#: (file stem, `aimnu eigenfunction` arguments), written as json; every run exits 0.
EIGEN_CASES = [
    ("hermite", ["hermite", "--n", "11", "--method", "recursion"]),
    ("legendre", ["legendre", "--n", "11", "--method", "recursion"]),
    ("gegenbauer", ["gegenbauer", "--n", "11", "--method", "recursion"]),
    ("bessel", ["bessel", "--n", "8", "--method", "recursion"]),
    ("generalized_bessel", ["generalized_bessel", "--n", "8", "--method", "recursion"]),
    ("hulthen", ["hulthen", "--n", "6", "--method", "rodrigues", "--param", "q=1/2"]),
]

#: (file stem, `aimnu eigenfunction --samples` arguments), written in
#: ALL_FORMATS; every run exits 0.  "hulthen-samples" has a 31-digit grid bound,
#: and the grid of "legendre-samples" runs from a = 1 down to b = -1.
SAMPLE_CASES = [
    (
        "hulthen-samples",
        ["hulthen", "--n", "100", "--method", "rodrigues", "--samples",
         "0.1234567890123456789012345678901:1:200"],
    ),
    ("legendre-samples", ["legendre", "--n", "11", "--samples", "1:-1:21"]),
]

#: (file stem, `aimnu nu` problem file), run with ``--n 2`` in ALL_FORMATS; every run exits 0.
#: "readme" is the README's example, "two-roots" has sigma = (3r - 2)(r + 1),
#: the first phi of "exp-pole" prints ``r^2 * exp((2)/(r))``, "linear" has
#: sigma = r and a phi ``r^1/2 * exp(1/2*r)``, and the phi of "irrational",
#: whose sigma = r^2 - 2 has no rational root, prints ``unsupported``.
#: "big" and "big-irreducible" are built from pi = 3 - r and k = 5 with
#: c = 1234567890123456: sigma = (r + c)(r + c + 2), whose phi has two poles,
#: and the irreducible sigma = r^2 + 7r + c, whose phi prints ``unsupported``.
#: "fractional-k" has sigma = (2r - 1)(r + 3) and the two roots k = -535/196
#: and k = 3/4.
NU_CASES = [
    ("readme", {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["5", "0", "-1"]}),
    ("two-roots", {"tauTilde": ["0", "-2"], "sigma": ["-2", "1", "3"], "sigmaTilde": ["-15/4", "6", "-3"]}),
    ("exp-pole", {"tauTilde": ["2", "0"], "sigma": ["0", "0", "1"], "sigmaTilde": ["0", "0", "-2"]}),
    ("linear", {"tauTilde": ["0"], "sigma": ["0", "1"], "sigmaTilde": ["1/4", "3", "-1/4"]}),
    ("irrational", {"tauTilde": ["-2"], "sigma": ["-2", "0", "1"], "sigmaTilde": ["-5", "2"]}),
    (
        "big",
        {
            "tauTilde": ["0"],
            "sigma": ["1524157875323884196006701630848", "2469135780246914", "1"],
            "sigmaTilde": ["7620789376619428387440848894973", "9876543120987668", "2"],
        },
    ),
    (
        "big-irreducible",
        {
            "tauTilde": ["0"],
            "sigma": ["1234567890123456", "7", "1"],
            "sigmaTilde": ["6172839450617292", "40", "2"],
        },
    ),
    ("fractional-k", {"tauTilde": ["1/2"], "sigma": ["-3", "5", "2"], "sigmaTilde": ["5/4", "21/4", "-7/2"]}),
]

#: (file stem, `aimnu solve` arguments), written in both FORMATS; every run
#: exits 0.  "kratzer-big" has the 31-digit parameters of the CI brackets.
_P = 1234567890123456789012345678901
SOLVE_CASES = [
    ("kratzer-big", ["kratzer", "--n", "200", "--param", f"A={_P}/7",
                     "--param", f"Lambda={_P}/1234567890123456789012345678903"]),
]

#: A problem file with a distinct denominator in every field: tau =
#: 1/3 + 2E/5 + (-7/4 + E/6) r, sigma = 1/2 + 3r/7 - 5r^2/9 and gamma =
#: 2/11 - 3E/13.  Its spectrum changes sign between n = 1 and n = 2, and
#: the bracket (-30, 50) holds the modes n <= 10 out of order.
DENOMINATORS = {
    "name": "denominators",
    "tau": {"r0": {"const": "1/3", "param": "2/5"}, "r1": {"const": "-7/4", "param": "1/6"}},
    "sigma": ["1/2", "3/7", "-5/9"],
    "gamma": {"const": "2/11", "param": "-3/13"},
    "parameter": "E",
}

#: (file stem, command, arguments after the DENOMINATORS file, formats); every run exits 0.
FILE_CASES = [
    ("solve-denominators", "solve", ["--n", "30"], ALL_FORMATS),
    ("aim-denominators", "aim", ["--bracket=-30:50"], ALL_FORMATS),
    *(
        (f"eigenfunction-denominators-{method}", "eigenfunction", ["--n", "3", "--method", method], ALL_FORMATS)
        for method in ("recursion", "rodrigues")
    ),
]


def _run(command, args, fmt):
    return CliRunner().invoke(main, [command, *args, "--format", fmt])


def _run_file(command, doc, args, fmt, tmp_dir):
    path = Path(tmp_dir) / "problem.json"
    path.write_text(json.dumps(doc))
    return _run(command, [str(path), *args], fmt)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("stem, args", LIST_CASES, ids=[stem for stem, _ in LIST_CASES])
def test_list_output_matches_golden(stem, args, fmt):
    result = _run("list", args, fmt)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"{stem}.{EXT[fmt]}").read_bytes()


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


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("stem, args", SAMPLE_CASES, ids=[stem for stem, _ in SAMPLE_CASES])
def test_sampled_eigenfunction_output_matches_golden(stem, args, fmt):
    result = _run("eigenfunction", args, fmt)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"eigenfunction-{stem}.{EXT[fmt]}").read_bytes()


def _run_nu(doc, fmt, tmp_dir):
    return _run_file("nu", doc, ["--n", "2"], fmt, tmp_dir)


@pytest.mark.parametrize("fmt", ALL_FORMATS)
@pytest.mark.parametrize("stem, doc", NU_CASES, ids=[stem for stem, _ in NU_CASES])
def test_nu_output_matches_golden(stem, doc, fmt, tmp_path):
    result = _run_nu(doc, fmt, tmp_path)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"nu-{stem}.{EXT[fmt]}").read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("stem, args", SOLVE_CASES, ids=[stem for stem, _ in SOLVE_CASES])
def test_solve_output_matches_golden(stem, args, fmt):
    result = _run("solve", args, fmt)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"solve-{stem}.{fmt}").read_bytes()


@pytest.mark.parametrize(
    "stem, command, args, fmt",
    [(stem, command, args, fmt) for stem, command, args, fmts in FILE_CASES for fmt in fmts],
    ids=[f"{stem}-{fmt}" for stem, _, _, fmts in FILE_CASES for fmt in fmts],
)
def test_problem_file_output_matches_golden(stem, command, args, fmt, tmp_path):
    result = _run_file(command, DENOMINATORS, args, fmt, tmp_path)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"{stem}.{EXT[fmt]}").read_bytes()


def test_verify_output_matches_golden():
    result = CliRunner().invoke(main, ["verify"])
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / "verify.txt").read_bytes()


if __name__ == "__main__":
    import tempfile

    DATA.mkdir(exist_ok=True)
    for stem, args in LIST_CASES:
        for fmt in ALL_FORMATS:
            (DATA / f"{stem}.{EXT[fmt]}").write_bytes(_run("list", args, fmt).stdout_bytes)
    for stem, args, _ in CASES:
        for fmt in FORMATS:
            (DATA / f"aim-{stem}.{fmt}").write_bytes(_run("aim", args, fmt).stdout_bytes)
    for stem, args in EIGEN_CASES:
        path = DATA / f"eigenfunction-{stem}.json"
        path.write_bytes(_run("eigenfunction", args, "json").stdout_bytes)
    for stem, args in SAMPLE_CASES:
        for fmt in ALL_FORMATS:
            path = DATA / f"eigenfunction-{stem}.{EXT[fmt]}"
            path.write_bytes(_run("eigenfunction", args, fmt).stdout_bytes)
    for stem, args in SOLVE_CASES:
        for fmt in FORMATS:
            (DATA / f"solve-{stem}.{fmt}").write_bytes(_run("solve", args, fmt).stdout_bytes)
    with tempfile.TemporaryDirectory() as tmp_dir:
        for stem, doc in NU_CASES:
            for fmt in ALL_FORMATS:
                (DATA / f"nu-{stem}.{EXT[fmt]}").write_bytes(_run_nu(doc, fmt, tmp_dir).stdout_bytes)
        for stem, command, args, fmts in FILE_CASES:
            for fmt in fmts:
                result = _run_file(command, DENOMINATORS, args, fmt, tmp_dir)
                (DATA / f"{stem}.{EXT[fmt]}").write_bytes(result.stdout_bytes)
    (DATA / "verify.txt").write_bytes(CliRunner().invoke(main, ["verify"]).stdout_bytes)
