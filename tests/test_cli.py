import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aimnu import verify
from aimnu.algebra import Poly
from aimnu.errors import BadParameter, InconsistentGamma
from aimnu.catalog import CATALOG, catalog_get
from aimnu.cli import (
    MAX_EIGENFUNCTION_N,
    MAX_SAMPLES,
    MAX_SOLVE_N,
    _decimal12,
    _load_problem,
    _sample_grid,
    _sample_rows,
    main,
)
from aimnu.eigenfunctions import ode_residual
from aimnu.rationals import MAX_DIGITS, parse_rational


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def run_process(args, timeout=10):
    """``python -m aimnu ARGS`` as a whole process; returns it and its seconds."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "aimnu", *args], capture_output=True, text=True, timeout=timeout
    )
    return result, time.perf_counter() - start


class TestList:
    def test_table(self, runner):
        result = invoke(runner, ["list"])
        assert result.exit_code == 0
        for name in ("hermite", "morse", "hulthen", "kratzer"):
            assert name in result.output

    def test_json(self, runner):
        result = invoke(runner, ["list", "--format", "json"])
        doc = json.loads(result.output)
        assert len(doc["entries"]) == 17
        assert doc["entries"][1]["name"] == "hermite"

    def test_filter(self, runner):
        result = invoke(runner, ["list", "--filter", "chebyshev", "--format", "json"])
        names = [e["name"] for e in json.loads(result.output)["entries"]]
        assert names == ["chebyshev_a", "chebyshev_b"]


class TestSolve:
    def test_table(self, runner):
        result = invoke(runner, ["solve", "hermite", "--n", "3"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].split() == ["n", "eigenvalue"]
        assert [line.split() for line in lines[1:]] == [
            ["0", "0"],
            ["1", "1"],
            ["2", "2"],
            ["3", "3"],
        ]

    def test_json_exact_rationals(self, runner):
        result = invoke(
            runner, ["solve", "kratzer", "--n", "2", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert [row["eigenvalue"] for row in doc["rows"]] == ["1/2", "1/4", "1/6"]

    def test_csv(self, runner):
        result = invoke(runner, ["solve", "morse", "--n", "1", "--format", "csv"])
        assert result.output.splitlines() == ["n,eigenvalue", "0,2", "1,1"]

    def test_param_override(self, runner):
        result = invoke(
            runner,
            ["solve", "morse", "--param", "beta=7/2", "--n", "0", "--format", "csv"],
        )
        assert "0,3" in result.output

    def test_unknown_entry_exits_2(self, runner):
        result = runner.invoke(main, ["solve", "missing_entry"])
        assert result.exit_code == 2

    def test_bad_parameter_exits_2(self, runner):
        result = runner.invoke(main, ["solve", "morse", "--param", "alpha=0"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["solve", "hermite", "--param", "x=1.5"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["solve", "morse", "--param", "alpha"])
        assert result.exit_code == 2
        assert result.output == "error: expected name=value, got 'alpha'\n"

    def test_problem_file(self, runner, tmp_path):
        doc = {
            "name": "custom_hermite",
            "tau": {"r0": "0", "r1": {"const": "-2"}},
            "sigma": ["1"],
            "gamma": {"const": "0", "param": "2"},
            "parameter": "k",
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["solve", str(path), "--n", "2", "--format", "json"])
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["name"] == "custom_hermite"
        assert [row["eigenvalue"] for row in out["rows"]] == ["0", "1", "2"]

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"paramter": "k"}, "'paramter'"),
            ({"evalPoint": "0"}, "'evalPoint'"),
            ({"tau": {"r0": "0", "r1": "-2", "r2": "1"}}, "'r2'"),
            ({"gamma": {"const": "0", "parm": "2"}}, "'parm'"),
        ],
        ids=["top-level", "dropped-field", "tau", "affine"],
    )
    def test_unknown_key_exits_2(self, runner, tmp_path, change, key):
        doc = {
            "tau": {"r0": "0", "r1": {"const": "-2"}},
            "sigma": ["1"],
            "gamma": {"const": "0", "param": "2"},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**doc, **change}))
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error: unknown key ") and key in result.output

    def test_malformed_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["solve", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_problem_file_builds_the_catalog_record(self, runner, tmp_path, name):
        # the file loader and the catalog must build equal Affine tau and gamma
        problem = catalog_get(name)
        tau, gamma = problem.tau, problem.gamma
        doc = {
            "name": name,
            "tau": {
                f"r{i}": {
                    "const": str(tau.const.coeff(i)),
                    "param": str(tau.slope.coeff(i)),
                }
                for i in (0, 1)
            },
            "sigma": [str(c) for c in problem.sigma.coeffs],
            "gamma": {"const": str(gamma.const), "param": str(gamma.slope)},
            "parameter": problem.parameter,
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        assert _load_problem(str(path), {}) == (name, problem)
        from_file = invoke(runner, ["solve", str(path), "--n", "5", "--format", "json"])
        from_catalog = invoke(runner, ["solve", name, "--n", "5", "--format", "json"])
        assert from_file.exit_code == from_catalog.exit_code == 0
        assert from_file.output == from_catalog.output


class TestAim:
    def test_hermite_bracket(self, runner):
        result = invoke(
            runner, ["aim", "hermite", "--bracket=-1/2:3/2", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert all(row["converged"] for row in rows)
        values = [
            abs(int(r["value"].split("/")[0]) / int(r["value"].split("/")[1]))
            if "/" in r["value"]
            else abs(int(r["value"]))
            for r in rows
        ]
        assert any(v < 1e-7 for v in values)
        assert any(abs(v - 1) < 1e-7 for v in values)

    def test_no_root_exits_1(self, runner):
        result = runner.invoke(main, ["aim", "morse", "--bracket", "10:11"])
        assert result.exit_code == 1
        assert result.output == "error: no mode in (10, 11)\n"

    def test_r0_is_no_option(self, runner):
        # r0 scales delta_k by sigma(r0)^-(k+1) and moves no root, and every
        # catalog root is exact, so neither r0 nor a root width is asked for
        for option in (["--r0", "1/3"], ["--tol", "1/10"]):
            result = runner.invoke(main, ["aim", "legendre", *option, "--bracket", "-1/2:60"])
            assert result.exit_code == 2
            assert "No such option" in result.output

    def test_kratzer_json_certificate(self, runner):
        # every row is certified: an exact root of delta_k for each k >= n, with n the mode index
        result = invoke(runner, ["aim", "kratzer", "--bracket", "1/50:1", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert set(doc) == {"name", "rows"}
        assert [(row["n"], row["value"]) for row in doc["rows"]] == [
            (n, f"1/{2 * (n + 1)}") for n in range(23, -1, -1)
        ]
        assert all(row["converged"] for row in doc["rows"])
        assert set(doc["rows"][0]) == {"n", "value", "converged"}

    def test_problem_file_without_evaluation_point(self, runner, tmp_path):
        doc = {"tau": {"r1": "-2"}, "sigma": ["1"], "gamma": {"const": "0", "param": "2"}}
        path = tmp_path / "hermite.json"
        path.write_text(json.dumps(doc))
        result = invoke(runner, ["aim", str(path), "--bracket=-1/2:5/2", "--format", "json"])
        assert result.exit_code == 0
        assert [row["value"] for row in json.loads(result.output)["rows"]] == ["0", "1", "2"]

    def test_bad_bracket_exits_2(self, runner):
        result = runner.invoke(main, ["aim", "hermite", "--bracket", "zero-one"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["aim", "hermite", "--bracket", "1:0"])
        assert result.exit_code == 2 and "error: " in result.output

    def test_zero_gamma_exits_1(self, runner, tmp_path):
        # gamma = 0 makes s0 and every s_k vanish: delta_0 = 0 is no error, delta_1 = 0 is
        doc = {"tau": {"r1": {"const": "-2", "param": "1"}}, "sigma": ["1"], "gamma": {"const": "0", "param": "0"}}
        path = tmp_path / "zero-gamma.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["aim", str(path), "--bracket=-10:10"])
        assert result.exit_code == 1
        assert "error: delta_1 vanishes for every trial value" in result.output

    def test_vanishing_mode_exits_1(self, runner, tmp_path):
        # sigma = 1, tau = (E - 2) r, gamma = 6 - 3E: mu_3 = 0, so delta_k = 0 from k = 3 on
        doc = {
            "tau": {"r1": {"const": "-2", "param": "1"}}, "sigma": ["1"],
            "gamma": {"const": "6", "param": "-3"}, "parameter": "E",
        }
        path = tmp_path / "vanishing.json"
        path.write_text(json.dumps(doc))
        for bracket in ("0:5", "100:200"):
            result = runner.invoke(main, ["aim", str(path), "--bracket", bracket])
            assert result.exit_code == 1
            assert result.output == "error: delta_3 vanishes for every trial value\n"


@pytest.mark.parametrize("command", ["solve", "eigenfunction", "nu"])
def test_negative_mode_index_exits_2(runner, tmp_path, command):
    target = "hermite"
    if command == "nu":
        target = str(tmp_path / "nu.json")
        doc = {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["5", "0", "-1"]}
        (tmp_path / "nu.json").write_text(json.dumps(doc))
    result = runner.invoke(main, [command, target, "--n", "-1"])
    assert result.exit_code == 2
    assert "--n" in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "MISSING"],
        ["aim", "MISSING", "--bracket", "0:1"],
        ["eigenfunction", "MISSING"],
        ["nu", "MISSING"],
        ["solve", "DIRECTORY"],
    ],
    ids=["solve", "aim", "eigenfunction", "nu", "solve-directory"],
)
def test_unreadable_problem_file_exits_2(runner, tmp_path, args):
    paths = {"MISSING": str(tmp_path / "missing.json"), "DIRECTORY": str(tmp_path)}
    result = runner.invoke(main, [paths.get(a, a) for a in args])
    assert result.exit_code == 2
    assert result.output.startswith("error: ")


HERMITE_FILE = {"tau": {"r1": "-2"}, "sigma": ["1"], "gamma": {"param": "2"}}
NU_FILE = {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["5", "0", "-1"]}


@pytest.mark.parametrize(
    "command, doc, extra",
    [
        ("solve", [1, 2], []),
        ("solve", {**HERMITE_FILE, "gamma": 2}, []),
        ("solve", {**HERMITE_FILE, "sigma": "12"}, []),
        ("solve", {**HERMITE_FILE, "sigma": ["1", 2]}, []),
        ("solve", {**HERMITE_FILE, "tau": {"r1": -2}}, []),
        ("solve", {**HERMITE_FILE, "parameter": 5}, []),
        ("solve", {"sigma": ["1"], "gamma": {"param": "2"}}, []),
        ("nu", {**NU_FILE, "sigma": 5}, []),
        ("eigenfunction", None, ["legendre", "--samples", "0:1:x"]),
        ("aim", None, ["hermite", "--bracket", "1:1"]),
    ],
    ids=[
        "list-document", "number-gamma", "string-sigma", "number-in-sigma", "number-in-tau",
        "number-parameter", "missing-tau", "nu-number-sigma", "samples-count", "empty-bracket",
    ],
)
def test_malformed_input_exits_2(runner, tmp_path, command, doc, extra):
    args = [command, *extra]
    if doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        args.append(str(path))
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("error: ")
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "command, extra", [("solve", []), ("aim", ["--bracket", "0:1"]), ("eigenfunction", [])]
)
def test_cubic_sigma_exits_2(runner, tmp_path, command, extra):
    # the record refuses sigma of degree 3, and a problem file gets its message
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps({**HERMITE_FILE, "sigma": ["1", "0", "0", "1"]}))
    result = runner.invoke(main, [command, str(path), *extra])
    assert result.exit_code == 2
    assert result.output == "error: deg(sigma) = 3 > 2\n"


@pytest.mark.parametrize(
    "command, extra", [("solve", []), ("aim", ["--bracket=-10:10"]), ("eigenfunction", [])]
)
def test_parameter_only_in_tau_constant_term_exits_2(runner, tmp_path, command, extra):
    # the parameter quantizes only through tau' and gamma, and here enters neither
    path = tmp_path / "constant-term.json"
    tau = {"r0": {"const": "0", "param": "1"}, "r1": "-2"}
    doc = {"tau": tau, "sigma": ["1"], "gamma": {"const": "3"}}
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, str(path), *extra])
    assert result.exit_code == 2
    assert result.output == "error: no parameter dependence to quantize\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6)
    | st.sampled_from(["0", "1", "-2", "1/2", "3/0", "1.5", "r0", "const"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_COMMANDS = [
    ["solve", "--n", "2"],
    ["aim", "--bracket=-3:3"],
    ["eigenfunction", "--n", "2"],
    ["eigenfunction", "--n", "2", "--method", "rodrigues"],
]
_FIELDS = [(HERMITE_FILE, key) for key in ("name", "parameter", *HERMITE_FILE)]
_FIELDS += [(NU_FILE, key) for key in NU_FILE]


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON, command=st.sampled_from(_COMMANDS))
def test_any_json_field_exits_0_1_or_2(tmp_path_factory, field, value, command):
    """One field of a valid problem file, or of a nu file, replaced by any JSON value."""
    base, key = field
    if base is NU_FILE:
        command = ["nu"]
    path = tmp_path_factory.mktemp("fuzz") / "problem.json"
    path.write_text(json.dumps({**base, key: value}))
    result = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)


_COEFF = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
#: grid bounds of up to 31 digits: decimals with the point anywhere, and p/q
_GRID_BOUND = st.one_of(
    st.builds(
        lambda sign, digits, point: f"{sign}{digits[:point]}.{digits[point:]}",
        st.sampled_from(["", "-"]),
        st.integers(1, 10**31 - 1).map(str),
        st.integers(0, 31),
    ),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-(10**31) + 1, 10**31 - 1), st.integers(1, 10**31 - 1)),
)


class TestEigenfunction:
    def test_recursion_coefficients(self, runner):
        result = invoke(
            runner, ["eigenfunction", "hermite", "--n", "2", "--format", "json"]
        )
        doc = json.loads(result.output)
        assert doc["coefficients"] == ["-1/2", "0", "1"]
        assert doc["eigenvalue"] == "2"

    def test_rodrigues(self, runner):
        result = invoke(
            runner,
            ["eigenfunction", "hermite", "--n", "2", "--method", "rodrigues", "--format", "json"],
        )
        assert json.loads(result.output)["coefficients"] == ["-2", "0", "4"]

    def test_rodrigues_sigma_without_rational_roots(self, runner, tmp_path):
        # sigma = 1 + r^2 has no rational roots, so its Pearson weight is no WeightExpr
        doc = {
            "tau": {"r1": {"const": "-10"}},
            "sigma": ["1", "0", "1"],
            "gamma": {"const": "0", "param": "1"},
        }
        path = tmp_path / "sigma_irreducible.json"
        path.write_text(json.dumps(doc))
        result = invoke(
            runner, ["eigenfunction", str(path), "--n", "3", "--method", "rodrigues", "--format", "json"]
        )
        assert result.exit_code == 0
        out = json.loads(result.output)
        y = Poly([parse_rational(c) for c in out["coefficients"]])
        tau, sigma = Poly([0, -10]), Poly([1, 0, 1])
        assert y.degree == 3
        assert ode_residual(tau, sigma, parse_rational(out["eigenvalue"]), y).is_zero

    @pytest.mark.parametrize(
        "args, method",
        [
            pytest.param(args, method, id=f"{stem}{method}")
            for stem, args in [
                ("", None),
                # Hulthen where gamma_3 = gamma_4, and where gamma_0 = gamma_3
                ("hulthen-stops-at-r3-", ["hulthen", "--param", "q=2", "--param", "beta2=-40", "--n", "4"]),
                ("hulthen-stops-at-r0-", ["hulthen", "--param", "q=-1", "--n", "3"]),
            ]
            for method in ("recursion", "rodrigues")
        ],
    )
    def test_degenerate_spectrum_exits_1(self, runner, tmp_path, args, method):
        if args is None:
            # tau = 1, sigma = r^2: gamma_0 = gamma_1 = 0, so there is no unique y_1
            doc = {"tau": {"r0": "1"}, "sigma": ["0", "0", "1"], "gamma": {"param": "1"}}
            path = tmp_path / "degenerate.json"
            path.write_text(json.dumps(doc))
            args = [str(path), "--n", "1"]
        result = runner.invoke(main, ["eigenfunction", *args, "--method", method])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize("method", ["explicit", "hypergeometric"])
    def test_explicit_method_exits_2(self, runner, method):
        # the explicit forms equal Rodrigues for n <= 3 (test_y_low_order_is_rodrigues),
        # and Hulthen's terminating 2F1 is (-1)^n times Rodrigues
        result = runner.invoke(
            main, ["eigenfunction", "hermite", "--n", "2", "--method", method]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--method'" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "q, n", [(Fraction(1), 3), (Fraction(1, 2), 7), (Fraction(2), 1)], ids=["q=1", "q=1/2", "q=2"]
    )
    def test_hulthen_where_2_epsilon_n_is_minus_n(self, runner, q, n):
        # the 2F1's lower parameter 2 epsilon_n + 1 is 1 - n there; both routes still give y_n
        problem = catalog_get("hulthen", {"q": q})
        ys = []
        for method in ("recursion", "rodrigues"):
            args = ["eigenfunction", "hulthen", "--param", f"q={q}", "--n", str(n), "--method", method]
            result = invoke(runner, [*args, "--format", "json"])
            assert result.exit_code == 0
            doc = json.loads(result.output)
            eps, y = parse_rational(doc["eigenvalue"]), Poly([parse_rational(c) for c in doc["coefficients"]])
            assert 2 * eps == -n and y.degree == n
            tau, gamma = problem.tau.substitute(eps), problem.gamma.substitute(eps)
            assert ode_residual(tau, problem.sigma, gamma, y).is_zero
            ys.append(y)
        assert ys[0] * ys[1].leading == ys[1] * ys[0].leading

    def test_samples_csv(self, runner):
        result = invoke(
            runner,
            ["eigenfunction", "legendre", "--n", "1", "--samples", "0:1:3", "--format", "csv"],
        )
        assert result.output.splitlines() == ["r,y", "0,0", "0.5,0.5", "1,1"]

    def test_sample_count_is_bounded(self, runner):
        assert len(_sample_grid(f"0:1:{MAX_SAMPLES}")[2]) == MAX_SAMPLES
        for count in (1, MAX_SAMPLES + 1, 10**8):
            result = runner.invoke(
                main, ["eigenfunction", "legendre", "--samples", f"0:1:{count}"]
            )
            assert result.exit_code == 2
            assert f"error: sample count must be between 2 and {MAX_SAMPLES}" in result.output

    @pytest.mark.parametrize(
        "samples, fmt",
        [("1:1.0000000000001:3", "table"), ("0:1e-400:3", "csv")],
        ids=["near-one", "below-float-resolution"],
    )
    def test_samples_that_print_alike_exit_2(self, runner, samples, fmt):
        args = ["eigenfunction", "legendre", "--n", "1", "--samples", samples, "--format", fmt]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith("error: sample points print alike")

    def test_closest_distinct_labels_pass(self):
        assert _sample_grid("1:1.00000000001:2")[2] == ["1", "1.00000000001"]

    def test_zero_denominator_in_samples_exits_2(self, runner):
        result = runner.invoke(
            main, ["eigenfunction", "legendre", "--n", "2", "--samples", "1/0:1:5"]
        )
        assert result.exit_code == 2
        assert "error: zero denominator in a grid bound" in result.output

    def test_samples_without_a_count_exit_2(self, runner):
        result = runner.invoke(main, ["eigenfunction", "legendre", "--samples", "0:1"])
        assert result.exit_code == 2
        assert result.output == "error: expected a:b:count, got '0:1'\n"

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_COEFF, max_size=13).map(Poly),
        st.tuples(_GRID_BOUND, _GRID_BOUND).filter(lambda t: t[0] != t[1]),
        st.integers(2, 30),
    )
    @example(Poly([1, -3, 0, 2]), (f"0.{'9' * 30}1", f"-0.{'1' * 30}3"), 2)  # a > b, 31 digits, count 2
    @example(Poly([Fraction(1, 3)] * 13), ("1234567890123456789012345678901/7", "1/3"), 2)
    @example(Poly([1] * 13), ("1e300", "2e300"), 3)  # y beyond the float range
    def test_sample_rows_match_per_point_evaluation(self, poly, bounds, count):
        # the integer routes for labels and q(j) = p(a + h j) against one Fraction
        # and one Poly.evaluate per point
        try:
            grid = _sample_grid(f"{bounds[0]}:{bounds[1]}:{count}")
        except BadParameter:  # points that print alike
            assume(False)
        a, h, labels = grid
        points = [a + h * j for j in range(count)]
        assert labels == [_decimal12(*x.as_integer_ratio()) for x in points]

        def outcome(rows):
            try:
                return rows()
            except BadParameter as exc:
                return str(exc)

        def per_point():
            values = (poly.evaluate(x).as_integer_ratio() for x in points)
            return [[label, _decimal12(*y)] for label, y in zip(labels, values)]

        assert outcome(lambda: _sample_rows(poly, grid)) == outcome(per_point)


class TestNu:
    def _write(self, tmp_path, doc):
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_oscillator(self, runner, tmp_path):
        path = self._write(
            tmp_path, {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["5", "0", "-1"]}
        )
        result = invoke(runner, ["nu", path, "--n", "2", "--format", "json"])
        doc = json.loads(result.output)
        assert [c["k"] for c in doc["candidates"]] == ["5", "5"]
        assert {c["lambdaBar"] for c in doc["candidates"]} == {"6", "4"}
        assert {c["lambdaBar_2"] for c in doc["candidates"]} == {"-4", "4"}

    def test_no_reduction_exits_1(self, runner, tmp_path):
        path = self._write(
            tmp_path, {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["0", "0", "-2"]}
        )
        result = runner.invoke(main, ["nu", path])
        assert result.exit_code == 1

    def test_missing_key_exits_2(self, runner, tmp_path):
        path = self._write(tmp_path, {"sigma": ["1"]})
        result = runner.invoke(main, ["nu", path])
        assert result.exit_code == 2

    def test_unknown_key_exits_2(self, runner, tmp_path):
        doc = {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["5", "0", "-1"], "sigma_tilde": ["1"]}
        result = runner.invoke(main, ["nu", self._write(tmp_path, doc)])
        assert result.exit_code == 2
        assert result.output.startswith("error: unknown key 'sigma_tilde'")


class TestBoundedInputs:
    @pytest.mark.parametrize("constant", [10**24 + 39, 123456789012345678901234567891])
    def test_nu_large_sigma_constant(self, tmp_path, constant):
        # for sigma = r^2 + c, c != 0, the radicand k sigma is a perfect square
        # only at k = 0, where w = r gives pi = 2r and pi = 0
        path = tmp_path / "large.json"
        doc = {"tauTilde": ["0"], "sigma": [str(constant), "0", "1"], "sigmaTilde": ["0"]}
        path.write_text(json.dumps(doc))
        result = subprocess.run(
            [sys.executable, "-m", "aimnu", "nu", str(path), "--format", "json"],
            capture_output=True,
            timeout=10,
        )
        assert result.returncode == 0
        candidates = json.loads(result.stdout)["candidates"]
        assert sorted((c["k"], c["pi"]) for c in candidates) == [("0", []), ("0", ["0", "2"])]

    def test_kratzer_with_a_30_digit_coefficient(self):
        # E_n = A/(2(n+1)) lies in the bracket for A/2 < n + 1 < 25 A: the low modes
        # lie far above it, and the bracket holds about 8 * 10^30 modes, far above the cap
        a = "1000000000000000000000000000000/3"
        args = ["kratzer", "--param", f"A={a}"]
        result, seconds = run_process(["aim", *args, "--bracket", "1/50:1"])
        assert result.returncode == 1
        count = 25 * 10**30 // 3 - 10**30 // 6  # the integers n + 1 in (A/2, 25 A)
        assert result.stderr == f"error: the bracket (1/50, 1) holds {count} modes, over 20000\n"
        assert seconds < 5
        result, seconds = run_process(["solve", *args, "--n", "1", "--format", "csv"])
        assert result.returncode == 0
        assert result.stdout.splitlines()[1:] == [
            "0,500000000000000000000000000000/3",
            "1,250000000000000000000000000000/3",
        ]
        assert seconds < 5

    def test_sigma_with_30_digit_roots(self, tmp_path):
        # sigma = (r - 1)(r - a): r0 = 1 is a pole, so the solver takes 1/2
        a = Fraction(123456789012345678901234567891, 7)
        sigma = [a, -(1 + a), 1]
        doc = {
            "tau": {"r1": "2"},
            "sigma": [str(c) for c in sigma],
            "gamma": {"const": "0", "param": "-1"},
        }
        path = tmp_path / "large_roots.json"
        path.write_text(json.dumps(doc))
        for args in (["solve", str(path), "--n", "3"], ["aim", str(path), "--bracket=-1/2:13"]):
            result, seconds = run_process([*args, "--format", "csv"])
            assert result.returncode == 0, result.stderr
            assert [line.split(",")[1] for line in result.stdout.splitlines()[1:]] == [
                "0", "2", "6", "12"
            ]
            assert seconds < 5

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--samples", "0:1e400:3"], "a sample value is beyond the float range"),
            (["--n", "2", "--samples", "0:1e200:3"], "a sample value is beyond the float range"),
            (["--samples", "0:1e99999999:3"], "grid bound '1e99999999' has an exponent beyond"),
            (["--samples", "-1e-99999999:1:3"], "grid bound '-1e-99999999' has an exponent beyond"),
        ],
        ids=["x-overflow", "y-overflow", "huge-exponent", "tiny-exponent"],
    )
    def test_samples_beyond_float_range_exit_2(self, args, message):
        # Fraction("1e99999999") would build 10^99999999 exactly
        result, seconds = run_process(["eigenfunction", "legendre", *args])
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {message}")
        assert "Traceback" not in result.stderr
        assert seconds < 5

    @pytest.mark.parametrize(
        "args, code",
        [
            (["solve", "hermite", "--n", str(MAX_SOLVE_N)], 0),
            # E_n = n: the bracket holds modes 0 .. MAX_SOLVE_N - 1, as many as aim returns
            (["aim", "hermite", f"--bracket=-1/2:{2 * MAX_SOLVE_N - 1}/2"], 0),
            (
                ["eigenfunction", "hulthen", "--n", str(MAX_EIGENFUNCTION_N),
                 "--method", "rodrigues", "--samples", f"1/3:3/7:{MAX_SAMPLES}"],
                0,
            ),
            # the grid bound's digits grow the integers of each sample: about 0.5 s at 31
            (
                ["eigenfunction", "hulthen", "--n", str(MAX_EIGENFUNCTION_N),
                 "--method", "rodrigues",
                 "--samples", f"0.1234567890123456789012345678901:1:{MAX_SAMPLES}"],
                0,
            ),
        ],
        ids=["solve", "aim", "eigenfunction", "eigenfunction-31-digit-grid"],
    )
    def test_slowest_accepted_call(self, args, code):
        # each bound is sized so that the slowest call it accepts at catalog
        # defaults takes about 2-3 s as a whole process
        result, seconds = run_process(args, timeout=30)
        assert result.returncode == code
        assert "Traceback" not in result.stderr
        assert seconds < 5

    @pytest.mark.parametrize(
        "args, bound",
        [
            (["solve", "hermite", "--n", str(MAX_SOLVE_N + 1)], MAX_SOLVE_N),
            (["eigenfunction", "legendre", "--n", str(MAX_EIGENFUNCTION_N + 1)], MAX_EIGENFUNCTION_N),
            # each sample is one exact evaluation whose cost grows with the bound's digits
            (
                ["eigenfunction", "hulthen", "--n", str(MAX_EIGENFUNCTION_N),
                 "--samples", f"0.{'3' * 300}:1:1000"],
                MAX_DIGITS,
            ),
            (["solve", "kratzer", "--param", f"A=1{'0' * MAX_DIGITS}"], MAX_DIGITS),
        ],
        ids=["solve-n", "eigenfunction-n", "grid-bound-digits", "param-digits"],
    )
    def test_above_the_bound_exits_2(self, args, bound):
        result, seconds = run_process(args)
        assert result.returncode == 2
        assert str(bound) in result.stderr
        assert "Traceback" not in result.stderr
        assert seconds < 5

    def test_aim_above_the_mode_cap_exits_1(self):
        # one mode more than the cap: a computation on valid input, refused before any row
        result, seconds = run_process(["aim", "hermite", f"--bracket=-1/2:{2 * MAX_SOLVE_N + 1}/2"])
        assert result.returncode == 1
        assert result.stderr == (
            f"error: the bracket (-1/2, {2 * MAX_SOLVE_N + 1}/2) holds {MAX_SOLVE_N + 1} modes, "
            f"over {MAX_SOLVE_N}\n"
        )
        assert seconds < 5

    def test_31_digit_kratzer(self):
        # A = P/7, Lambda = P/(P + 2): the bracket -1000:1000 holds the accumulation point
        # 0 of E_n, and P/280:P/70 holds 15 modes; neither runs a level past delta_2
        p = 1234567890123456789012345678901
        args = ["aim", "kratzer", "--param", f"A={p}/7", "--param", f"Lambda={p}/{p + 2}"]
        result, seconds = run_process([*args, "--bracket=-1000:1000"])
        assert result.returncode == 1
        assert result.stderr == "error: the bracket (-1000, 1000) holds infinitely many modes\n"
        assert seconds < 0.5
        result, seconds = run_process([*args, f"--bracket={p}/280:{p}/70", "--format", "csv"])
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 16 and result.stdout.count(",true") == 15
        assert seconds < 0.5

    def test_31_digit_morse(self):
        # alpha = P/(P + 2) and beta = P/(P + 6), both just below 1: E_n = beta - (n + 1/2) alpha,
        # so -1000:1000 holds the 1,001 modes n <= 1000; this call once ran past 120 s
        p = 1234567890123456789012345678901
        args = ["aim", "morse", "--param", f"alpha={p}/{p + 2}", "--param", f"beta={p}/{p + 6}"]
        result, seconds = run_process([*args, "--bracket=-1000:1000", "--format", "csv"])
        assert result.returncode == 0, result.stderr
        rows = result.stdout.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(n) for n in range(1000, -1, -1)]
        assert seconds < 5


class TestReadme:
    def test_problem_file_example_runs(self, runner, tmp_path):
        # the README's first JSON block is the problem-file example
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
        path = tmp_path / "readme.json"
        path.write_text(example)
        result = invoke(runner, ["solve", str(path), "--n", "2", "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines() == ["n,eigenvalue", "0,0", "1,1", "2,2"]
        result = invoke(runner, ["aim", str(path), "--bracket=-1/2:5/2", "--format", "csv"])
        assert result.exit_code == 0
        assert [line.split(",")[1] for line in result.output.splitlines()[1:]] == ["0", "1", "2"]

    def test_nu_file_example_runs(self, runner, tmp_path):
        # the README's second JSON block is the `nu` file example
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        example = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)[1]
        path = tmp_path / "nu.json"
        path.write_text(example)
        result = invoke(runner, ["nu", str(path), "--format", "json"])
        assert result.exit_code == 0
        assert [c["k"] for c in json.loads(result.output)["candidates"]] == ["5", "5"]


    def test_library_example_runs(self, capsys):
        # the README's python block, with its plain int parameter alpha = 1
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        exec(re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1), {})
        assert capsys.readouterr().out.splitlines() == ["2", "1 1 True", "0 2 True"]


class TestVerify:
    def test_single_suite(self, runner):
        result = invoke(runner, ["verify", "--filter", "delta"])
        assert result.exit_code == 0
        assert "2/2 checks passed" in result.output
        assert "FAIL" not in result.output

    def test_status_in_a_fixed_column(self, runner):
        # the filtered rows are padded to the same column as the full run, not to their widest label
        rows = invoke(runner, ["verify", "--filter", "delta"]).output.splitlines()[:-1]
        assert len(rows) == 2
        assert all(row.index("PASS") == 66 for row in rows)

    def test_unknown_filter_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "--filter", "zzz"])
        assert result.exit_code == 2

    def test_raising_suite_is_one_failed_row(self, runner, monkeypatch):
        def broken():
            raise InconsistentGamma("Pearson identity failed")

        monkeypatch.setitem(verify.SUITES, "delta", broken)
        result = runner.invoke(main, ["verify", "--filter", "e"])
        assert result.exit_code == 1
        lines = result.output.splitlines()
        [row] = [line for line in lines if line.startswith("[delta] ")]
        assert re.fullmatch(r"\[delta\] raised InconsistentGamma: Pearson identity failed +FAIL", row)
        assert any(line.startswith("[table1] ") for line in lines)  # the other suites ran
        assert lines[-1].endswith(f"/{len(lines) - 1} checks passed")


class TestDeterminism:
    def test_json_and_csv_outputs_stable(self, runner):
        for args in (
            ["solve", "hulthen", "--n", "4", "--format", "json"],
            ["solve", "hulthen", "--n", "4", "--format", "csv"],
            ["eigenfunction", "gegenbauer", "--n", "3", "--format", "csv"],
            ["aim", "hermite", "--bracket=-1/2:3/2", "--format", "json"],
        ):
            first = invoke(runner, args)
            second = invoke(runner, args)
            assert first.output == second.output
            assert first.exit_code == second.exit_code == 0
