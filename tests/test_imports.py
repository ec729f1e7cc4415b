"""What each command executes of the package, and the public API over lazy modules.

``aimnu/__init__.py`` imports ``errors``, ``rationals``, ``algebra`` and
``hypergeometric``; ``aim``, ``catalog``, ``eigenfunctions``, ``nu`` and
``verify`` execute on their first attribute access.  Each check runs in a
fresh interpreter, where no module has been touched yet.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aimnu

SRC = Path(__file__).resolve().parents[1] / "src"

SHARED = {"errors", "rationals", "algebra", "hypergeometric", "cli"}
ALL = SHARED | {"aim", "catalog", "eigenfunctions", "nu", "verify"}

#: sigma = (3r - 2)(r + 1): two reductions, each with a phi.
NU_DOC = {"tauTilde": ["0", "-2"], "sigma": ["-2", "1", "3"], "sigmaTilde": ["-15/4", "6", "-3"]}

#: Runs ``python -m aimnu ARGV[2:]`` as ``benchmarks/cli_child.py`` does and
#: writes to ARGV[1] the aimnu modules that executed; a lazy module that was
#: never touched is not a plain ``types.ModuleType``.
EXECUTED = """
import atexit, json, runpy, sys, types

out = sys.argv[1]

def dump():
    names = [k for k, m in sys.modules.items() if k.startswith("aimnu.") and type(m) is types.ModuleType]
    with open(out, "w") as fh:
        json.dump(sorted(name[len("aimnu."):] for name in names), fh)

atexit.register(dump)
sys.argv = ["aimnu", *sys.argv[2:]]
runpy.run_module("aimnu", run_name="__main__", alter_sys=True)
"""


def _python(args, src=SRC, cwd=None):
    env = {"PYTHONPATH": str(src), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, cwd=cwd, env=env
    )


@pytest.mark.parametrize(
    "args, executed",
    [
        (["list"], SHARED | {"catalog"}),
        (["solve", "morse", "--param", "beta=7/2", "--n", "3", "--format", "json"], SHARED | {"catalog"}),
        (["aim", "kratzer", "--bracket", "1/50:1", "--format", "json"], SHARED | {"catalog", "aim"}),
        (
            ["eigenfunction", "legendre", "--n", "3", "--samples", "-1:1:21", "--format", "csv"],
            SHARED | {"catalog", "eigenfunctions"},
        ),
        (["nu", "PROBLEM", "--n", "2", "--format", "json"], SHARED | {"nu"}),
        (["verify"], ALL),
    ],
    ids=["list", "solve", "aim", "eigenfunction", "nu", "verify"],
)
def test_each_command_executes_only_its_modules(tmp_path, args, executed):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(NU_DOC))
    args = [str(problem) if a == "PROBLEM" else a for a in args]
    out = tmp_path / "modules.json"
    result = _python(["-c", EXECUTED, str(out), *args], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert set(json.loads(out.read_text())) == executed


def test_a_lazy_module_raises_its_import_error_at_first_use(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC / "aimnu", src / "aimnu", ignore=shutil.ignore_patterns("__pycache__"))
    nu_py = src / "aimnu" / "nu.py"
    text = nu_py.read_text()
    anchor = "from __future__ import annotations\n"
    nu_py.write_text(text.replace(anchor, anchor + "import aimnu_no_such_module\n", 1))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(NU_DOC))

    failed = _python(["-m", "aimnu", "nu", str(problem)], src=src, cwd=tmp_path)
    assert failed.returncode != 0
    assert "ModuleNotFoundError: No module named 'aimnu_no_such_module'" in failed.stderr
    solved = _python(["-m", "aimnu", "solve", "morse", "--n", "1"], src=src, cwd=tmp_path)
    assert solved.returncode == 0, solved.stderr
    assert solved.stdout.split() == ["n", "eigenvalue", "0", "2", "1", "1"]


#: The public names and their home modules, as the package exported them
#: when it imported every module eagerly.
PUBLIC = {
    "algebra": ["NEG_INF", "Poly", "Affine", "WeightExpr", "integrate_log_derivative"],
    "aim": ["EigenvalueEstimate", "solve_iterative"],
    "hypergeometric": ["HypergeometricProblem", "validate", "gamma_n", "eigenvalue"],
    "nu": ["NuProblem", "NuReduction", "nu_find_k", "build_phi", "nu_solve"],
    "eigenfunctions": [
        "EigenPolynomial",
        "PearsonWeight",
        "polynomial_solution",
        "y_low_order",
        "pearson_weight",
        "rodrigues",
        "ode_residual",
    ],
    "catalog": ["CatalogEntry", "catalog_get", "catalog_list", "expected_eigenvalue"],
    "rationals": ["parse_rational"],
}

#: In a fresh interpreter: README's import first, then ``import *``, then every
#: name against its home module; prints the names that differ.
PUBLIC_CHECK = """
import importlib, json, sys

from aimnu import catalog_get, eigenvalue, solve_iterative

import aimnu

star = {}
exec("from aimnu import *", star)
public = json.loads(sys.argv[1])
readme = {"catalog_get": catalog_get, "eigenvalue": eigenvalue, "solve_iterative": solve_iterative}
wrong = []
for module, names in public.items():
    home = importlib.import_module(f"aimnu.{module}")
    for name in names:
        obj = getattr(home, name)
        if not (getattr(aimnu, name) is obj and star[name] is obj and readme.get(name, obj) is obj):
            wrong.append(name)
print(json.dumps({"all": sorted(aimnu.__all__), "star": sorted(k for k in star if k != "__builtins__"), "wrong": wrong}))
"""


def test_public_names_are_their_home_modules_objects():
    result = _python(["-c", PUBLIC_CHECK, json.dumps(PUBLIC)])
    assert result.returncode == 0, result.stderr
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 28
    assert json.loads(result.stdout) == {"all": names, "star": names, "wrong": []}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        aimnu.no_such_name
    with pytest.raises(ImportError):
        from aimnu import no_such_name  # noqa: F401


#: Every library function that no command and no ``verify`` suite calls, with why it stays.
UNREACHED = {
    "aim.iterate": "benchmark pin: tracing.TARGETS wraps it; the tests' RatFunc oracle of determinants",
    "algebra.poly_gcd": "benchmark pin: tracing.TARGETS wraps it",
    "algebra.rational_roots": "benchmark pin: tracing.TARGETS wraps it",
    "algebra.partial_fractions": "benchmark pin: tracing.TARGETS wraps it",
    "algebra.Poly.__divmod__": "benchmark pin: tracing.TARGETS wraps it",
    "algebra.RatFunc.__init__": "benchmark pin: tracing.TARGETS wraps it",
    "nu.build_phi": "benchmark pin: tracing.TARGETS wraps it",
    "hypergeometric.to_aim_form": "benchmark pin: workloads._aim_op calls it",
    "algebra.RatFunc.__add__": "only aim.iterate calls it",
    "algebra.RatFunc.__neg__": "only aim.iterate calls it",
    "algebra.RatFunc.__sub__": "only aim.iterate calls it",
    "algebra.RatFunc.__mul__": "only aim.iterate calls it",
    "algebra.RatFunc.derivative": "only aim.iterate calls it",
    "algebra.Poly.__neg__": "only RatFunc.__neg__ calls it",
    "algebra.Poly.__floordiv__": "only RatFunc.__init__ calls it, after a poly_gcd",
    "algebra.Poly.__setattr__": "immutability guard: no caller assigns",
    "algebra.RatFunc.__setattr__": "immutability guard: no caller assigns",
    "algebra.Poly.__rsub__": "value type: a number minus a Poly",
    "algebra.Poly.__hash__": "value type: a Poly is hashable",
    "algebra.Poly.__repr__": "value type: repr",
    "algebra.RatFunc.__hash__": "value type: a RatFunc is hashable",
    "algebra.RatFunc.__repr__": "value type: repr",
    "aimnu.__getattr__": "public names: test_public_names_are_their_home_modules_objects reaches it",
}

#: In a fresh interpreter, under ``sys.setprofile``: imports aimnu, runs each
#: command of ARGV[1] in process, then collects the code object of every function,
#: method and property getter defined under ``aimnu/`` (a click command through its
#: callback) and prints the names of those never called, and the commands that failed.
CALLERS = """
import importlib, json, pkgutil, sys

called = set()
sys.setprofile(lambda frame, event, arg: called.add(frame.f_code) if event == "call" else None)

import click
from click.testing import CliRunner

import aimnu
from aimnu.cli import main

failed = []
for args in json.loads(sys.argv[1]):
    result = CliRunner().invoke(main, args)
    if result.exit_code:
        failed.append([args, result.output])
sys.setprofile(None)

src = aimnu.__path__[0]
names = {}
packages = pkgutil.iter_modules(aimnu.__path__)
modules = [aimnu, *(importlib.import_module(f"aimnu.{m.name}") for m in packages if m.name != "__main__")]
for module in modules:
    for value in vars(module).values():
        members = [value]
        if isinstance(value, type):
            members = [getattr(m, "fget", getattr(m, "__func__", m)) for m in vars(value).values()]
        elif isinstance(value, click.Command):
            members = [value.callback]
        for f in members:
            code = getattr(f, "__code__", None)
            if code is not None and code.co_filename.startswith(src):
                names[code] = f"{f.__module__.removeprefix('aimnu.')}.{f.__qualname__}"
print(json.dumps({"failed": failed, "uncalled": sorted(n for c, n in names.items() if c not in called)}))
"""


def test_every_library_function_has_a_caller(tmp_path):
    (tmp_path / "nu.json").write_text(json.dumps(NU_DOC))
    oscillator = {"tauTilde": ["0"], "sigma": ["1"], "sigmaTilde": ["5", "0", "-1"]}  # phi = exp(-r^2/2)
    (tmp_path / "oscillator.json").write_text(json.dumps(oscillator))
    problem = {"tau": {"r1": "-2"}, "sigma": ["1"], "gamma": {"param": "2"}}
    (tmp_path / "problem.json").write_text(json.dumps(problem))
    commands = [
        ["list"],
        ["solve", "morse", "--param", "beta=7/2", "--n", "3"],
        ["solve", "problem.json", "--n", "3"],
        ["aim", "kratzer", "--bracket", "1/50:1"],
        ["eigenfunction", "legendre", "--n", "3", "--samples", "-1:1:21"],
        ["eigenfunction", "hulthen", "--n", "2", "--method", "rodrigues"],
        ["nu", "nu.json"],
        ["nu", "oscillator.json", "--n", "2"],
    ]
    runs = [[*args, "--format", fmt] for fmt in ("table", "csv", "json") for args in commands] + [["verify"]]
    result = _python(["-c", CALLERS, json.dumps(runs)], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["failed"] == []
    uncalled = set(out["uncalled"])
    extra, missing = sorted(uncalled - UNREACHED.keys()), sorted(UNREACHED.keys() - uncalled)
    assert (extra, missing) == ([], []), f"uncalled, not in UNREACHED: {extra}; in UNREACHED, but called: {missing}"
