"""Command-line interface.

Commands: list, solve, aim, eigenfunction, nu, verify.  Rationals on the
command line and in problem files are exact "p/q" strings; floating
literals are accepted only for sample-grid bounds.  csv/json output is
byte-deterministic for identical invocations.

Each command builds its rows once, as dicts of plain values (ints,
Fractions, bools, Polys, phi or None, catalog ParamSpecs), and ``_emit``
alone decides how a value prints: ``_cell`` for table and csv cells,
``_json`` for what json cannot hold.

The solver modules bound here (``aim_mod``, ``catalog_mod``, ``eig_mod``,
``nu_mod``, ``verify_mod``) are the package's lazy modules: each executes on
the first attribute a command reads from it, so ``nu`` never runs ``aim`` or
``catalog``, and nothing at import time reads from them.

Exit codes: 0 success; 2 for an ``InputError``, 1 for any other aimnu error
and for a failed verification (see ``_Main``).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from fractions import Fraction
from functools import reduce

import click

from . import aim as aim_mod
from . import catalog as catalog_mod
from . import eigenfunctions as eig_mod
from . import hypergeometric as hg
from . import nu as nu_mod
from . import verify as verify_mod
from .algebra import Affine, Poly, WeightExpr, cleared
from .errors import AimnuError, BadParameter, InputError
from .rationals import MAX_DIGITS, MAX_MODES, parse_rational


class _Main(click.Group):
    """The one place where an aimnu error becomes an exit code, from its class.

    An ``InputError`` exits 2 and any other ``AimnuError`` exits 1, each with
    its message on stderr; any other exception is a bug and keeps its traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AimnuError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2 if isinstance(exc, InputError) else 1)


def _parse_params(pairs: tuple[str, ...]) -> dict[str, Fraction]:
    params = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise BadParameter(f"expected name=value, got {pair!r}")
        params[name.strip()] = parse_rational(value)
    return params


def _read_json(path: str, allowed: tuple[str, ...], required: tuple[str, ...]) -> dict:
    """The JSON object in a problem file; a file that cannot be read is a BadParameter."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise BadParameter(str(exc)) from None
    _check_keys("the problem file", doc, allowed, required)
    return doc


def _check_keys(where: str, doc, allowed: tuple[str, ...], required: tuple[str, ...] = ()) -> None:
    """Require a JSON object that holds every ``required`` key and no key
    outside ``allowed``, so a misspelling is never ignored."""
    if not isinstance(doc, dict):
        raise BadParameter(f"{where} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        keys = ("key " if len(unknown) == 1 else "keys ") + ", ".join(map(repr, unknown))
        raise BadParameter(f"unknown {keys} in {where}; expected {', '.join(allowed)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise BadParameter(f"missing key {missing[0]!r} in {where}")


def _affine_coeff(entry) -> tuple[Fraction, Fraction]:
    if not isinstance(entry, dict):
        return parse_rational(entry), Fraction(0)
    _check_keys("an affine coefficient", entry, ("const", "param"))
    return parse_rational(entry.get("const", "0")), parse_rational(entry.get("param", "0"))


def _coeffs(doc: dict, key: str) -> Poly:
    """The polynomial whose coefficients ``doc[key]`` lists, constant term first."""
    if not isinstance(doc[key], list):
        raise BadParameter(f'{key} must be a list of "p/q" strings, got {doc[key]!r}')
    return Poly([parse_rational(c) for c in doc[key]])


def _string(doc: dict, key: str, default: str) -> str:
    value = doc.get(key, default)
    if not isinstance(value, str):
        raise BadParameter(f"{key} must be a string, got {value!r}")
    return value


def _load_problem(name_or_file: str, params: dict) -> tuple[str, hg.HypergeometricProblem]:
    """Catalog name, or a JSON problem file when the argument looks like a path."""
    if not (name_or_file.endswith(".json") or os.path.sep in name_or_file):
        return name_or_file, catalog_mod.catalog_get(name_or_file, params)
    keys = ("name", "tau", "sigma", "gamma", "parameter")
    doc = _read_json(name_or_file, keys, ("tau", "sigma", "gamma"))
    _check_keys("tau", doc["tau"], ("r0", "r1"))
    (r0c, r0p), (r1c, r1p) = (_affine_coeff(doc["tau"].get(k, "0")) for k in ("r0", "r1"))
    problem = hg.validate(
        Affine(Poly([r0c, r1c]), Poly([r0p, r1p])),
        _coeffs(doc, "sigma"),
        _affine_coeff(doc["gamma"]),
        _string(doc, "parameter", "p"),
    )
    return _string(doc, "name", "problem"), problem


def _parse_bracket(text: str) -> tuple[Fraction, Fraction]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise BadParameter(f"expected lo:hi, got {text!r}")
    return parse_rational(lo), parse_rational(hi)


def _cell(value) -> str:
    """A table or csv cell: a bool in lower case, a tuple as its items joined
    (``-`` when empty), a missing phi as ``unsupported``, anything else its str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(map(str, value)) or "-"
    return "unsupported" if value is None else str(value)


def _json(value):
    """What json cannot hold: a Poly as its coefficient list, a ParamSpec as
    {name, default, constraint}, anything else (a Fraction, phi) as its str."""
    if isinstance(value, Poly):
        return value.coeffs
    if isinstance(value, (Fraction, WeightExpr)):  # before ParamSpec, which loads the catalog
        return str(value)
    if isinstance(value, catalog_mod.ParamSpec):
        return {"name": value.name, "default": value.default, "constraint": value.constraint_text}
    return str(value)


def _emit(fmt: str, header: list[str], rows: list[dict], envelope: dict):
    """Print the ``header`` columns of the rows as a table or csv, or the
    envelope, which holds the rows, as stable json."""
    if fmt == "json":
        click.echo(json.dumps(envelope, indent=2, sort_keys=True, default=_json))
        return
    lines = [header, *([_cell(row[key]) for key in header] for row in rows)]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(lines)
        click.echo(buf.getvalue(), nl=False)
    else:
        widths = [max(map(len, column)) for column in zip(*lines)]
        text = ("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)
        click.echo("\n".join(text))


#: Bounds on the sizes whose cost grows without limit, each set so that the
#: slowest call it accepts at catalog defaults takes a few seconds;
#: ``MAX_DIGITS`` bounds every numerator and denominator read, grid bounds too.
MAX_SOLVE_N = MAX_MODES  # one closed-form value per mode, as many as aim returns
MAX_EIGENFUNCTION_N = 100  # Rodrigues grows about as n^3, one sample as n^2
MAX_SAMPLES = 2_000  # points of a --samples grid, each one exact evaluation

#: Largest decimal exponent a grid bound may carry: ``Fraction("1e99999999")``
#: builds 10^99999999 exactly, and no float prints a sample beyond about 1e308.
MAX_BOUND_EXPONENT = 400

_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["table", "csv", "json"]), default="table"
)
_PARAM = click.option("--param", "params", multiple=True, help="name=value, value a rational p/q")


@click.group(cls=_Main)
def main():
    """Exact eigensolver for hypergeometric-type equations."""


@main.command("list")
@click.option("--filter", "substring", default=None)
@_FORMAT
def cmd_list(substring, fmt):
    """List catalog entries."""
    rows = [
        {
            "name": e.name,
            "parameters": e.parameters,
            "quantized": catalog_mod.catalog_get(e.name).parameter,
            "note": e.provenance,
        }
        for e in catalog_mod.catalog_list(substring)
    ]
    _emit(fmt, ["name", "parameters", "quantized", "note"], rows, {"entries": rows})


@main.command("solve")
@click.argument("name_or_file")
@_PARAM
@click.option(
    "--n", "n_max", type=click.IntRange(0, MAX_SOLVE_N), default=0, help="highest mode index"
)
@_FORMAT
def cmd_solve(name_or_file, params, n_max, fmt):
    """Closed-form spectrum via the quantization-constant formula."""
    name, problem = _load_problem(name_or_file, _parse_params(params))
    rows = [{"n": n, "eigenvalue": hg.eigenvalue(problem, n)} for n in range(n_max + 1)]
    envelope = {"name": name, "parameter": problem.parameter, "rows": rows}
    _emit(fmt, ["n", "eigenvalue"], rows, envelope)


@main.command("aim")
@click.argument("name_or_file")
@_PARAM
@click.option("--bracket", required=True, help="lo:hi open search bracket (rationals)")
@_FORMAT
def cmd_aim(name_or_file, params, bracket, fmt):
    """Iterative spectrum: every mode whose eigenvalue lies in the open bracket.

    delta_0..delta_2, each divided by the level before, fix the factor
    c(k) + E e(k) of every level k; mode n's exact eigenvalue -c(n)/e(n) is
    a root of every level k >= n.  Exits 1 for no mode, infinitely many or
    more than 20,000.
    """
    name, problem = _load_problem(name_or_file, _parse_params(params))
    estimates = aim_mod.solve_iterative(problem, None, _parse_bracket(bracket))
    rows = [{"n": e.n, "value": e.value, "converged": e.converged} for e in estimates]
    _emit(fmt, ["n", "value", "converged"], rows, {"name": name, "rows": rows})


def _grid_bound(text: str) -> Fraction:
    """A "p/q" or decimal grid bound, its exponent and digits checked before it is built."""
    mantissa, e, exponent = text.lower().partition("e")
    try:
        too_large = bool(e) and abs(int(exponent)) > MAX_BOUND_EXPONENT
    except ValueError:  # no integer exponent: Fraction names the bad literal
        too_large = False
    if too_large:
        raise BadParameter(f"grid bound {text!r} has an exponent beyond {MAX_BOUND_EXPONENT}")
    if any(sum(ch.isdigit() for ch in part) > MAX_DIGITS for part in mantissa.split("/")):
        raise BadParameter(f"a grid bound has more than {MAX_DIGITS} digits")
    return Fraction(text)


def _decimal12(num: int, den: int) -> str:
    """num/den at 12 significant digits; int true division rounds correctly."""
    try:
        return f"{num / den:.12g}"
    except OverflowError:
        raise BadParameter("a sample value is beyond the float range; narrow --samples") from None


def _sample_grid(spec: str) -> tuple[Fraction, Fraction, list[str]]:
    """An a:b:count grid x_j = a + h j as (a, h, labels), label j what x_j prints as;
    points that would print alike are rejected before any is evaluated."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise BadParameter(f"expected a:b:count, got {spec!r}")
    try:
        a, b = (_grid_bound(p) for p in parts[:2])  # decimal literals allowed for grid bounds
        count = int(parts[2])
    except ZeroDivisionError:
        raise BadParameter(f"zero denominator in a grid bound: {spec!r}") from None
    except ValueError as exc:
        raise BadParameter(str(exc)) from None
    if not 2 <= count <= MAX_SAMPLES:
        raise BadParameter(f"sample count must be between 2 and {MAX_SAMPLES}")
    h = (b - a) / (count - 1)
    (u, v), (r, s) = a.as_integer_ratio(), h.as_integer_ratio()
    labels = [_decimal12(u * s + r * v * j, v * s) for j in range(count)]
    if len(set(labels)) < count:  # the grid is monotone, so equal labels are neighbours
        raise BadParameter("sample points print alike at 12 significant digits; widen --samples")
    return a, h, labels


def _sample_rows(poly: Poly, grid: tuple[Fraction, Fraction, list[str]]) -> list[list[str]]:
    """[label, y] rows on the grid x_j = a + h j: q(j) = p(a + h j), p shifted to a and
    coefficient i scaled by h^i, on integers over one denominator, Horner in j."""
    a, h, labels = grid
    (r, s), ((nums,), m) = h.as_integer_ratio(), cleared(poly.compose_linear(a))
    n = max(len(nums) - 1, 0)
    q, den = [c * r**i * s ** (n - i) for i, c in enumerate(nums)], m * s**n
    values = (reduce(lambda acc, c: acc * j + c, reversed(q), 0) for j in range(len(labels)))
    return [[label, _decimal12(y, den)] for label, y in zip(labels, values)]


@main.command("eigenfunction")
@click.argument("name_or_file")
@_PARAM
@click.option("--n", "n", type=click.IntRange(0, MAX_EIGENFUNCTION_N), default=0)
@click.option(
    "--method",
    type=click.Choice(["recursion", "rodrigues"]),
    default="recursion",
)
@click.option("--samples", default=None, help="a:b:count sampling grid for plotting")
@_FORMAT
def cmd_eigenfunction(name_or_file, params, n, method, samples, fmt):
    """Polynomial eigenfunction coefficients, optionally sampled on a grid."""
    parsed = _parse_params(params)
    name, problem = _load_problem(name_or_file, parsed)
    grid = _sample_grid(samples) if samples else None
    value = hg.eigenvalue(problem, n)
    tau = problem.tau.substitute(value)
    if method == "recursion":
        poly = eig_mod.polynomial_solution(tau, problem.sigma, n).poly
    else:
        poly = eig_mod.rodrigues(tau, problem.sigma, n)
    envelope = {"name": name, "n": n, "method": method, "eigenvalue": value, "coefficients": poly}
    if grid is None:
        header = ["power", "coefficient"]
        rows = [{"power": i, "coefficient": c} for i, c in enumerate(poly.coeffs)]
    else:
        envelope["samples"] = _sample_rows(poly, grid)
        header = ["r", "y"]
        rows = [{"r": r, "y": y} for r, y in envelope["samples"]]
    _emit(fmt, header, rows, envelope)


@main.command("nu")
@click.argument("problem_file")
@click.option(
    "--n", "n", type=click.IntRange(min=0), default=None, help="also report the mode eigenparameter"
)
@_FORMAT
def cmd_nu(problem_file, n, fmt):
    """Enumerate (k, pi) reductions of a Nikiforov-Uvarov problem file."""
    keys = ("tauTilde", "sigma", "sigmaTilde")
    doc = _read_json(problem_file, keys, keys)
    problem = nu_mod.NuProblem(*(_coeffs(doc, key) for key in keys))
    header = ["k", "pi", "lambdaBar", "tau", "phi"] + ([] if n is None else [f"lambdaBar_{n}"])
    rows = []
    for c in nu_mod.nu_find_k(problem):
        row = {"k": c.k, "pi": c.pi, "lambdaBar": c.lambda_bar, "tau": c.tau, "phi": c.phi}
        if n is not None:
            row[f"lambdaBar_{n}"] = hg.gamma_n(c.tau, problem.sigma, n)
        rows.append(row)
    _emit(fmt, header, rows, {"candidates": rows})


@main.command("verify")
@click.option("--filter", "substring", default=None)
def cmd_verify(substring):
    """Run the self-verification suites; exit 0 only if everything passes."""
    results = verify_mod.run_suites(substring)
    if not results:
        raise BadParameter(f"no suite matches filter {substring!r}")
    lines = []
    for r in results:
        label = f"[{r.suite}] {r.name}"  # one fixed column: a new row re-spaces no other line
        status = "PASS" if r.ok else "FAIL"
        suffix = f"  ({r.detail})" if r.detail and not r.ok else ""
        lines.append(f"{label.ljust(64)}  {status}{suffix}")
    failed = sum(1 for r in results if not r.ok)
    click.echo("\n".join([*lines, f"{len(results) - failed}/{len(results)} checks passed"]))
    if failed:
        sys.exit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
