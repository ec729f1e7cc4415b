"""The package's design rules, as one table of line patterns over the source tree.

Each rule names the files it reads (a regex on the path from the repo root),
a pattern that finds offending lines, the lines it allows (a regex on
``path:line``) and how many hits each file may hold (none, unless
``counts`` says otherwise).  ``offences`` reports every hit that breaks a
rule, as ``path:number: line``.  Every rule must hold on the tree, and each
one must flag a line that breaks it.
"""

import builtins
import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

LIBRARY, SRC, TESTS = r"src/aimnu/[^/]+\.py", r"src/.+\.py", r"tests/[^/]+\.py"
ALGEBRA, CLI, NU, VERIFY = (rf"src/aimnu/{name}\.py" for name in ("algebra", "cli", "nu", "verify"))
NOT_ALGEBRA = r"^src/aimnu/algebra\.py:"
ONE_IN_CLI = {"src/aimnu/cli.py": {1}}

#: Every exception class Python defines: the package raises its own ``errors``.
BUILTIN_ERRORS = "|".join(
    name for name, value in vars(builtins).items() if isinstance(value, type) and issubclass(value, BaseException)
)


class Rule(NamedTuple):
    id: str
    scope: str
    pattern: str
    message: str
    allowed: str | None = None
    counts: dict[str, set[int]] = {}


RULES = [
    # Only algebra.py reads the stored integer form of a Poly or finds exact roots:
    # other modules go through algebra.cleared and Poly.coeff_pair ...
    Rule(
        "poly-store", LIBRARY, r"\._(nums|den)\b",
        "Poly._nums or Poly._den read outside src/aimnu/algebra.py", NOT_ALGEBRA,
    ),
    # ... the exact kernel depends on no other package module but errors ...
    Rule(
        "algebra-imports", ALGEBRA, r"^\s*(from|import)\s+(\.|aimnu\b)",
        "src/aimnu/algebra.py imports a package module other than .errors", r":from \.errors import",
    ),
    # ... one exact square root, and one rational-root routine on integers: other modules import them ...
    Rule("one-isqrt", LIBRARY, r"def _isqrt_exact\b", "_isqrt_exact defined outside src/aimnu/algebra.py", NOT_ALGEBRA),
    Rule(
        "one-quadratic-roots", LIBRARY, r"def _quadratic_roots\b",
        "_quadratic_roots defined outside src/aimnu/algebra.py", NOT_ALGEBRA,
    ),
    # ... and the NU search takes each root as an integer pair u/v, never as a Fraction to split.
    Rule("nu-integer-roots", NU, r"\.(numerator|denominator)\b", "src/aimnu/nu.py reads .numerator or .denominator"),
    # Commands build rows of plain values; cli._emit alone decides how they print.
    Rule("one-json-dumps", LIBRARY, r"json\.dumps", "expected one json.dumps, in src/aimnu/cli.py", counts=ONE_IN_CLI),
    Rule("one-csv-writer", LIBRARY, r"csv\.writer", "expected one csv.writer, in src/aimnu/cli.py", counts=ONE_IN_CLI),
    # str of a Fraction is the "p/q" text.
    Rule("no-format-rational", SRC, r"format_rational", "format_rational is back in src/"),
    # Tests keep no frozen copy of replaced code as an oracle: sympy, the product
    # formula and Rodrigues state the same facts independently.
    Rule(
        "no-oracle-copies", TESTS,
        r"def (_divmod_fit|_divmod_rows|_ref_add|_ref_mul|_ref_divmod|_ref_compose"
        r"|_gamma_n_oracle|_eigenvalue_oracle|_y_low_order_oracle)\b",
        "a retired oracle copy is defined in tests/",
    ),
    # Weights are integrated on integers: phi and rho come from the integer weight core of
    # algebra.integrate_log_derivative, never through a RatFunc, and verify checks rho by its
    # Pearson residual on integers; RatFunc serves only aim.iterate and WeightExpr's fields ...
    Rule(
        "ratfunc-scope", LIBRARY, r"RatFunc",
        "RatFunc used outside src/aimnu/algebra.py and src/aimnu/aim.py", r"^src/aimnu/(algebra|aim)\.py:",
    ),
    # ... a weight has no log-derivative method: the tests state w'/w = p/sigma with sympy
    # (the word boundary skips integrate_log_derivative) ...
    Rule("no-log-derivative", LIBRARY, r"\blog_derivative\b", "log_derivative is back in src/aimnu/"),
    # ... partial_fractions stays a stand-alone decomposition that no library path calls ...
    Rule(
        "partial-fractions-uncalled", LIBRARY, r"partial_fractions\(",
        "partial_fractions called in src/aimnu/", r":def partial_fractions\(",
    ),
    # ... nu_find_k builds phi from the integers and sigma roots it already holds;
    # build_phi is the public route, and the only caller of integrate_log_derivative ...
    Rule("nu-no-build-phi", NU, r"build_phi\(", "build_phi called in src/aimnu/nu.py", r":def build_phi\("),
    Rule(
        "nu-one-integrate", NU, r"integrate_log_derivative\(",
        "integrate_log_derivative called in src/aimnu/nu.py outside build_phi", counts={"src/aimnu/nu.py": {0, 1}},
    ),
    # ... and algebra._weight alone decides when a weight exists; nu stores what it returns.
    Rule(
        "nu-no-irreducible", NU, r"\birreducible\b",
        "src/aimnu/nu.py names irreducible: _weight decides when phi exists",
    ),
    # One path per answer: poly_gcd is Euclid on Poly.__divmod__, with no loop of its own ...
    Rule("no-primitive", ALGEBRA, r"def _primitive\b", "_primitive is back in src/aimnu/algebra.py"),
    # ... nu_find_k finds sigma's roots once, on its integers; rational_roots keeps its own tests ...
    Rule(
        "rational-roots-in-algebra", LIBRARY, r"rational_roots\(",
        "rational_roots called outside src/aimnu/algebra.py", NOT_ALGEBRA,
    ),
    # ... the explicit forms are Rodrigues expanded, and Hulthen's terminating 2F1 is (-1)^n
    # times Rodrigues; y_low_order and the printed Hulthen forms stay as verify's references ...
    Rule(
        "eigenfunction-methods", CLI, r'click\.Choice\(\[[^]]*"(explicit|hypergeometric)"',
        '"explicit" or "hypergeometric" is an eigenfunction --method choice in src/aimnu/cli.py',
    ),
    Rule(
        "no-hulthen-route", SRC, r"hulthen_eigenfunction|PochhammerPole",
        "hulthen_eigenfunction or PochhammerPole is back in src/",
    ),
    # ... and every command, verify included, runs the AIM recursion through aim.determinants;
    # aim.iterate stays the tests' RatFunc oracle, called by no library path.
    Rule("iterate-uncalled", LIBRARY, r"\biterate\(", "aim.iterate called in src/aimnu/", r":def iterate\("),
    # verify fails a row, never skips a draw: seeded suites use each draw as drawn, so a refused
    # construction fails its suite; the only except clauses are _row's and run_suites'.
    Rule(
        "verify-no-skip", VERIFY, r"^\s*(except|continue)\b",
        "src/aimnu/verify.py skips a draw or catches an error outside _row and run_suites",
        r"except AimnuError as exc:",
    ),
    # Every refusal is an AimnuError, which cli._Main and verify._row catch; only the
    # immutability guards and the lazy module lookup raise AttributeError.
    Rule(
        "aimnu-errors-only", LIBRARY, rf"\braise\s+({BUILTIN_ERRORS})\b",
        "src/aimnu/ raises a builtin error class, not an aimnu.errors class",
        r'raise AttributeError\((f"module \{__name__!r\} has no attribute |"\w+ is immutable"\))',
    ),
]

#: For each rule, a file that breaks it on every line: one offending line, or
#: two calls for ``nu-one-integrate``, which allows one.  The oracle name is
#: split in two, so that this file trips none of its own rules.
SAMPLES = {
    "poly-store": ("src/aimnu/nu.py", "    top = p._nums[-1]"),
    "algebra-imports": ("src/aimnu/algebra.py", "from .rationals import MAX_DIGITS"),
    "one-isqrt": ("src/aimnu/nu.py", "def _isqrt_exact(n):"),
    "one-quadratic-roots": ("src/aimnu/nu.py", "def _quadratic_roots(a, b, c):"),
    "nu-integer-roots": ("src/aimnu/nu.py", "    u, v = root.numerator, root.denominator"),
    "one-json-dumps": ("src/aimnu/verify.py", "    print(json.dumps(rows))"),
    "one-csv-writer": ("src/aimnu/verify.py", "    out = csv.writer(sys.stdout)"),
    "no-format-rational": ("src/aimnu/sub/text.py", "from ..rationals import format_rational"),
    "no-oracle-copies": ("tests/test_algebra.py", "def _ref" "_add(p, q):"),
    "ratfunc-scope": ("src/aimnu/verify.py", "    rho = RatFunc(p, sigma)"),
    "no-log-derivative": ("src/aimnu/algebra.py", "    def log_derivative(self):"),
    "partial-fractions-uncalled": ("src/aimnu/algebra.py", "    terms = partial_fractions(num, den)"),
    "nu-no-build-phi": ("src/aimnu/nu.py", "        phi = build_phi(pi, sigma)"),
    "nu-one-integrate": ("src/aimnu/nu.py", "    return integrate_log_derivative(pi, sigma)\n" * 2),
    "nu-no-irreducible": ("src/aimnu/nu.py", "    irreducible = S[2] != 0"),
    "no-primitive": ("src/aimnu/algebra.py", "def _primitive(coeffs):"),
    "rational-roots-in-algebra": ("src/aimnu/nu.py", "    roots = rational_roots(sigma)"),
    "eigenfunction-methods": ("src/aimnu/cli.py", '    type=click.Choice(["recursion", "explicit"]),'),
    "no-hulthen-route": ("src/aimnu/eigenfunctions.py", "class PochhammerPole(ValueError):"),
    "iterate-uncalled": ("src/aimnu/verify.py", "    levels = aim.iterate(problem, energy, 8)"),
    "verify-no-skip": ("src/aimnu/verify.py", "            continue"),
    "aimnu-errors-only": ("src/aimnu/aim.py", '        raise ValueError("empty bracket")'),
}


def offences(rule: Rule, files: dict[str, str]) -> list[str]:
    """Every ``path:number: line`` of ``files`` (``{path: text}``) that breaks
    ``rule``: its hits in each file in scope, unless ``rule.counts`` allows
    that many there (a file short of its count reports ``path: n hits``)."""
    found = []
    for path, text in files.items():
        if not re.fullmatch(rule.scope, path):
            continue
        hits = [
            f"{path}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if re.search(rule.pattern, line) and not (rule.allowed and re.search(rule.allowed, f"{path}:{line}"))
        ]
        if len(hits) not in rule.counts.get(path, {0}):
            found += hits or [f"{path}: {len(hits)} hits"]
    return found


def tree(root: Path) -> dict[str, str]:
    """Every ``.py`` file under ``src/`` and in ``tests/``, as ``{path from root: text}``."""
    paths = [*root.glob("src/**/*.py"), *root.glob("tests/*.py")]
    return {path.relative_to(root).as_posix(): path.read_text() for path in paths}


@pytest.fixture(scope="module")
def source():
    return tree(ROOT)


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_rule_holds(rule, source):
    found = offences(rule, source)
    assert not found, f"{rule.message}: {found}"


@pytest.mark.parametrize("rule", RULES, ids=[rule.id for rule in RULES])
def test_rule_can_fail(rule):
    path, text = SAMPLES[rule.id]
    lines = text.splitlines()
    assert offences(rule, {path: text}) == [f"{path}:{n}: {line.strip()}" for n, line in enumerate(lines, 1)]


def test_one_sample_per_rule():
    assert [rule.id for rule in RULES] == list(SAMPLES)


def test_a_file_short_of_its_count_offends():
    rule = next(rule for rule in RULES if rule.id == "one-json-dumps")
    assert offences(rule, {"src/aimnu/cli.py": "import json\n"}) == ["src/aimnu/cli.py: 0 hits"]
