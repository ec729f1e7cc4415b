"""Every `aimnu verify` row can fail, and compares independent routes.

Each mutant below breaks one route that a suite checks, by monkeypatching
the module attribute the suite calls.  The suite must then report the rows
that check that route as failed, without raising, and together a suite's
mutants must fail every one of its rows.  The two sides of every case run
under a profiler, and may share only the ``KERNEL`` functions.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from aimnu import aim, algebra, eigenfunctions, hypergeometric, nu, verify
from aimnu.algebra import Poly, RatFunc
from aimnu.errors import NoRationalReduction

R = Poly.variable()


def _shift_eigenvalue(monkeypatch):
    original = hypergeometric.eigenvalue
    monkeypatch.setattr(hypergeometric, "eigenvalue", lambda problem, n: original(problem, n) + 1)


def _shift_gamma_n(monkeypatch):
    original = hypergeometric.gamma_n
    monkeypatch.setattr(hypergeometric, "gamma_n", lambda tau, sigma, n: original(tau, sigma, n) + 1)


def _drop_a_root(monkeypatch):
    original = aim.solve_iterative
    monkeypatch.setattr(aim, "solve_iterative", lambda *args, **kwargs: original(*args, **kwargs)[1:])


def _determinants_at_shifted_e(monkeypatch):
    # delta_k(E + 1/2) at every level keeps the factors c(k) + E e(k) and moves
    # every root by -1/2: kratzer's bracket (1/5, 1) then holds no mode, and its
    # row fails on its own instead of raising out of the suite.  (A shift by 1
    # maps Hermite's spectrum E_n = n onto itself, so its row would still pass.)
    original = aim.determinants
    shift = Fraction(1, 2)
    monkeypatch.setattr(
        aim, "determinants", lambda *args: (delta.compose_linear(shift) for delta in original(*args))
    )


def _recursion_times_r(monkeypatch):
    original = eigenfunctions.polynomial_solution

    def times_r(*args):
        solution = original(*args)
        return replace(solution, poly=solution.poly * R)

    monkeypatch.setattr(eigenfunctions, "polynomial_solution", times_r)


def _rodrigues_times_r(monkeypatch):
    original = eigenfunctions.rodrigues
    monkeypatch.setattr(eigenfunctions, "rodrigues", lambda *args: original(*args) * R)


def _pearson_exp_plus_r(monkeypatch):
    # rho times exp(r): its log-derivative is off by 1 from (tau - sigma')/sigma
    original = eigenfunctions.integrate_log_derivative

    def plus_r(*args):
        weight = original(*args)
        return replace(weight, exp_arg=weight.exp_arg + RatFunc(R))

    monkeypatch.setattr(eigenfunctions, "integrate_log_derivative", plus_r)


def _shift_k(monkeypatch):
    # k + 1 with lambdaBar = k + pi' kept consistent, as a wrong root would give; every
    # record of nu_find_k and nu_solve comes from the one builder
    original = nu._build
    monkeypatch.setattr(
        nu,
        "_build",
        lambda *args: [replace(c, k=c.k + 1, lambda_bar=c.lambda_bar + 1) for c in original(*args)],
    )


#: (suite key, mutant, indices of the rows it must fail); every other row passes.
MUTANTS = [
    ("table1", _shift_eigenvalue, range(17)),
    ("gamma", _shift_gamma_n, [0]),
    ("morse", _shift_eigenvalue, [0, 1]),
    ("morse", _drop_a_root, [1]),
    ("morse", _determinants_at_shifted_e, [1]),
    ("hulthen", _shift_eigenvalue, [0]),
    ("hulthen", _rodrigues_times_r, [1, 2]),
    ("hulthen", _recursion_times_r, [2]),
    ("kratzer", _shift_eigenvalue, [0, 1]),
    ("kratzer", _recursion_times_r, [1]),
    ("eigenfunctions", _rodrigues_times_r, range(9)),
    ("eigenfunctions", _recursion_times_r, range(9)),
    ("eigenfunctions", _pearson_exp_plus_r, range(9)),
    ("nu", _shift_k, [0, 1, 2]),
    ("delta", _determinants_at_shifted_e, [0, 1]),
    ("aim", _drop_a_root, [0, 1, 2, 3]),
    ("aim", _shift_eigenvalue, [0, 1, 2, 3]),
    ("aim", _determinants_at_shifted_e, [0, 1, 2, 3]),
]


@pytest.mark.parametrize(
    "key, mutant, failing", MUTANTS, ids=[f"{key}-{m.__name__[1:]}" for key, m, _ in MUTANTS]
)
def test_mutant_fails_its_rows(monkeypatch, key, mutant, failing):
    mutant(monkeypatch)
    rows = verify.SUITES[key]()  # a suite that raised would fail this test
    assert [i for i, row in enumerate(rows) if not row.ok] == list(failing)


def test_pearson_mutant_names_the_residual(monkeypatch):
    # pearson_weight returns the wrong weight unchecked; the suite's own
    # comparison is the one that fails
    _pearson_exp_plus_r(monkeypatch)
    assert {row.detail for row in verify.suite_eigenfunctions()} == {"Pearson residual nonzero"}


def test_raising_solver_fails_its_row_alone(monkeypatch):
    # at E + 1/2 kratzer's bracket (1/5, 1) holds no mode: that row names the
    # error, and the suite's other rows are still checked one by one
    _determinants_at_shifted_e(monkeypatch)
    rows = verify.run_suites("aim")
    names = ["morse", "hulthen", "kratzer", "hermite"]
    assert [row.name for row in rows] == [f"iterative agrees with closed form: {n}" for n in names]
    assert [row.detail.startswith("raised") for row in rows] == [False, False, True, False]
    assert rows[2].detail == "raised NoRootInBracket: no mode in (1/5, 1)"
    assert not any(row.ok for row in rows)


def test_refused_construction_fails_the_nu_suite(monkeypatch):
    # nu_find_k refuses every construction whose common denominator m is a multiple
    # of 3: the suite draws no replacement, and the refusal fails verify
    original = nu.nu_find_k

    def refuse(problem):
        if algebra.cleared(problem.tau_tilde, problem.sigma, problem.sigma_tilde)[1] % 3 == 0:
            raise NoRationalReduction("refused")
        return original(problem)

    monkeypatch.setattr(nu, "nu_find_k", refuse)
    rows = verify.run_suites("nu")
    assert [(row.ok, row.name) for row in rows] == [(False, "raised NoRationalReduction: refused")]


def test_mode_minus_one_fails_its_row(monkeypatch):
    # a side that asks for mode n - 1 reaches n = -1 at once: OutOfRange is an
    # aimnu error, so the residual row fails and the spectrum row still passes
    original = verify._residual
    monkeypatch.setattr(verify, "_residual", lambda problem, n: original(problem, n - 1))
    rows = verify.run_suites("kratzer")
    assert [(row.ok, row.detail) for row in rows] == [(True, ""), (False, "raised OutOfRange: n must be non-negative")]


def test_every_row_has_a_failing_mutant():
    for key, suite in verify.SUITES.items():
        covered = {i for k, _, failing in MUTANTS if k == key for i in failing}
        assert covered == set(range(len(suite()))), key


def test_every_label_fits_the_verify_column():
    # `aimnu verify` pads each label to 64 characters, so a new row re-spaces no other line
    rows = verify.run_suites()
    assert all(row.ok for row in rows)
    assert max(len(f"[{row.suite}] {row.name}") for row in rows) <= 64


#: What the two sides of one case may both run: building Polys and clearing denominators.
KERNEL = (
    Poly.__init__,
    Poly._store,
    Poly.degree.fget,
    algebra._poly,
    algebra._dot,
    algebra._derivative,
    algebra.cleared,
    eigenfunctions._cleared,
)


def _calls(side):
    """The code objects of the aimnu functions outside verify.py that side() runs."""
    package, seen = Path(verify.__file__).parent, set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name not in ("<listcomp>", "<genexpr>"):
            path = Path(code.co_filename)
            if path.parent == package and path.name != "verify.py":
                seen.add(code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side()
    finally:
        sys.setprofile(previous)
    return seen


def test_sides_share_only_the_kernel(monkeypatch):
    # each case's two routes run under a profiler: a function both call, beyond
    # building Polys and clearing denominators, makes the comparison circular
    kernel = {f.__code__ for f in KERNEL}
    checked, shared = set(), set()

    def profiled_row(suite, name, cases):
        for what, left, right, same in cases:
            checked.add((suite, name))
            for code in (_calls(left) & _calls(right)) - kernel:
                label = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
                shared.add(f"[{suite}] {name}: {Path(code.co_filename).stem}.{label}")
        return verify.CheckResult(suite, name, True)

    monkeypatch.setattr(verify, "_row", profiled_row)
    assert len(verify.run_suites()) == len(checked) == 43  # every row has a case
    assert not shared, sorted(shared)
