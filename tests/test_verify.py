"""Every `aimnu verify` row can fail.

Each mutant below breaks one route that a suite checks, by monkeypatching
the module attribute the suite calls.  The suite must then report the rows
that check that route as failed, without raising, and together a suite's
mutants must fail every one of its rows.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from aimnu import aim, eigenfunctions, hypergeometric, nu, verify
from aimnu.algebra import Poly, RatFunc

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
    # k + 1 with lambdaBar = k + pi' kept consistent, as a wrong root would give
    original = nu.nu_find_k
    monkeypatch.setattr(
        nu,
        "nu_find_k",
        lambda problem: [
            replace(c, k=c.k + 1, lambda_bar=c.lambda_bar + 1) for c in original(problem)
        ],
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


def test_every_row_has_a_failing_mutant():
    for key, suite in verify.SUITES.items():
        covered = {i for k, _, failing in MUTANTS if k == key for i in failing}
        assert covered == set(range(len(suite()))), key


def test_every_label_fits_the_verify_column():
    # `aimnu verify` pads each label to 64 characters, so a new row re-spaces no other line
    rows = verify.run_suites()
    assert all(row.ok for row in rows)
    assert max(len(f"[{row.suite}] {row.name}") for row in rows) <= 64
