from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import aimnu.aim as aim_module
import aimnu.hypergeometric as hypergeometric_module
from aimnu.aim import MAX_MODES, determinants, iterate, solve_iterative
from aimnu.algebra import Affine, Poly, RatFunc
from aimnu.catalog import CATALOG, catalog_get, expected_eigenvalue
from aimnu.errors import (
    DegenerateParameterMap,
    EvaluationPole,
    IncompleteSpectrum,
    InputError,
    NoRootInBracket,
    NotHypergeometricType,
    OutOfRange,
)
from aimnu.hypergeometric import HypergeometricProblem, eigenvalue, gamma_n, validate

R = Poly.variable()


HERMITE = catalog_get("hermite")  # lambda0 = 2r, s0 = -2E
GEGENBAUER_K2 = catalog_get("gegenbauer", {"k": F(-2)})  # E_n = n(n - 4), not monotone in n


class TestRecursion:
    def test_iterate_starts_at_delta_0(self):
        for kappa in (F(-1), F(0), F(5, 3)):
            delta_0 = RatFunc(HERMITE.gamma.substitute(kappa), HERMITE.sigma)  # -s0
            assert iterate(HERMITE, kappa, 0) == [delta_0] == [RatFunc(2 * kappa)]

    def test_first_two_levels_from_lambda0_and_s0(self):
        # lambda0 = -tau/sigma, s0 = -gamma/sigma and delta_1 = lambda0' s0 + s0^2 - lambda0 s0'
        problem = catalog_get("morse")  # alpha=1, beta=5/2
        lam0 = RatFunc(Poly([-5, 5]), Poly([0, 1]))  # -(tau_const + 2 eps)/sigma at eps = 2
        s0 = RatFunc(-problem.gamma.substitute(F(2)), problem.sigma)
        delta_1 = lam0.derivative() * s0 + s0 * s0 - lam0 * s0.derivative()
        assert iterate(problem, F(2), 1) == [-s0, delta_1]

    def test_iterate_rejects_negative_k(self):
        with pytest.raises(OutOfRange, match="k must be >= 0"):
            iterate(HERMITE, F(1), -1)


class TestDelta:
    def test_delta1_hermite_closed_form(self):
        for kappa in (F(-1), F(0), F(1, 2), F(1), F(5, 3)):
            expected = [RatFunc(2 * kappa), RatFunc(4 * kappa * (kappa - 1))]
            assert iterate(HERMITE, kappa, 1) == expected

    def test_delta_vanishes_at_integer_modes(self):
        # E = n is a root of delta_k exactly from level k = n on; sigma = 1, so each den is 1
        for n in range(4):
            deltas = iterate(HERMITE, F(n), 6)
            assert [d.num.evaluate(F(1)) == 0 for d in deltas] == [k >= n for k in range(7)]

    def test_delta_nonzero_off_spectrum(self):
        assert all(d.num.evaluate(F(1)) != 0 for d in iterate(HERMITE, F(1, 2), 3))


class TestSolveIterative:
    def test_hermite_bracket(self):
        problem = catalog_get("hermite")
        estimates = solve_iterative(problem, F(1), (F(-1, 2), F(3, 2)))
        assert [(e.n, e.value, e.converged) for e in estimates] == [(0, 0, True), (1, 1, True)]

    def test_morse_single_root(self):
        problem = catalog_get("morse")  # alpha=1, beta=5/2; eigenvalues 2, 1, 0, ...
        estimates = solve_iterative(problem, F(1), (F(3, 2), F(5, 2)))
        assert [(e.n, e.value, e.converged) for e in estimates] == [(0, 2, True)]

    def test_no_root_in_bracket(self):
        problem = catalog_get("morse")
        with pytest.raises(NoRootInBracket, match=r"^no mode in \(10, 11\)$"):
            solve_iterative(problem, F(1), (F(10), F(11)))

    def test_pole_at_evaluation_point(self):
        problem = catalog_get("morse")  # sigma = r vanishes at 0
        with pytest.raises(EvaluationPole):
            solve_iterative(problem, F(0), (F(0), F(4)))

    def test_representation_invariance(self):
        # scaling sigma, tau and gamma together must not move any root of
        # the quantization determinant
        problem = catalog_get("morse")
        tau, gamma = problem.tau, problem.gamma
        scaled = HypergeometricProblem(
            Affine(tau.const * 3, tau.slope * 3),
            problem.sigma * 3,
            Affine(gamma.const * 3, gamma.slope * 3),
        )
        a = solve_iterative(problem, F(1), (F(0), F(4)))
        b = solve_iterative(scaled, F(1), (F(0), F(4)))
        assert [e.value for e in a] == [e.value for e in b]

    def test_input_validation(self):
        problem = catalog_get("hermite")
        for bracket in [(F(1), F(0)), (F(1), F(1))]:  # reversed, and one point
            with pytest.raises(InputError, match="empty bracket"):
                solve_iterative(problem, F(1), bracket)

    def test_agrees_with_closed_form(self):
        problem = catalog_get("kratzer")
        estimates = solve_iterative(problem, F(1), (F(1, 5), F(1)))
        closed = {eigenvalue(problem, n) for n in range(4)}
        targets = sorted(v for v in closed if F(1, 5) < v < F(1))
        assert targets
        assert [e.value for e in estimates] == targets and all(e.converged for e in estimates)


def _solve_watching_r0(monkeypatch, problem, bracket):
    """``solve_iterative`` without r0, and the points it passes to ``determinants``."""
    seen = []

    def spy(record, point):
        seen.append(point)
        return determinants(record, point)

    monkeypatch.setattr(aim_module, "determinants", spy)
    return solve_iterative(problem, None, bracket), seen


class TestDerivedEvaluationPoint:
    """Without r0 the solver takes the first of 1, 1/2, 1/3, ... that is no
    pole; for hypergeometric input no choice of r0 moves a root."""

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_same_result_as_at_a_fixed_point(self, name):
        # r0 = 2/5 is a root of no catalog sigma
        values = [expected_eigenvalue(name, None, n) for n in range(4)]
        pad = (max(values) - min(values)) / 8
        bracket = (min(values) - pad, max(values) + pad)
        problem = catalog_get(name)
        derived = solve_iterative(problem, None, bracket)
        fixed = solve_iterative(problem, F(2, 5), bracket)
        assert derived == fixed

    @pytest.mark.parametrize(
        "problem, bracket, r0",
        [
            (catalog_get("legendre"), (F(-1, 2), F(13)), F(1, 2)),  # sigma = r^2 - 1
            # sigma = (r - 1)(2r - 1); spectrum E_n = 2n(n + 1)
            (validate(Poly([0, 4]), Poly([1, -3, 2]), (0, -1), "E"), (F(-1), F(25)), F(1, 3)),
        ],
        ids=["legendre", "sigma-roots-1-and-half"],
    )
    def test_point_avoids_poles(self, monkeypatch, problem, bracket, r0):
        estimates, seen = _solve_watching_r0(monkeypatch, problem, bracket)
        assert seen == [r0]
        assert all(e.converged for e in estimates)
        assert [e.value for e in estimates] == [eigenvalue(problem, n) for n in range(4)]

    def test_zero_denominator_is_a_pole(self):
        # the candidates the derived point skips are zeros of sigma; passed as r0 each is a pole
        problem = validate(Poly([0, 4]), Poly([1, -3, 2]), (0, -1), "E")
        for r0 in (F(1), F(1, 2)):
            with pytest.raises(EvaluationPole):
                solve_iterative(problem, r0, (F(-1), F(25)))
        # sigma = 0 vanishes at every point: the record is refused before any is chosen
        with pytest.raises(NotHypergeometricType):
            HypergeometricProblem(Affine(R, Poly()), Poly(), Affine(Poly(), R))


def _solve(name, r0, bracket):
    return solve_iterative(catalog_get(name), r0, bracket)


class TestCertifiedBrackets:
    """Brackets where the former grid scan lost roots; every root is exact."""

    @pytest.mark.parametrize(
        "name, r0, bracket, expected",
        [
            ("legendre", F(1, 3), (F(-1, 2), F(60)), [0, 2, 6, 12, 20, 30, 42, 56]),
            ("kratzer", F(1), (F(1, 50), F(1)), [F(1, 2 * (n + 1)) for n in range(23, -1, -1)]),
            ("hermite", F(1), (F(-1, 2), F(21, 2)), list(range(11))),
            ("hermite", F(1), (F(0), F(3)), [1, 2]),  # roots at both ends are outside
        ],
    )
    def test_exact_spectrum(self, name, r0, bracket, expected):
        estimates = _solve(name, r0, bracket)
        assert [e.value for e in estimates] == expected
        assert all(type(e.value) is F for e in estimates)
        assert all(e.converged for e in estimates)
        assert all(expected_eigenvalue(name, None, e.n) == e.value for e in estimates)

    @pytest.mark.parametrize(
        "problem, bracket, expected",
        [
            # sigma = 1 - r^2, tau = 13r/2, gamma = E: E_n = n^2 - 15n/2, and the
            # bracket holds E_1 = -13/2 and E_7 = -7/2
            (
                validate(Poly([0, F(13, 2)]), Poly([1, 0, -1]), (0, 1), "E"),
                (F(-7), F(-3)),
                [(1, F(-13, 2)), (7, F(-7, 2))],
            ),
            # E_n = n(n - 7/2) is 0, -5/2, -3, -3/2, 2 for n <= 4, and the bracket
            # holds E_0 = 0 and E_4 = 2
            (catalog_get("jacobi", {"alpha": F(-9, 2), "beta": F(0)}), (F(-1), F(3)), [(0, 0), (4, 2)]),
            # gegenbauer at k = -2: E_n = n(n - 4) gives E_1 = E_3 = -3 and E_0 = E_4 = 0, and
            # the minimum E_2 = -4 lies on the open end of the first bracket
            (GEGENBAUER_K2, (F(-4), F(10)), [(1, -3), (3, -3), (0, 0), (4, 0), (5, 5)]),
            (GEGENBAUER_K2, (F(-7, 2), F(10)), [(1, -3), (3, -3), (0, 0), (4, 0), (5, 5)]),
            (GEGENBAUER_K2, (F(-3), F(1)), [(0, 0), (4, 0)]),
        ],
        ids=["nonmono", "jacobi-alpha-minus-9/2", "gegenbauer-k-2-wide", "gegenbauer-k-2-inner", "gegenbauer-k-2-low"],
    )
    def test_nonmonotone_spectrum_is_complete(self, problem, bracket, expected):
        estimates = solve_iterative(problem, None, bracket)
        assert [(e.n, e.value) for e in estimates] == expected
        assert all(e.converged for e in estimates)

    def test_degenerate_modes_give_one_row_each(self):
        # sigma = 1 - r^2, tau = 6r, gamma = E: E_n = n(n - 7), so E_n = E_(7-n)
        problem = validate(Poly([0, 6]), Poly([1, 0, -1]), (0, 1), "E")
        estimates = solve_iterative(problem, None, (F(-11), F(1)))
        rows = [(2, -10), (5, -10), (1, -6), (6, -6), (0, 0), (7, 0)]
        assert [(e.n, e.value) for e in estimates] == rows

    @pytest.mark.parametrize("bracket", [(F(0), F(5)), (F(100), F(200))])
    def test_mode_whose_factor_vanishes_fails_loudly(self, bracket):
        # sigma = 1, tau = (E - 2) r, gamma = 6 - 3E: mu_3 = 6 - 3E + 3(E - 2) = 0, so
        # delta_k = 0 for every E from k = 3 on, whatever the bracket
        problem = validate(Affine(Poly([0, -2]), Poly([0, 1])), Poly.const(1), (6, -3), "E")
        deltas = [d for _, d in zip(range(6), determinants(problem, F(1)))]
        assert [d.is_zero for d in deltas] == [False] * 3 + [True] * 3
        with pytest.raises(NoRootInBracket, match="^delta_3 vanishes for every trial value$"):
            solve_iterative(problem, None, bracket)

    @pytest.mark.parametrize(
        "name, bracket, message",
        [
            # E_n = 1/(2(n + 1)) accumulates at 0
            ("kratzer", (F(0), F(1)), r"^the bracket \(0, 1\) holds infinitely many modes$"),
            (
                "hermite",
                (F(-1, 2), F(2 * MAX_MODES + 1, 2)),
                rf"holds {MAX_MODES + 1} modes, over {MAX_MODES}$",
            ),
        ],
        ids=["infinite", "above-the-cap"],
    )
    def test_too_many_modes_raise(self, name, bracket, message):
        with pytest.raises(IncompleteSpectrum, match=message):
            solve_iterative(catalog_get(name), None, bracket)

    @pytest.mark.parametrize(
        "change",
        [lambda d: d * Poly([1, 1]), lambda d: d * 2, lambda d: d + 1, lambda d: Poly([1])],
        ids=["quadratic-quotient", "uneven-slopes", "remainder", "lower-degree"],
    )
    def test_levels_that_fit_no_factors_fail_loudly(self, monkeypatch, change):
        # delta_2 times 1 + E leaves delta_2/delta_1 quadratic in E; times 2 it gives the
        # slopes e(0), e(1), e(2) = 2, 2, 4, not linear in k; plus 1 leaves a remainder;
        # and 1 in its place has a lower degree than delta_1
        def mutant(*args):
            for k, delta in enumerate(determinants(*args)):
                yield change(delta) if k == 2 else delta

        monkeypatch.setattr(aim_module, "determinants", mutant)
        with pytest.raises(IncompleteSpectrum, match="^delta_0, delta_1 and delta_2 do not fit"):
            solve_iterative(HERMITE, None, (F(-1, 2), F(21, 2)))

    def test_as_many_modes_as_the_cap(self):
        estimates = solve_iterative(catalog_get("hermite"), None, (F(-1, 2), F(2 * MAX_MODES - 1, 2)))
        assert [(e.n, e.value) for e in estimates] == [(n, n) for n in range(MAX_MODES)]


def _deltas_at(problem, energy, k_max, r0=F(1)):
    """[delta_k(r0) for k = 0..k_max] at one energy, from the RatFunc rows."""
    return [delta.num.evaluate(r0) / delta.den.evaluate(r0) for delta in iterate(problem, energy, k_max)]


#: sigma = (r - 1)(r - 2), tau = -1 - 2r + E r and gamma = 1/8 - E: at the
#: non-integer r0 = 3/2 sigma is -1/4 + x^2 in x = r - r0, so D = -2 + 8x^2:
#: D(0) < 0, and D has a content of 2 that only the whole triple (D, L, S) lacks.
_NEGATIVE_DEN = HypergeometricProblem(
    Affine(Poly([-1, -2]), Poly([0, 1])), Poly([2, -3, 1]), Affine(F(1, 8), F(-1)), "E"
)

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
affine = st.lists(small, min_size=1, max_size=2).map(Poly)


def _check_against_oracle(problem, r0, k_max, energies=(F(0), F(1, 3), F(-2), F(5, 7), F(9, 4))):
    deltas = [delta for _, delta in zip(range(k_max + 1), determinants(problem, r0))]
    for energy in energies:
        assert [d.evaluate(energy) for d in deltas] == _deltas_at(problem, energy, k_max, r0)


@st.composite
def hypergeometric_problems(draw):
    """sigma y'' + tau y' + gamma y = 0 with tau affine in E, deg sigma <= 2,
    gamma affine and a point r0 off the roots of sigma."""
    sigma = draw(st.lists(small, min_size=1, max_size=3).map(Poly).filter(lambda p: not p.is_zero))
    tau = Affine(draw(affine), draw(affine))
    gamma = (draw(small), draw(small))
    assume(gamma[1] or tau.slope.coeff(1))
    r0 = draw(small.filter(lambda x: sigma.evaluate(x) != 0))
    return validate(tau, sigma, gamma, "E"), r0


def _mu(problem, count):
    """[mu_0, ..., mu_{count-1}] as Polys in E, mu_n(E) = gamma(E) - gamma_n(tau(E))
    built from gamma_n, never from AIM data; gamma_n is affine in tau, so its
    values at tau_c and tau_c + tau_s fix it."""
    tau, sigma, gamma = problem.tau, problem.sigma, problem.gamma
    mu = []
    for n in range(count):
        at0, at1 = gamma_n(tau.const, sigma, n), gamma_n(tau.const + tau.slope, sigma, n)
        mu.append(Poly([gamma.const - at0, gamma.slope - (at1 - at0)]))
    return mu


def _multiplies_back(levels, c, e):
    """delta_(k-1) (c(k) + E e(k)) = q delta_k for k = 0, 1, 2, with delta_(-1) = 1 and
    one q > 0: the fit (c, e) of ``aim._fit`` checked by multiplication alone."""
    factors = [Poly([(c[2] * k + c[1]) * k + c[0], (e[2] * k + e[1]) * k + e[0]]) for k in range(3)]
    products = [last * f for last, f in zip([Poly.const(1), *levels], factors)]
    q = products[0].coeff(levels[0].degree) / levels[0].leading
    return q > 0 and all(p == q * d for p, d in zip(products, levels))


def _check_product_formula(problem, r0, mu):
    """delta_k(r0) = sigma(r0)^-(k+1) prod_{n<=k} mu_n(E) for every k < len(mu)."""
    scale, product = 1 / problem.sigma.evaluate(r0), Poly.const(1)
    for k, delta in zip(range(len(mu)), determinants(problem, r0)):
        product = product * mu[k] * scale
        assert delta == product


class TestDeterminants:
    @pytest.mark.parametrize(
        "name, r0",
        [
            ("hermite", F(1)),
            ("kratzer", F(1)),
            ("morse", F(1)),
            ("hulthen", F(1, 2)),
            ("legendre", F(1, 3)),  # D(0) = -8, so D(0)^(2k+1) < 0
        ],
    )
    def test_matches_rational_function_recursion(self, name, r0):
        _check_against_oracle(catalog_get(name), r0, 6)

    def test_negative_denominator_at_non_integer_r0(self):
        assert aim_module._numerators(_NEGATIVE_DEN, F(3, 2))[0] == [-2, 0, 8]
        _check_against_oracle(_NEGATIVE_DEN, F(3, 2), 6)

    @settings(max_examples=10, deadline=None)
    @given(hypergeometric_problems())
    def test_matches_recursion_on_random_problems(self, case):
        _check_against_oracle(*case, 5)

    @settings(max_examples=40, deadline=None)
    @given(hypergeometric_problems())
    @example((validate(Affine(Poly(), R), Poly.const(1), (0, -1), "E"), F(0)))  # delta_1 = 0
    # gamma = 3 free of E, tau = (E - 2) r: delta_0 and its quotient have degree 0 in E
    @example((validate(Affine(Poly([0, -2]), Poly([0, 1])), Poly.const(1), (3, 0), "E"), F(1)))
    @example((_NEGATIVE_DEN, F(3, 2)))  # D(0) < 0
    def test_each_level_divides_the_next(self, case):
        # delta_k = (mu_k / sigma(r0)) delta_{k-1}, mu_k affine in E with root E_k, and
        # the factors that _fit reads off the first three levels multiply back
        problem, r0 = case
        deltas = [d for _, d in zip(range(8), determinants(problem, r0))]
        assume(not deltas[0].is_zero)
        if not any(d.is_zero for d in deltas[1:3]):
            assert _multiplies_back(deltas[:3], *aim_module._fit(deltas[:3]))
        for k, (last, delta) in enumerate(zip(deltas, deltas[1:]), start=1):
            if last.is_zero:  # mu_(k-1) = 0 identically, as mu_1 in the example
                assert delta.is_zero
                continue
            quo, rem = divmod(delta, last)
            assert rem.is_zero and quo.degree <= 1
            if quo.degree == 1:
                assert -quo.coeff(0) / quo.coeff(1) == eigenvalue(problem, k)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_catalog_levels_are_the_product_formula(self, name):
        problem = catalog_get(name)
        for r0 in (F(2, 5), F(-7, 3)):  # roots of no catalog sigma
            _check_product_formula(problem, r0, _mu(problem, 13))

    @settings(max_examples=100, deadline=None)
    @given(hypergeometric_problems(), st.sampled_from([F(0), F(2, 3), F(-5, 2)]))
    def test_oracle_is_the_product_formula(self, case, energy):
        # delta_k = sigma^-(k+1) prod_{n<=k} mu_n(E) as a rational function of r,
        # mu_n = gamma + n tau' + n(n-1) sigma_2 with sigma_2 the r^2 coefficient
        problem, _ = case
        gamma, slope = problem.gamma.substitute(energy), problem.tau.substitute(energy).coeff(1)
        mu = [gamma + n * slope + n * (n - 1) * problem.sigma.coeff(2) for n in range(4)]
        for k, delta in enumerate(iterate(problem, energy, 3)):
            assert delta == RatFunc(Poly.const(prod(mu[: k + 1])), problem.sigma ** (k + 1))


def _check_deep_levels(problem, r0, bracket):
    """``solve_iterative`` on the bracket, checked against the product formula
    on every level up to its deepest mode K: the pairs (n, E_n) it returns are
    the roots of mu_n, n <= K, that lie inside the bracket."""
    estimates = solve_iterative(problem, r0, bracket)
    mu = _mu(problem, max(e.n for e in estimates) + 1)
    _check_product_formula(problem, r0, mu)
    roots = [(n, -m.coeff(0) / m.coeff(1)) for n, m in enumerate(mu) if m.degree == 1]
    inside = [(n, x) for n, x in roots if bracket[0] < x < bracket[1]]
    assert sorted((e.n, e.value) for e in estimates) == inside
    assert all(e.converged for e in estimates)
    return estimates


def _watch_levels(monkeypatch):
    """The list of levels that ``determinants`` yields to the solver from now on."""
    drawn = []

    def spy(*args):
        for delta in determinants(*args):
            drawn.append(delta)
            yield delta

    monkeypatch.setattr(aim_module, "determinants", spy)
    return drawn


#: (catalog entry, r0, bracket): the five brackets of the golden files.
GOLDEN_BRACKETS = [
    ("hermite", F(1), (F(-1, 2), F(21, 2))),
    ("legendre", F(1, 3), (F(-1, 2), F(60))),
    ("kratzer", F(1), (F(1, 50), F(1))),
    ("morse", F(1), (F(0), F(4))),
    ("hulthen", F(1, 2), (F(0), F(3))),
]


def _check_rows(problem, r0, bracket, mu):
    """The rows of ``solve_iterative`` against mu(n) = (a, b), mu_n = a + b E up to a
    nonzero scale: every mode n < 1000 whose root lies in the bracket, or a raise that
    mu confirms; rows n >= 1000 are checked one by one."""
    (lo, hi), expected, vanishing = bracket, [], None
    for n in range(1000):
        a, b = mu(n)
        if not b:
            if vanishing is None and not a:
                vanishing = n
        elif lo < F(-a, b) < hi:
            expected.append((F(-a, b), n))
    try:
        estimates = solve_iterative(problem, r0, (lo, hi))
    except NoRootInBracket as exc:
        if vanishing is None:
            assert str(exc) == f"no mode in ({lo}, {hi})" and not expected
        else:
            assert str(exc) == f"delta_{max(vanishing, 1)} vanishes for every trial value"
        return
    except IncompleteSpectrum as exc:
        assert vanishing is None and "infinitely many" in str(exc)
        assert all(b and lo < F(-a, b) < hi for a, b in map(mu, (10**6, 10**6 + 1, 10**9)))
        return
    assert vanishing is None
    rows = [(e.value, e.n) for e in estimates]
    assert rows == sorted(rows) and [row for row in rows if row[1] < 1000] == sorted(expected)
    for v, n in rows:
        a, b = mu(n)
        assert lo < v < hi and a + v * b == 0
    assert all(e.converged for e in estimates)


class TestLevelRoots:
    """The solver reads every mode off delta_0..delta_2; what it returns are
    the roots of the deep levels, which the product formula gives."""

    def test_reads_three_levels_and_no_closed_form(self, monkeypatch):
        # c and e come from delta_0..delta_2 alone: no deeper level, and none
        # of the closed-form route that verify compares with
        drawn = _watch_levels(monkeypatch)

        def forbidden(*args):
            raise AssertionError("the solver reached the closed-form route")

        for name in ("eigenvalue", "gamma_n"):
            monkeypatch.setattr(hypergeometric_module, name, forbidden)
        for name, r0, bracket in [*GOLDEN_BRACKETS, ("kratzer", None, (F(1, 150), F(1)))]:
            drawn.clear()
            assert solve_iterative(catalog_get(name), r0, bracket)
            assert len(drawn) == 3

    @pytest.mark.parametrize("name, r0, bracket", GOLDEN_BRACKETS)
    def test_every_level_matches_full_isolation(self, name, r0, bracket):
        # up to the deepest mode K returned, delta_k is the product formula and
        # the modes n <= K are exactly the roots of mu_0..mu_K in the bracket
        _check_deep_levels(catalog_get(name), r0, bracket)

    def test_deepest_level_of_a_wide_bracket(self):
        # kratzer's bracket 1/150:1 holds the 74 modes n <= 73
        estimates = _check_deep_levels(catalog_get("kratzer"), F(1), (F(1, 150), F(1)))
        assert sorted(e.n for e in estimates) == list(range(74))

    @settings(max_examples=100, deadline=None)
    @given(
        hypergeometric_problems(),
        st.tuples(small, small, st.integers(1, 20)).filter(lambda t: t[0] != t[1]),
    )
    # gamma = 3 free of E, tau = (E - 2) r: delta_0 and its quotient have degree 0 in E
    @example(
        (validate(Affine(Poly([0, -2]), Poly([0, 1])), Poly.const(1), (3, 0), "E"), F(1)),
        (F(-1), F(1), 5),
    )
    @example((_NEGATIVE_DEN, F(3, 2)), (F(-5), F(5), 20))  # D(0) < 0
    @example((catalog_get("kratzer"), F(1)), (F(1, 5), F(1), 1))  # descending in n
    def test_matches_the_closed_form_enumeration(self, case, draw):
        # the enumeration of eigenvalue() is this test's oracle, never the solver's;
        # E_n = n/12 lies in (0, 84) up to n = 1007
        problem, r0 = case

        def mu(n):
            try:
                return -eigenvalue(problem, n), 1
            except DegenerateParameterMap:  # mu_n is constant in E: zero or never zero
                return gamma_n(problem.tau.const, problem.sigma, n) - problem.gamma.const, 0

        _check_rows(problem, r0, sorted(x * draw[2] for x in draw[:2]), mu)


#: sigma = 1 - r^2, tau = 6r, gamma = E: E_n = n(n - 7), so E_n = E_(7-n).
_DEGENERATE = validate(Poly([0, 6]), Poly([1, 0, -1]), (0, 1), "E")


def _quotients(levels):
    """delta_k / delta_(k-1), k = 0, 1, 2, with delta_(-1) = 1, by Poly division; None
    where one leaves a remainder, is not affine in E or has slopes not linear in k."""
    quotients = []
    for last, delta in zip([Poly.const(1), *levels], levels):
        quo, rem = divmod(delta, last)
        if not rem.is_zero or quo.degree > 1:
            return None
        quotients.append(quo)
    e0, e1, e2 = (q.coeff(1) for q in quotients)
    return quotients if e2 - e1 == e1 - e0 else None


class TestIntegerFit:
    """``_fit`` reads the factors c(k) + E e(k) off the levels' integer numerators;
    Poly division of each level by the one before states the same factors, every fit
    it returns multiplies back, and ``TestCertifiedBrackets`` holds its refusals."""

    @settings(max_examples=150, deadline=None)
    @given(
        hypergeometric_problems(),
        st.tuples(small, small, st.integers(1, 20)).filter(lambda t: t[0] != t[1]),
    )
    # gamma = 3 free of E, tau = (E - 2) r: delta_0 and its quotient have degree 0 in E
    @example(
        (validate(Affine(Poly([0, -2]), Poly([0, 1])), Poly.const(1), (3, 0), "E"), F(1)),
        (F(-1), F(1), 5),
    )
    @example((_NEGATIVE_DEN, F(3, 2)), (F(-5), F(5), 20))  # D(0) < 0
    @example((catalog_get("kratzer"), F(1)), (F(1, 5), F(1), 1))  # descending in n
    def test_matches_the_division_route(self, case, draw):
        # _fit returns m times the quotients delta_k / delta_(k-1), m > 0, or refuses where
        # they fit no factors; the rows are the roots of c(n) + E e(n), the quotients
        # carried to k = n
        problem, r0 = case
        lo, hi = sorted(x * draw[2] for x in draw[:2])
        levels = [d for _, d in zip(range(3), determinants(problem, r0))]
        for k in (1, 2):  # delta_0 = 0 makes delta_1 = 0
            if levels[k].is_zero:
                with pytest.raises(NoRootInBracket, match=f"^delta_{k} vanishes for every"):
                    solve_iterative(problem, r0, (lo, hi))
                return
        quotients = _quotients(levels)
        if quotients is None:
            with pytest.raises(IncompleteSpectrum, match="^delta_0, delta_1 and delta_2 do not fit"):
                aim_module._fit(levels)
            return
        c, e = aim_module._fit(levels)
        factor = lambda n: ((c[2] * n + c[1]) * n + c[0], e[1] * n + e[0])  # c(n) + E e(n)
        m = F(factor(0)[quotients[0].degree], quotients[0].leading)
        assert e[2] == 0 and m > 0 and [Poly(factor(k)) for k in range(3)] == [m * q for q in quotients]
        _check_rows(problem, r0, (lo, hi), factor)

    def test_ties_before_a_run_keep_ascending_n(self):
        # E_6 = E_1 = -6: _modes gives the cut-point single 6 before the run 1..2
        levels = [d for _, d in zip(range(3), determinants(_DEGENERATE, F(1, 2)))]
        assert aim_module._modes(*aim_module._fit(levels), F(-12), F(-5)) == [6, 1, 2, 5]
        estimates = solve_iterative(_DEGENERATE, F(1, 2), (F(-12), F(-5)))
        assert [(e.value, e.n) for e in estimates] == [(-10, 2), (-10, 5), (-6, 1), (-6, 6)]

    @settings(max_examples=150, deadline=None)
    @given(
        hypergeometric_problems(),
        st.integers(0, 2),
        # the perturbations are one branch of four, the other three keep a fit, so
        # most draws reach the multiply-back check
        st.sampled_from(["times", "plus", "replace", "even"])
        | st.just("shift")
        | st.just("scale")
        | st.just("stretch"),
        st.lists(small, min_size=1, max_size=4).map(Poly),
    )
    # gamma = 2 free of E, tau = (E - 2) r, sigma = r^2: mu_1 mu_2 = 2E^2, so delta_1
    # times 2E leaves delta_2/delta_1 constant and delta_1/delta_0 quadratic in E
    @example(
        (validate(Affine(Poly([0, -2]), Poly([0, 1])), Poly([0, 0, 1]), (2, 0), "E"), F(1)),
        1,
        "times",
        Poly([0, 2]),
    )
    def test_levels_off_the_formula(self, case, k, kind, f):
        # level k times, plus or replaced by a polynomial f in E, or every level one even
        # g(E) g(-E), g = f's affine part: delta_0 quadratic in E with no E term, the later
        # quotients 1.  E shifted by t = f(0) or scaled by t, or delta_j times t^(j+1) as
        # another r0 gives, keep the fit.  What _fit does not refuse multiplies back
        problem, r0 = case
        levels = [d for _, d in zip(range(3), determinants(problem, r0))]
        t, g = f.coeff(0), Poly(f.coeffs[:2])
        if kind in ("times", "plus", "replace"):
            levels[k] = {"times": levels[k] * f, "plus": levels[k] + f, "replace": f}[kind]
        else:
            even = g * Poly([t, -g.coeff(1)])
            levels = {
                "even": [even] * 3,
                "shift": [d.compose_linear(t) for d in levels],
                "scale": [d * t ** (j + 1) for j, d in enumerate(levels)],
                "stretch": [Poly([c * t**i for i, c in enumerate(d.coeffs)]) for d in levels],
            }[kind]
        assume(not any(d.is_zero for d in levels))
        try:
            fit = aim_module._fit(levels)
        except IncompleteSpectrum:
            assert kind not in ("shift", "scale", "stretch")  # the product formula still holds
            return
        assert _multiplies_back(levels, *fit)
