from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, given, settings
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
    NoRootInBracket,
    NotHypergeometricType,
)
from aimnu.hypergeometric import HypergeometricProblem, eigenvalue, gamma_n, validate

R = Poly.variable()
TOL = F(1, 10**8)  # the width of an inexact root's interval, aim._TOL


HERMITE = catalog_get("hermite")  # lambda0 = 2r, s0 = -2E


def _record(lam0, s0):
    """The record of y'' = lambda0 y' + s0 y for lambda0 = P/Q and s0 = U/T,
    given as pairs (P, Q) and (U, T) with P and U Affine in E:
    sigma = Q T, tau = -P T and gamma = -U Q."""
    (P, Q), (U, T) = lam0, s0
    tau = Affine(-(P.const * T), -(P.slope * T))
    return HypergeometricProblem(tau, Q * T, Affine(-(U.const * Q), -(U.slope * Q)), "E")


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
        with pytest.raises(ValueError):
            iterate(HERMITE, F(1), -1)


class TestDelta:
    def test_delta1_hermite_closed_form(self):
        for kappa in (F(-1), F(0), F(1, 2), F(1), F(5, 3)):
            expected = [RatFunc(2 * kappa), RatFunc(4 * kappa * (kappa - 1))]
            assert iterate(HERMITE, kappa, 1) == expected

    def test_delta_vanishes_at_integer_modes(self):
        # E = n is a root of delta_k exactly from level k = n on
        for n in range(4):
            deltas = iterate(HERMITE, F(n), 6)
            assert [d.evaluate(F(1)) == 0 for d in deltas] == [k >= n for k in range(7)]

    def test_delta_nonzero_off_spectrum(self):
        assert all(d.evaluate(F(1)) != 0 for d in iterate(HERMITE, F(1, 2), 3))


class TestSolveIterative:
    def test_hermite_bracket(self):
        problem = catalog_get("hermite")
        estimates = solve_iterative(problem, F(1), (F(-1, 2), F(3, 2)))
        assert len(estimates) >= 2
        assert all(e.converged for e in estimates)
        for target in (F(0), F(1)):
            assert any(abs(e.value - target) < 10 * TOL for e in estimates)
        values = [e.value for e in estimates]
        assert values == sorted(values)
        assert [e.n for e in estimates] == list(range(len(estimates)))

    def test_morse_single_root(self):
        problem = catalog_get("morse")  # alpha=1, beta=5/2; eigenvalues 2, 1, 0, ...
        estimates = solve_iterative(problem, F(1), (F(3, 2), F(5, 2)))
        assert any(e.converged and abs(e.value - 2) < 10 * TOL for e in estimates)

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
        with pytest.raises(ValueError):
            solve_iterative(problem, F(1), (F(1), F(0)))
        with pytest.raises(ValueError):
            solve_iterative(problem, F(1), (F(0), F(1)), k_max=1)

    def test_agrees_with_closed_form(self):
        problem = catalog_get("kratzer")
        estimates = solve_iterative(problem, F(1), (F(1, 5), F(1)))
        closed = {eigenvalue(problem, n) for n in range(4)}
        targets = [v for v in closed if F(1, 5) < v < F(1)]
        assert targets
        for v in targets:
            assert any(e.converged and abs(e.value - v) < 10 * TOL for e in estimates)


def _solve_watching_r0(monkeypatch, problem, bracket, **kwargs):
    """``solve_iterative`` without r0, and the points it passes to ``determinants``."""
    seen = []

    def spy(record, point):
        seen.append(point)
        return determinants(record, point)

    monkeypatch.setattr(aim_module, "determinants", spy)
    return solve_iterative(problem, None, bracket, **kwargs), seen


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

    def test_point_avoids_the_roots_of_a_cubic_sigma(self, monkeypatch):
        # a record outside the caps: sigma = (r - 1)(2r - 1)(3r - 1)
        sigma = Poly([-1, 1]) * Poly([-1, 2]) * Poly([-1, 3])
        problem = HypergeometricProblem(Affine(R, Poly()), sigma, Affine(F(0), F(1)))
        assert _solve_watching_r0(monkeypatch, problem, (F(-10), F(10)), k_max=4)[1] == [F(1, 4)]

    def test_zero_denominator_is_a_pole(self):
        # the candidates the derived point skips are zeros of sigma; passed as r0 each is a pole
        problem = validate(Poly([0, 4]), Poly([1, -3, 2]), (0, -1), "E")
        for r0 in (F(1), F(1, 2)):
            with pytest.raises(EvaluationPole):
                solve_iterative(problem, r0, (F(-1), F(25)))
        # sigma = 0 vanishes at every point: the record is refused before any is chosen
        with pytest.raises(NotHypergeometricType):
            HypergeometricProblem(Affine(R, Poly()), Poly(), Affine(Poly(), R))


def _solve(name, r0, bracket, **kwargs):
    return solve_iterative(catalog_get(name), r0, bracket, **kwargs)


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

    def test_k_max_too_small(self):
        # the Hermite record with gamma stored as two Polys, which the caps refuse,
        # is isolated at level k_max: 5 is a root of delta_5 but not of delta_4,
        # and 6..10 are no roots of delta_5
        gamma = Affine(Poly(), Poly.const(2))
        problem = HypergeometricProblem(Affine(Poly([0, -2]), Poly()), Poly.const(1), gamma)
        estimates = solve_iterative(problem, F(1), (F(-1, 2), F(21, 2)), k_max=5)
        assert [e.value for e in estimates] == [0, 1, 2, 3, 4, 5]
        assert [e.converged for e in estimates] == [True] * 5 + [False]

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
        ],
        ids=["nonmono", "jacobi-alpha-minus-9/2"],
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

    def test_as_many_modes_as_the_cap(self):
        estimates = solve_iterative(catalog_get("hermite"), None, (F(-1, 2), F(2 * MAX_MODES - 1, 2)))
        assert [(e.n, e.value) for e in estimates] == [(n, n) for n in range(MAX_MODES)]

    def test_zero_delta_0_is_not_divided_by(self):
        # s0 = (r - 1)(E + 1) vanishes at r0 = 1, so delta_0 = 0 but delta_4 is
        # not: the record is outside the caps, and level 4 is isolated in full
        one = Poly.const(1)
        problem = _record((Affine(Poly([0, 2]), Poly()), one), (Affine(Poly([-1, 1]), Poly([-1, 1])), one))
        assert next(determinants(problem, F(1))).is_zero
        estimates = solve_iterative(problem, F(1), (F(-10), F(10)), k_max=4)
        assert [e.value for e in estimates] == [-5, -1, F(7, 5)]
        assert [e.converged for e in estimates] == [False, True, False]
        assert [e.n for e in estimates] == [0, 1, 2]

    def test_irrational_roots_reported_as_midpoints(self):
        # y'' = 2r y' + (r^2 - E) y is not exactly solvable: delta_3(0, E)
        # has the irrational roots 2 -+ sqrt(2) in the bracket
        one = Poly.const(1)
        problem = _record((Affine(Poly([0, 2]), Poly()), one), (Affine(Poly([0, 0, 1]), -one), one))
        estimates = solve_iterative(problem, F(0), (F(-10), F(10)), k_max=3)
        assert len(estimates) == 2
        for e in estimates:
            assert not e.converged
            below = _deltas_at(problem, e.value - TOL, 3, F(0))[-1]
            above = _deltas_at(problem, e.value + TOL, 3, F(0))[-1]
            assert below * above < 0


def _deltas_at(problem, energy, k_max, r0=F(1)):
    """[delta_k(r0) for k = 0..k_max] at one energy, from the RatFunc rows."""
    return [delta.evaluate(r0) for delta in iterate(problem, energy, k_max)]


#: lambda0 = (1 + 2r + E r^2)/(2 - 3r), s0 = (E - r)/(2 - 3r): at the
#: non-integer r0 = 3/2 sigma is -5/2 - 3x in x = r - r0, so D = -5 - 6x
#: and m = 2 carry their sign and fraction into L and S.  The two
#: denominators are equal, so sigma is the one denominator, not its square.
_NEGATIVE_DEN = HypergeometricProblem(
    Affine(Poly([-1, -2]), Poly([0, 0, -1])), Poly([2, -3]), Affine(Poly([0, 1]), Poly.const(-1)), "E"
)

small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero = small.filter(bool)
affine = st.lists(small, min_size=1, max_size=2).map(Poly)


@st.composite
def affine_problems(draw):
    """A record of lambda0 and s0 with rational coefficients and a point r0
    off its poles.

    The two rows share a constant or linear denominator up to a factor
    each, which keeps the RatFunc oracle fast; ``general_problems`` draws
    the two denominators independently."""
    den = Poly([draw(nonzero), draw(small)])
    rows = [(Affine(draw(affine), draw(affine)), den * draw(nonzero)) for _ in range(2)]
    r0 = draw(small.filter(lambda x: den.evaluate(x) != 0))
    return _record(*rows), r0


quadratic = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(Poly)


@st.composite
def general_problems(draw):
    """A record of lambda0 and s0 whose two denominators are drawn
    independently, with integer numerators and denominators of degree <= 2,
    and a point r0 off both denominators' roots.  Their product is sigma."""
    dens = [draw(quadratic.filter(lambda p: not p.is_zero)) for _ in range(2)]
    rows = [(Affine(draw(quadratic), draw(quadratic)), den) for den in dens]
    r0 = draw(small.filter(lambda x: all(den.evaluate(x) for den in dens)))
    return _record(*rows), r0


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


class TestDeterminants:
    @pytest.mark.parametrize(
        "name, r0",
        [
            ("hermite", F(1)),
            ("kratzer", F(1)),
            ("morse", F(1)),
            ("hulthen", F(1, 2)),
            ("legendre", F(1, 3)),  # D(0) = -8, so (m D(0))^(2k+1) < 0
        ],
    )
    def test_matches_rational_function_recursion(self, name, r0):
        _check_against_oracle(catalog_get(name), r0, 6)

    def test_negative_denominator_at_non_integer_r0(self):
        _check_against_oracle(_NEGATIVE_DEN, F(3, 2), 6)

    @settings(max_examples=10, deadline=None)
    @given(affine_problems())
    def test_matches_recursion_on_random_problems(self, case):
        _check_against_oracle(*case, 5)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(general_problems())
    def test_matches_recursion_with_unrelated_denominators(self, case):
        # the RatFunc oracle takes seconds per trial value at k = 8 when both
        # denominators are quadratic: fixed examples and two trial values
        # keep the run time steady
        _check_against_oracle(*case, 8, (F(1, 3), F(-2)))

    @settings(max_examples=40, deadline=None)
    @given(hypergeometric_problems())
    def test_each_level_divides_the_next(self, case):
        # delta_k = (mu_k / sigma(r0)) delta_{k-1}, mu_k affine in E with root E_k
        problem, r0 = case
        deltas = [d for _, d in zip(range(8), determinants(problem, r0))]
        assume(not deltas[0].is_zero)
        for k, (last, delta) in enumerate(zip(deltas, deltas[1:]), start=1):
            quo, rem = divmod(delta, last)
            assert rem.is_zero and quo.degree <= 1
            if quo.degree == 1:
                assert -quo.coeff(0) / quo.coeff(1) == eigenvalue(problem, k)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_catalog_levels_are_the_product_formula(self, name):
        # delta_k(r0) = sigma(r0)^-(k+1) prod_{n<=k} mu_n(E) for k <= 12, with
        # mu_n(E) = gamma(E) - gamma_n(tau(E)) built from gamma_n, never from AIM data;
        # gamma_n is affine in tau, so its values at tau_c and tau_c + tau_s fix it
        problem = catalog_get(name)
        tau, sigma, gamma = problem.tau, problem.sigma, problem.gamma
        mu = []
        for n in range(13):
            at0, at1 = gamma_n(tau.const, sigma, n), gamma_n(tau.const + tau.slope, sigma, n)
            mu.append(Poly([gamma.const - at0, gamma.slope - (at1 - at0)]))
        for r0 in (F(2, 5), F(-7, 3)):  # roots of no catalog sigma
            deltas = [d for _, d in zip(range(13), determinants(problem, r0))]
            for k, delta in enumerate(deltas):
                assert delta == prod(mu[: k + 1], start=Poly.const(1)) * sigma.evaluate(r0) ** -(k + 1)

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


#: (catalog entry, r0, bracket): the five brackets of the golden files.
GOLDEN_BRACKETS = [
    ("hermite", F(1), (F(-1, 2), F(21, 2))),
    ("legendre", F(1, 3), (F(-1, 2), F(60))),
    ("kratzer", F(1), (F(1, 50), F(1))),
    ("morse", F(1), (F(0), F(4))),
    ("hulthen", F(1, 2), (F(0), F(3))),
]


def _exact_roots(delta, bracket):
    """The roots of delta in the open bracket by ``Poly.real_roots``, each one exact."""
    roots = delta.real_roots(*bracket, TOL)
    assert all(a == b for a, b in roots)
    return [a for a, _ in roots]


def _isolations(problem, r0, bracket, k_max):
    """The polynomials that ``solve_iterative`` hands to ``Poly.real_roots``,
    and its estimates (none when it raises)."""
    calls, estimates = [], []
    real_roots = Poly.real_roots

    def spy(self, *args):
        calls.append(self)
        return real_roots(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poly, "real_roots", spy)
        try:
            estimates = solve_iterative(problem, r0, bracket, k_max=k_max)
        except (NoRootInBracket, IncompleteSpectrum):
            pass
    return calls, estimates


class TestLevelRoots:
    """Within the caps the solver reads every mode off delta_0..delta_2 and
    isolates nothing; what it returns are the roots of the deep levels."""

    @pytest.mark.parametrize(
        "name, r0, bracket, k_max",
        [(*case, 40) for case in GOLDEN_BRACKETS] + [("kratzer", None, (F(1, 150), F(1)), 80)],
    )
    def test_catalog_never_isolates(self, name, r0, bracket, k_max):
        calls, estimates = _isolations(catalog_get(name), r0, bracket, k_max)
        assert calls == [] and estimates and all(e.converged for e in estimates)

    @settings(max_examples=40, deadline=None)
    @given(hypergeometric_problems())
    def test_hypergeometric_input_never_isolates(self, case):
        problem, r0 = case
        assert _isolations(problem, r0, (F(-10), F(10)), 8)[0] == []

    def test_reads_three_levels_and_no_closed_form(self, monkeypatch):
        # c and e come from delta_0..delta_2 alone: no deeper level, no root
        # isolation, and none of the closed-form route that verify compares with
        drawn = []

        def spy(*args):
            for delta in determinants(*args):
                drawn.append(delta)
                yield delta

        def forbidden(*args):
            raise AssertionError("the solver reached the closed-form route")

        monkeypatch.setattr(aim_module, "determinants", spy)
        for name in ("eigenvalue", "gamma_n"):
            monkeypatch.setattr(hypergeometric_module, name, forbidden)
        monkeypatch.setattr(Poly, "real_roots", forbidden)
        for name, r0, bracket in [*GOLDEN_BRACKETS, ("kratzer", None, (F(1, 150), F(1)))]:
            drawn.clear()
            assert solve_iterative(catalog_get(name), r0, bracket)
            assert len(drawn) == 3

    @pytest.mark.parametrize("name, r0, bracket", GOLDEN_BRACKETS)
    def test_every_level_matches_full_isolation(self, name, r0, bracket):
        # up to the deepest mode K returned, the modes n <= k are the roots of delta_k
        estimates = solve_iterative(catalog_get(name), r0, bracket)
        K = max(e.n for e in estimates)
        for k, delta in zip(range(K + 1), determinants(catalog_get(name), r0)):
            assert sorted(e.value for e in estimates if e.n <= k) == _exact_roots(delta, bracket)

    def test_deepest_level_of_a_wide_bracket(self):
        # kratzer's bracket 1/150:1 holds the 74 modes n <= 73: delta_73 has no other root there
        problem, bracket = catalog_get("kratzer"), (F(1, 150), F(1))
        estimates = solve_iterative(problem, None, bracket)
        assert sorted(e.n for e in estimates) == list(range(74))
        delta = [d for _, d in zip(range(74), determinants(problem, F(1)))][-1]
        assert [e.value for e in estimates] == _exact_roots(delta, bracket)

    @settings(max_examples=100, deadline=None)
    @given(
        hypergeometric_problems(),
        st.tuples(small, small, st.integers(1, 20)).filter(lambda t: t[0] != t[1]),
    )
    def test_matches_the_closed_form_enumeration(self, case, draw):
        # the enumeration of eigenvalue() is this test's oracle, never the solver's:
        # every mode n < 1000 in the bracket, or a raise that the oracle confirms
        problem, r0 = case
        lo, hi = sorted(x * draw[2] for x in draw[:2])
        expected, vanishing = [], None
        for n in range(1000):
            try:
                value = eigenvalue(problem, n)
            except DegenerateParameterMap:  # mu_n is constant in E: zero or never zero
                at0 = gamma_n(problem.tau.const, problem.sigma, n) - problem.gamma.const
                if vanishing is None and at0 == 0:
                    vanishing = n
                continue
            if lo < value < hi:
                expected.append((value, n))
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
            assert all(lo < eigenvalue(problem, n) < hi for n in (10**6, 10**6 + 1, 10**9))
            return
        assert vanishing is None
        assert [(e.value, e.n) for e in estimates] == sorted(expected)
        assert all(e.converged for e in estimates)

    @settings(max_examples=10, deadline=None)
    @given(affine_problems())
    def test_every_level_matches_on_random_problems(self, case):
        # input outside the caps, isolated at each level k_max: the roots of delta_k_max,
        # converged iff exact and a root of delta_(k_max - 1)
        problem, r0 = case
        deltas = [d for _, d in zip(range(7), determinants(problem, r0))]
        for k_max in range(2, 7):
            try:
                estimates = solve_iterative(problem, r0, (F(-10), F(10)), k_max=k_max)
            except NoRootInBracket:
                assert deltas[k_max].is_zero or not deltas[k_max].real_roots(F(-10), F(10))
                continue
            roots = deltas[k_max].real_roots(F(-10), F(10), TOL)
            assert [e.value for e in estimates] == [a if a == b else (a + b) / 2 for a, b in roots]
            assert [e.converged for e in estimates] == [
                a == b and deltas[k_max - 1].evaluate(a) == 0 for a, b in roots
            ]
