from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aimnu import eigenfunctions
from aimnu.algebra import Poly, RatFunc, WeightExpr
from aimnu.catalog import CATALOG, catalog_get
from aimnu.eigenfunctions import (
    hulthen_eigenfunction,
    ode_residual,
    pearson_weight,
    polynomial_solution,
    rodrigues,
    y_low_order,
)
from aimnu.errors import (
    DegenerateSpectrum,
    InconsistentGamma,
    NotHypergeometricType,
    OutOfRange,
    PochhammerPole,
)
from aimnu.hypergeometric import eigenvalue, gamma_n

R = Poly.variable()

HERMITE = (Poly([0, -2]), Poly.const(1))
LAGUERRE = (Poly([1, -1]), R)
LEGENDRE = (Poly([0, 2]), Poly([-1, 0, 1]))


_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_SIGMAS_WITHOUT_RATIONAL_ROOTS = (
    Poly([1, 0, 1]),
    Poly([2, 0, -1]),
    Poly([1, 1, 1]),
    Poly([F(-1, 2), 0, 3]),
)


def _proportional(a, b):
    return not a.is_zero and not b.is_zero and a * b.leading == b * a.leading


class TestPolynomialSolution:
    def test_degree_zero(self):
        result = polynomial_solution(*HERMITE, 0)
        assert result.poly == Poly.const(1)
        assert result.gamma_used == 0

    def test_hermite_n2(self):
        result = polynomial_solution(*HERMITE, 2)
        assert result.poly == R * R - F(1, 2)
        assert result.gamma_used == 4

    def test_laguerre_n1(self):
        assert polynomial_solution(*LAGUERRE, 1).poly == R - 1

    def test_residual_is_zero(self):
        for tau, sigma in (HERMITE, LAGUERRE, LEGENDRE):
            for n in range(6):
                r = polynomial_solution(tau, sigma, n)
                assert ode_residual(tau, sigma, r.gamma_used, r.poly).is_zero

    def test_monic(self):
        for n in range(1, 6):
            assert polynomial_solution(*LEGENDRE, n).poly.leading == 1

    def test_degenerate_spectrum(self):
        # sigma = r^2, tau = 0: gamma_1 = 0 and r, 1 both solve the equation
        with pytest.raises(DegenerateSpectrum):
            polynomial_solution(Poly(), R * R, 1)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            polynomial_solution(*HERMITE, -1)

    def test_residual_check_can_fail(self, monkeypatch):
        # the pivots come from their closed form, so a wrong gamma_n reaches
        # the residual check, which must reject it
        monkeypatch.setattr(eigenfunctions, "gamma_n", lambda tau, sigma, n: gamma_n(tau, sigma, n) + 1)
        for tau, sigma in (HERMITE, LAGUERRE, LEGENDRE):
            for n in range(4):
                with pytest.raises(InconsistentGamma, match="residual not identically zero"):
                    polynomial_solution(tau, sigma, n)


class TestLowOrder:
    def test_forms(self):
        tau, sigma = LAGUERRE
        assert y_low_order(tau, sigma, 0) == Poly.const(1)
        assert y_low_order(tau, sigma, 1) == tau
        for n in (2, 3):
            explicit = y_low_order(tau, sigma, n)
            solved = polynomial_solution(tau, sigma, n).poly
            assert _proportional(explicit, solved)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            y_low_order(*HERMITE, 4)
        with pytest.raises(OutOfRange):
            y_low_order(*HERMITE, -1)

    def test_degree_drop_raises(self):
        # tau = 1, sigma = r^2: gamma_0 = gamma_1 = 0, and the n = 1 form tau is constant
        with pytest.raises(InconsistentGamma):
            y_low_order(Poly.const(1), R * R, 1)
        # tau = -r, sigma = r^2: gamma_0 = gamma_2 = 0
        with pytest.raises(InconsistentGamma):
            y_low_order(-R, R * R, 2)


class TestPearsonWeight:
    def test_hermite_gaussian(self):
        rho = pearson_weight(*HERMITE).weight
        assert rho == WeightExpr(RatFunc(1), (), RatFunc(-R * R))

    def test_laguerre_exponential(self):
        rho = pearson_weight(*LAGUERRE).weight
        assert rho.log_derivative() == RatFunc(Poly.const(-1))

    def test_legendre_constant(self):
        rho = pearson_weight(*LEGENDRE).weight
        assert rho.log_derivative() == RatFunc(0)

    def test_defining_identity(self):
        for name in ("hermite", "bessel", "gegenbauer"):
            problem = catalog_get(name)
            tau, sigma = problem.tau.const, problem.sigma
            rho = pearson_weight(tau, sigma).weight
            assert rho.log_derivative() == RatFunc(tau - sigma.derivative(), sigma)


class TestRodrigues:
    def test_hermite_values(self):
        assert rodrigues(*HERMITE, 0) == Poly.const(1)
        assert rodrigues(*HERMITE, 1) == Poly([0, -2])
        assert rodrigues(*HERMITE, 2) == Poly([-2, 0, 4])

    def test_laguerre_n1(self):
        assert rodrigues(*LAGUERRE, 1) == Poly([1, -1])

    def test_agrees_with_recursion(self):
        for tau, sigma in (HERMITE, LAGUERRE, LEGENDRE):
            for n in range(6):
                assert _proportional(
                    rodrigues(tau, sigma, n), polynomial_solution(tau, sigma, n).poly
                )

    def test_negative_n(self):
        with pytest.raises(ValueError):
            rodrigues(*HERMITE, -1)

    def test_degree_drop_raises(self):
        # tau' + (n+k-1) sigma''/2 vanishes at k = 0 for n = 2
        with pytest.raises(InconsistentGamma):
            rodrigues(-R, R * R, 2)

    @given(
        tau=st.lists(_FRACTIONS, min_size=2, max_size=2).map(Poly),
        sigma=st.one_of(
            st.sampled_from(_SIGMAS_WITHOUT_RATIONAL_ROOTS),
            st.lists(_FRACTIONS, min_size=1, max_size=3).map(Poly).filter(
                lambda p: not p.is_zero
            ),
        ),
        n=st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_solves_the_equation(self, tau, sigma, n):
        leading = F(1)
        for k in range(n):
            leading *= tau.coeff(1) + (n + k - 1) * sigma.coeff(2)
        assume(leading != 0)
        y = rodrigues(tau, sigma, n)
        assert y.degree == n
        assert ode_residual(tau, sigma, gamma_n(tau, sigma, n), y).is_zero
        assert y.leading == leading


@pytest.mark.parametrize("n", [*range(13), 50, 100])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_generators_agree(name, n):
    # at the n-th spectrum value: Rodrigues is a multiple of the monic
    # recursion output, and both solve the entry's own equation
    problem = catalog_get(name)
    value = eigenvalue(problem, n)
    tau, sigma, gamma = problem.tau.substitute(value), problem.sigma, problem.gamma.substitute(value)
    solved, rod = polynomial_solution(tau, sigma, n).poly, rodrigues(tau, sigma, n)
    assert solved.degree == n and _proportional(rod, solved)
    assert ode_residual(tau, sigma, gamma, solved).is_zero
    assert ode_residual(tau, sigma, gamma, rod).is_zero


@pytest.mark.parametrize("generator", [polynomial_solution, rodrigues, y_low_order])
def test_generators_refuse_degrees_above_the_caps(generator):
    # the integer steps read tau' and sigma'' as constants; deg tau <= 1 and
    # deg sigma <= 2 are the caps every record holds
    for tau, sigma in ((R * R, Poly.const(1)), (R, R**3)):
        with pytest.raises(NotHypergeometricType):
            generator(tau, sigma, 2)


_WIDE = st.one_of(_FRACTIONS, st.fractions(max_denominator=10**12))


@given(
    tau=st.lists(_WIDE, min_size=0, max_size=2).map(Poly),
    sigma=st.lists(_WIDE, min_size=1, max_size=3).map(Poly).filter(lambda p: not p.is_zero),
    n=st.integers(0, 3),
)
@example(tau=Poly([F(1, 6), F(-5, 4)]), sigma=Poly([F(2, 3), F(1, 10), F(-7, 15)]), n=3)
@example(tau=-R, sigma=R * R, n=2)  # gamma_0 = gamma_2: the form drops to degree 1
@settings(max_examples=200, deadline=None)
def test_y_low_order_is_rodrigues(tau, sigma, n):
    # the explicit forms are the Rodrigues formula expanded, so the two are equal,
    # and refuse the same input; test_oracle checks rodrigues against sympy
    try:
        expected = rodrigues(tau, sigma, n)
    except InconsistentGamma:
        with pytest.raises(InconsistentGamma):
            y_low_order(tau, sigma, n)
        return
    assert y_low_order(tau, sigma, n) == expected


class TestHulthenEigenfunction:
    def test_low_orders(self):
        q, e = F(1), F(1, 3)
        assert hulthen_eigenfunction(0, q, e) == Poly.const(1)
        assert hulthen_eigenfunction(1, q, e) == Poly([-(2 * e + 1), (2 * e + 3) * q])
        y2 = hulthen_eigenfunction(2, q, e)
        expected = Poly(
            [
                2 * (2 * e * e + 3 * e) + 2,
                -8 * (e + 1) * (e + 2) * q,
                2 * (e + 2) * (2 * e + 5) * q * q,
            ]
        )
        assert y2 == expected

    def test_degree(self):
        for n in range(5):
            assert hulthen_eigenfunction(n, F(1, 2), F(3)).degree == n

    def test_pochhammer_pole(self):
        with pytest.raises(PochhammerPole):
            hulthen_eigenfunction(2, F(1), F(-1))  # 2e + 2 = 0

    @pytest.mark.parametrize(
        "n, q, beta2",
        [(4, F(2), F(-40)), (3, F(-1), F(4))],
        ids=["stops-at-r3", "stops-at-r0"],
    )
    def test_series_below_degree_n(self, n, q, beta2):
        # 2e + n + 2 + m = 0 for some m < n: a term of the sum vanishes, and
        # the recursion finds the same degenerate spectrum
        problem = catalog_get("hulthen", {"q": q, "beta2": beta2})
        e = eigenvalue(problem, n)
        with pytest.raises(InconsistentGamma, match=f"2F1 series degree .* != {n}"):
            hulthen_eigenfunction(n, q, e)
        with pytest.raises(DegenerateSpectrum):
            polynomial_solution(problem.tau.substitute(e), problem.sigma, n)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            hulthen_eigenfunction(-1, F(1), F(1))


class TestOdeResidual:
    def test_explicit_value(self):
        # sigma y'' + tau y' + g y for y = r^2: 2 sigma + 2 r tau + g r^2
        tau, sigma = HERMITE
        res = ode_residual(tau, sigma, F(4), R * R)
        assert res == Poly.const(2)  # 2 - 4r^2 + 4r^2

    def test_gamma_n_kills_degree_n(self):
        tau, sigma = LEGENDRE
        y = polynomial_solution(tau, sigma, 3).poly
        assert ode_residual(tau, sigma, gamma_n(tau, sigma, 3), y).is_zero
        assert not ode_residual(tau, sigma, gamma_n(tau, sigma, 3) + 1, y).is_zero
