from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aimnu.algebra import Affine, Poly
from aimnu.catalog import catalog_get
from aimnu.errors import DegenerateParameterMap, InvalidInput, NotHypergeometricType
from aimnu.hypergeometric import (
    HypergeometricProblem,
    eigenvalue,
    gamma_n,
    validate,
)

R = Poly.variable()


class TestValidate:
    def test_accepts_hermite_data(self):
        problem = validate(Poly([0, -2]), Poly.const(1), (0, 2), "k")
        assert problem.tau.const == Poly([0, -2])
        assert problem.gamma == Affine(F(0), F(2))

    def test_rejects_quadratic_tau(self):
        with pytest.raises(NotHypergeometricType):
            validate(R * R, Poly.const(1))

    def test_rejects_cubic_sigma(self):
        with pytest.raises(NotHypergeometricType):
            validate(R, R**3)

    def test_rejects_zero_sigma(self):
        with pytest.raises(NotHypergeometricType):
            validate(R, Poly())
        with pytest.raises(NotHypergeometricType):  # the record itself, outside the caps too
            HypergeometricProblem(Affine(R, Poly()), Poly(), Affine(Poly(), R))

    def test_rejects_float_gamma(self):
        with pytest.raises(InvalidInput):
            validate(R, Poly.const(1), (0, 0.5))
        with pytest.raises(InvalidInput):
            validate(R, Poly.const(1), (0.1, 1))

    def test_rejects_a_gamma_that_is_not_a_pair(self):
        # each once failed with a bare AttributeError, ValueError or TypeError
        tau, sigma = Affine(R, Poly()), Poly.const(1)
        for gamma in ((0, 1), Affine(F(0), R), Affine(0, 1)):
            with pytest.raises(InvalidInput):
                HypergeometricProblem(tau, sigma, gamma)
        for gamma in ((0, 1, 2), 5):
            with pytest.raises(InvalidInput):
                validate(tau, sigma, gamma)

    def test_rejects_a_list_for_a_poly(self):
        # a plain list once failed with a bare AttributeError on .degree
        one = Poly.const(1)
        for tau, sigma in ((Poly([0, 1]), [1]), ([0, 1], one), (Affine([0, 1], Poly()), one)):
            with pytest.raises(InvalidInput):
                validate(tau, sigma)

    def test_rejects_parameter_free_problem(self):
        with pytest.raises(NotHypergeometricType):
            validate(R, Poly.const(1), (1, 0))


class TestGammaN:
    def test_n_zero_is_zero(self):
        assert gamma_n(Poly([5, -2]), Poly([1, 2, 3]), 0) == 0

    def test_hermite_values(self):
        tau, sigma = Poly([0, -2]), Poly.const(1)
        assert gamma_n(tau, sigma, 3) == 6
        assert [gamma_n(tau, sigma, n) for n in range(5)] == [0, 2, 4, 6, 8]

    def test_legendre_values(self):
        # (r^2-1)y'' + 2ry' + gamma y = 0 has gamma_n = -n(n+1)
        tau, sigma = Poly([0, 2]), Poly([-1, 0, 1])
        assert gamma_n(tau, sigma, 2) == -6
        assert gamma_n(tau, sigma, 5) == -30

    def test_independent_of_low_coefficients(self):
        # only tau' and sigma'' enter
        for c0 in (F(0), F(7), F(-3, 2)):
            assert gamma_n(Poly([c0, -2]), Poly([c0, c0, 1]), 4) == gamma_n(
                Poly([0, -2]), Poly([0, 0, 1]), 4
            )

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            gamma_n(R, R, -1)


class TestEigenvalue:
    def test_morse(self):
        problem = catalog_get("morse", {"alpha": F(1), "beta": F(5, 2)})
        assert eigenvalue(problem, 0) == F(2)
        assert eigenvalue(problem, 1) == F(1)
        assert eigenvalue(problem, 2) == F(0)

    def test_hulthen(self):
        problem = catalog_get("hulthen", {"q": F(1), "beta2": F(4)})
        assert eigenvalue(problem, 0) == F(3, 2)
        assert eigenvalue(problem, 1) == F(0)

    def test_kratzer(self):
        problem = catalog_get("kratzer", {"A": F(1), "Lambda": F(0)})
        assert [eigenvalue(problem, n) for n in range(3)] == [F(1, 2), F(1, 4), F(1, 6)]

    def test_degenerate_map(self):
        # parameter enters through tau' only; coefficient dies at n = 0
        problem = validate(
            Affine(Poly([0, -1]), Poly([0, 1])), Poly.const(1), (1, 0)
        )
        with pytest.raises(DegenerateParameterMap):
            eigenvalue(problem, 0)

    @pytest.mark.parametrize(
        "tau, sigma, gamma",
        [
            (Poly([0, -2]), R**3 + 1, Affine(F(0), F(2))),
            (Poly([0, -2]), Poly.const(1), Affine(R, Poly.const(2))),
            (R * R, Poly.const(1), Affine(F(0), F(2))),
            (Poly([0, -2]), Poly.const(1), Affine(F(1), F(0))),
        ],
        ids=["cubic-sigma", "gamma-in-r", "quadratic-tau", "parameter-free"],
    )
    def test_record_outside_the_caps(self, tau, sigma, gamma):
        # a record built directly, not through validate, once gave a TypeError or a wrong number
        problem = HypergeometricProblem(Affine(tau, Poly()), sigma, gamma)
        with pytest.raises(NotHypergeometricType):
            eigenvalue(problem, 2)


def _two_point_eigenvalue(problem, n):
    """The root of the gap gamma_n(p) - gamma(p), read at p = 0 and p = 1."""

    def gap(p):
        return gamma_n(problem.tau.substitute(p), problem.sigma, n) - problem.gamma.substitute(p)

    at0 = gap(F(0))
    slope = gap(F(1)) - at0
    if slope == 0:
        raise DegenerateParameterMap(f"parameter coefficient vanishes at n = {n}")
    return -at0 / slope


_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_COEFFS, min_size=2, max_size=2),
    st.lists(_COEFFS, min_size=0, max_size=2),
    st.lists(_COEFFS, min_size=3, max_size=3),
    st.tuples(_COEFFS, _COEFFS),
    st.integers(0, 12),
)
@example([0, -1], [0, 1], [1], (1, -2), 2)  # slope -2 * 1 - (-2) = 0
@example([1, -2], [], [0, 1], (3, F(1, 2)), 5)  # parameter in gamma only
def test_eigenvalue_matches_two_point_gap(tau_const, tau_slope, sigma, gamma, n):
    try:
        problem = validate(Affine(Poly(tau_const), Poly(tau_slope)), Poly(sigma), gamma)
    except NotHypergeometricType:
        assume(False)
    try:
        expected = _two_point_eigenvalue(problem, n)
    except DegenerateParameterMap as exc:
        with pytest.raises(DegenerateParameterMap, match=str(exc)):
            eigenvalue(problem, n)
        return
    assert eigenvalue(problem, n) == expected
