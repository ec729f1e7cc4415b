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

    def test_rejects_zero_sigma(self):
        # validate passes the record's refusals through; TestRecord holds each refusal
        with pytest.raises(NotHypergeometricType, match="sigma is identically zero"):
            validate(R, Poly(), (0, 1))

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
                validate(tau, sigma, (0, 1))


class TestRecord:
    """The record holds the caps: the constructor refuses what no route solves."""

    @pytest.mark.parametrize(
        "tau, sigma, gamma, error, message",
        [
            # sigma = (r - 1)(2r - 1)(3r - 1)
            (
                R,
                Poly([-1, 1]) * Poly([-1, 2]) * Poly([-1, 3]),
                Affine(F(0), F(1)),
                NotHypergeometricType,
                "deg(sigma) = 3 > 2",
            ),
            (R * R, Poly.const(1), Affine(F(0), F(1)), NotHypergeometricType, "deg(tau) = 2 > 1"),
            # a Heun-class equation: sigma = r^3 - 4r^2 + 3r, tau = 2r^2 - 3r + 1, gamma = -(6r + E)
            (
                Poly([1, -3, 2]),
                Poly([0, 3, -4, 1]),
                Affine(Poly([0, -6]), Poly.const(-1)),
                NotHypergeometricType,
                "deg(tau) = 2 > 1",
            ),
            # the Hermite record with gamma stored as two Polys
            (
                Poly([0, -2]),
                Poly.const(1),
                Affine(Poly(), Poly.const(2)),
                InvalidInput,
                "gamma Affine(const=Poly([]), slope=Poly([Fraction(2, 1)]))"
                " must be an Affine of two Fractions",
            ),
            (R, Poly(), Affine(F(0), F(1)), NotHypergeometricType, "sigma is identically zero"),
            (
                Poly([0, -2]),
                Poly.const(1),
                Affine(F(3), F(0)),
                NotHypergeometricType,
                "no parameter dependence to quantize",
            ),
            # tau = p - 2r: the parameter enters neither tau' nor gamma, so no mode quantizes it
            (
                Affine(Poly([0, -2]), Poly.const(1)),
                Poly.const(1),
                Affine(F(3), F(0)),
                NotHypergeometricType,
                "no parameter dependence to quantize",
            ),
        ],
        ids=[
            "cubic-sigma",
            "quadratic-tau",
            "heun",
            "hermite-gamma-polys",
            "zero-sigma",
            "parameter-free",
            "parameter-only-in-tau-constant-term",
        ],
    )
    def test_input_outside_the_caps_is_refused(self, tau, sigma, gamma, error, message):
        tau = tau if isinstance(tau, Affine) else Affine(tau, Poly())
        with pytest.raises(error) as refused:
            HypergeometricProblem(tau, sigma, gamma)
        assert str(refused.value) == message


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

    @pytest.mark.parametrize(
        "tau, sigma, message",
        [(R * R, Poly.const(1), "deg(tau) = 2, deg(sigma) = 0"), (R, R**3, "deg(tau) = 1, deg(sigma) = 3")],
        ids=["quadratic-tau", "cubic-sigma"],
    )
    def test_degrees_above_the_caps_refused(self, tau, sigma, message):
        # these once gave 0 and -2, though no quadratic y solves either equation
        with pytest.raises(NotHypergeometricType) as refused:
            gamma_n(tau, sigma, 2)
        assert str(refused.value) == message


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

    def test_negative_n_rejected(self):
        # the n = -1 "mode" once gave -1; gamma_n refuses it with the same error
        with pytest.raises(ValueError, match="n must be non-negative"):
            eigenvalue(catalog_get("hermite"), -1)

    def test_degenerate_map(self):
        # parameter enters through tau' only; coefficient dies at n = 0
        problem = validate(
            Affine(Poly([0, -1]), Poly([0, 1])), Poly.const(1), (1, 0)
        )
        with pytest.raises(DegenerateParameterMap):
            eigenvalue(problem, 0)


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
