"""Hypergeometric-type equations sigma y'' + tau y' + gamma y = 0.

Validates the degree constraints (deg tau <= 1, deg sigma <= 2), provides
the closed-form quantization constant

    gamma_n = -n tau'  -  n(n-1)/2 sigma'',

inverts affine parameter maps to obtain physical spectra, and converts
problems into the first-order iteration form used by the iterative solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Poly
from .errors import DegenerateParameterMap, NotHypergeometricType

__all__ = [
    "AffineValue",
    "AffinePoly",
    "HypergeometricProblem",
    "validate",
    "gamma_n",
    "eigenvalue",
    "to_aim_form",
]


@dataclass(frozen=True)
class AffineValue:
    """Scalar affine in the physical parameter p: const + slope * p."""

    const: Fraction
    slope: Fraction

    def substitute(self, p: Fraction) -> Fraction:
        return self.const + self.slope * p


@dataclass(frozen=True)
class AffinePoly:
    """Polynomial whose coefficients are affine in the parameter p."""

    const: Poly
    slope: Poly = field(default_factory=Poly)

    def substitute(self, p: Fraction) -> Poly:
        return self.const + self.slope * p

    @property
    def degree(self):
        return max(self.const.degree, self.slope.degree)


def _as_affine_poly(tau) -> AffinePoly:
    if isinstance(tau, AffinePoly):
        return tau
    return AffinePoly(tau)


def _as_affine_value(gamma) -> AffineValue:
    if isinstance(gamma, AffineValue):
        return gamma
    const, slope = gamma
    return AffineValue(Fraction(const), Fraction(slope))


@dataclass(frozen=True)
class HypergeometricProblem:
    """Validated equation data with an affine map onto one physical parameter.

    ``gamma`` records how the quantization constant depends on the
    parameter; classical equations typically have a parameter-free tau and
    the whole parameter dependence in gamma, while transformed potential
    problems carry the parameter in tau as well.
    """

    tau: AffinePoly
    sigma: Poly
    gamma: AffineValue
    parameter: str = "p"

    def __post_init__(self):
        if self.tau.degree > 1:
            raise NotHypergeometricType(f"deg(tau) = {self.tau.degree} > 1")
        if self.sigma.degree > 2:
            raise NotHypergeometricType(f"deg(sigma) = {self.sigma.degree} > 2")
        if self.sigma.is_zero:
            raise NotHypergeometricType("sigma is identically zero")
        if self.gamma.slope == 0 and self.tau.slope.is_zero:
            raise NotHypergeometricType("no parameter dependence to quantize")


def validate(
    tau: Poly | AffinePoly,
    sigma: Poly,
    gamma: AffineValue | tuple = (0, 1),
    parameter: str = "p",
) -> HypergeometricProblem:
    """Check the degree constraints and build a problem record.

    The record holds no evaluation point: for this input delta_k(r0, E) is
    c_k(r0) times a polynomial in E alone, so r0 never moves a root and
    ``aim.solve_iterative`` picks one off the poles of sigma.

    Raises NotHypergeometricType if deg(tau) > 1 or deg(sigma) > 2.
    """
    return HypergeometricProblem(
        _as_affine_poly(tau), sigma, _as_affine_value(gamma), parameter
    )


def gamma_n(tau: Poly, sigma: Poly, n: int) -> Fraction:
    """Quantization constant -n tau' - n(n-1)/2 sigma'' for numeric tau."""
    if n < 0:
        raise ValueError("n must be non-negative")
    tau_prime = tau.coeff(1)
    sigma_pp = 2 * sigma.coeff(2)
    return -n * tau_prime - Fraction(n * (n - 1), 2) * sigma_pp


def eigenvalue(problem: HypergeometricProblem, n: int) -> Fraction:
    """Solve the affine equation gamma_n(p) = gamma(p) for the parameter.

    Both tau' and gamma may depend on p, so the gap gamma_n(p) - gamma(p)
    is affine in p; read at p = 0 and p = 1, its root is the exact n-th
    spectrum value.  Raises DegenerateParameterMap when its slope vanishes.
    """

    def gap(p: Fraction) -> Fraction:
        tau = problem.tau.substitute(p)
        return gamma_n(tau, problem.sigma, n) - problem.gamma.substitute(p)

    at0 = gap(Fraction(0))
    slope = gap(Fraction(1)) - at0
    if slope == 0:
        raise DegenerateParameterMap(f"parameter coefficient vanishes at n = {n}")
    return -at0 / slope


def to_aim_form(problem: HypergeometricProblem):
    """Rewrite as y'' = lambda0 y' + s0 y with lambda0 = -tau/sigma, s0 = -gamma/sigma."""
    from .aim import AimProblem, ParamRatFunc

    lam0 = ParamRatFunc(-problem.tau.const, -problem.tau.slope, problem.sigma)
    s0 = ParamRatFunc(
        Poly.const(-problem.gamma.const),
        Poly.const(-problem.gamma.slope),
        problem.sigma,
    )
    return AimProblem(lam0, s0)
