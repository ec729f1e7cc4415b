"""Hypergeometric-type equations sigma y'' + tau y' + gamma y = 0.

Validates the degree constraints (deg tau <= 1, deg sigma <= 2), provides
the closed-form quantization constant

    gamma_n = -n (tau' + (n-1) sigma''/2),

inverts affine parameter maps to obtain physical spectra, and converts
problems into the first-order iteration form used by the iterative solver.
tau and gamma are affine in the physical parameter; both are stored as
``algebra.Affine``, tau with Poly fields and gamma with Fraction fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .aim import AimProblem, ParamRatFunc
from .algebra import Affine, Poly
from .errors import DegenerateParameterMap, InvalidInput, NotHypergeometricType

__all__ = [
    "HypergeometricProblem",
    "validate",
    "gamma_n",
    "eigenvalue",
    "to_aim_form",
]


@dataclass(frozen=True)
class HypergeometricProblem:
    """Validated equation data with an affine map onto one physical parameter.

    ``tau`` (Poly fields) and ``gamma`` (Fraction fields) are ``Affine`` in
    the parameter; classical equations typically have a parameter-free tau
    and the whole parameter dependence in gamma, while transformed potential
    problems carry the parameter in tau as well.
    """

    tau: Affine
    sigma: Poly
    gamma: Affine
    parameter: str = "p"

    def __post_init__(self):
        tau = self.tau
        if not isinstance(tau, Affine) or not all(
            isinstance(p, Poly) for p in (tau.const, tau.slope)
        ):
            raise InvalidInput(f"tau {tau!r} must be a Poly or an Affine of two Polys")
        if not isinstance(self.sigma, Poly):
            raise InvalidInput(f"sigma {self.sigma!r} must be a Poly")
        tau_degree = max(self.tau.const.degree, self.tau.slope.degree)
        if tau_degree > 1:
            raise NotHypergeometricType(f"deg(tau) = {tau_degree} > 1")
        if self.sigma.degree > 2:
            raise NotHypergeometricType(f"deg(sigma) = {self.sigma.degree} > 2")
        if self.sigma.is_zero:
            raise NotHypergeometricType("sigma is identically zero")
        if self.gamma.slope == 0 and self.tau.slope.is_zero:
            raise NotHypergeometricType("no parameter dependence to quantize")


def validate(
    tau: Poly | Affine, sigma: Poly, gamma: tuple = (0, 1), parameter: str = "p"
) -> HypergeometricProblem:
    """Check the degree constraints and build a problem record.

    ``tau`` is an ``Affine`` of two Polys, or a bare Poly when it does not
    depend on the parameter; ``gamma`` is the pair (const, slope), stored as
    an ``Affine`` of two Fractions.

    The record holds no evaluation point: for this input
    delta_k(r0, E) = sigma(r0)^-(k+1) prod_{n<=k} mu_n(E), with
    mu_n = gamma + n tau' + n(n-1) sigma''/2, so r0 never moves a root and
    ``aim.solve_iterative`` picks one off the poles of sigma.

    Raises NotHypergeometricType if deg(tau) > 1 or deg(sigma) > 2, and
    InvalidInput if tau or sigma is not a Poly or a gamma coefficient is
    not an int or a Fraction.
    """
    if isinstance(tau, Poly):
        tau = Affine(tau, Poly())
    const, slope = gamma
    if not all(isinstance(x, (int, Fraction)) for x in gamma):
        raise InvalidInput(f"gamma {gamma!r} must be a pair of ints or Fractions")
    return HypergeometricProblem(tau, sigma, Affine(Fraction(const), Fraction(slope)), parameter)


def gamma_n(tau: Poly, sigma: Poly, n: int) -> Fraction:
    """Quantization constant -n (tau' + (n-1) sigma''/2) for numeric tau."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return -n * (tau.coeff(1) + (n - 1) * sigma.coeff(2))


def eigenvalue(problem: HypergeometricProblem, n: int) -> Fraction:
    """Solve the affine equation gamma_n(p) = gamma(p) for the parameter.

    Both tau' and gamma may depend on p, so the gap gamma_n(p) - gamma(p)
    is affine in p, with constant gamma_n(tau.const) - gamma.const and
    slope -n tau.slope' - gamma.slope (sigma does not depend on p); its
    root is the exact n-th spectrum value.  Raises DegenerateParameterMap
    when the slope vanishes.
    """
    tau, gamma = problem.tau, problem.gamma
    at0 = gamma_n(tau.const, problem.sigma, n) - gamma.const
    slope = -n * tau.slope.coeff(1) - gamma.slope
    if slope == 0:
        raise DegenerateParameterMap(f"parameter coefficient vanishes at n = {n}")
    return -at0 / slope


def to_aim_form(problem: HypergeometricProblem) -> AimProblem:
    """Rewrite as y'' = lambda0 y' + s0 y with lambda0 = -tau/sigma, s0 = -gamma/sigma."""
    tau, gamma = problem.tau, problem.gamma
    lam0 = ParamRatFunc(Affine(-tau.const, -tau.slope), problem.sigma)
    s0 = ParamRatFunc(Affine(Poly.const(-gamma.const), Poly.const(-gamma.slope)), problem.sigma)
    return AimProblem(lam0, s0)
