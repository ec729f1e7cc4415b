"""Hypergeometric-type equations sigma y'' + tau y' + gamma y = 0.

``HypergeometricProblem`` is the one record of an equation for every route,
with tau and gamma affine in the physical parameter.  Under the caps
deg tau <= 1, deg sigma <= 2 and gamma constant in r, which ``validate``
and ``eigenvalue`` check, the closed-form quantization constant is

    gamma_n = -n (tau' + (n-1) sigma''/2),

and ``eigenvalue`` inverts the affine parameter map to obtain physical spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Affine, Poly
from .errors import DegenerateParameterMap, InvalidInput, NotHypergeometricType

__all__ = [
    "HypergeometricProblem",
    "validate",
    "gamma_n",
    "eigenvalue",
]


@dataclass(frozen=True)
class HypergeometricProblem:
    """Equation data with an affine map onto one physical parameter.

    ``tau`` is an ``Affine`` of two Polys and ``sigma`` a nonzero Poly, of
    any degree; ``gamma`` is an ``Affine`` of two Fractions when it is
    constant in r, else of two Polys.  Classical equations typically have
    a parameter-free tau and the whole parameter dependence in gamma, while
    transformed potential problems carry the parameter in tau as well.
    """

    tau: Affine
    sigma: Poly
    gamma: Affine
    parameter: str = "p"

    def __post_init__(self):
        tau, gamma = self.tau, self.gamma
        if not isinstance(tau, Affine) or {type(tau.const), type(tau.slope)} != {Poly}:
            raise InvalidInput(f"tau {tau!r} must be a Poly or an Affine of two Polys")
        if not isinstance(self.sigma, Poly):
            raise InvalidInput(f"sigma {self.sigma!r} must be a Poly")
        kinds = {type(gamma.const), type(gamma.slope)} if isinstance(gamma, Affine) else None
        if kinds not in ({Fraction}, {Poly}):
            raise InvalidInput(f"gamma {gamma!r} must be an Affine of two Fractions or two Polys")
        if self.sigma.is_zero:
            raise NotHypergeometricType("sigma is identically zero")


def _check_caps(problem: HypergeometricProblem) -> None:
    """Raise NotHypergeometricType outside the caps, or with nothing to quantize."""
    tau, gamma = problem.tau, problem.gamma
    tau_degree = max(tau.const.degree, tau.slope.degree)
    if tau_degree > 1:
        raise NotHypergeometricType(f"deg(tau) = {tau_degree} > 1")
    if problem.sigma.degree > 2:
        raise NotHypergeometricType(f"deg(sigma) = {problem.sigma.degree} > 2")
    if isinstance(gamma.const, Poly):
        raise NotHypergeometricType("gamma depends on r")
    if gamma.slope == 0 and tau.slope.is_zero:
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
    ``aim.solve_iterative`` picks one off the roots of sigma.

    Raises NotHypergeometricType if deg(tau) > 1 or deg(sigma) > 2, and
    InvalidInput if tau or sigma is not a Poly or gamma is not a pair of
    ints or Fractions.
    """
    if isinstance(tau, Poly):
        tau = Affine(tau, Poly())
    const, slope = gamma if isinstance(gamma, (tuple, list)) and len(gamma) == 2 else (None, None)
    if not all(isinstance(x, (int, Fraction)) for x in (const, slope)):
        raise InvalidInput(f"gamma {gamma!r} must be a pair of ints or Fractions")
    problem = HypergeometricProblem(tau, sigma, Affine(Fraction(const), Fraction(slope)), parameter)
    _check_caps(problem)
    return problem


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
    root is the exact n-th spectrum value.  Raises NotHypergeometricType
    outside the caps and DegenerateParameterMap when the slope vanishes.
    """
    _check_caps(problem)
    tau, gamma = problem.tau, problem.gamma
    at0 = gamma_n(tau.const, problem.sigma, n) - gamma.const
    slope = -n * tau.slope.coeff(1) - gamma.slope
    if slope == 0:
        raise DegenerateParameterMap(f"parameter coefficient vanishes at n = {n}")
    return -at0 / slope


def to_aim_form(problem: HypergeometricProblem) -> HypergeometricProblem:
    """The record itself, as ``aim`` reads it; kept for ``benchmarks/workloads.py``."""
    return problem
