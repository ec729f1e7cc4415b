"""Hypergeometric-type equations sigma y'' + tau y' + gamma y = 0.

``HypergeometricProblem`` is the one record of an equation for every route,
with tau and gamma affine in the physical parameter.  The record holds the
caps deg tau <= 1, deg sigma <= 2 and gamma constant in r: no other record
can be built.  Under them the closed-form quantization constant is

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

    Classical equations typically have a parameter-free tau and the whole
    parameter dependence in gamma, while transformed potential problems
    carry the parameter in tau as well.  The record holds the caps and
    checks them in this order: tau an ``Affine`` of two Polys and sigma a
    Poly, sigma nonzero, deg(tau) <= 1, deg(sigma) <= 2, gamma an ``Affine``
    of two Fractions, and a parameter that enters tau' or gamma.  A wrong
    type raises InvalidInput, the rest NotHypergeometricType.
    """

    tau: Affine
    sigma: Poly
    gamma: Affine
    parameter: str = "p"

    def __post_init__(self):
        tau, sigma, gamma = self.tau, self.sigma, self.gamma
        if not isinstance(tau, Affine) or {type(tau.const), type(tau.slope)} != {Poly}:
            raise InvalidInput(f"tau {tau!r} must be a Poly or an Affine of two Polys")
        if not isinstance(sigma, Poly):
            raise InvalidInput(f"sigma {sigma!r} must be a Poly")
        if sigma.is_zero:
            raise NotHypergeometricType("sigma is identically zero")
        tau_degree = max(tau.const.degree, tau.slope.degree)
        if tau_degree > 1:
            raise NotHypergeometricType(f"deg(tau) = {tau_degree} > 1")
        if sigma.degree > 2:
            raise NotHypergeometricType(f"deg(sigma) = {sigma.degree} > 2")
        if not isinstance(gamma, Affine) or {type(gamma.const), type(gamma.slope)} != {Fraction}:
            raise InvalidInput(f"gamma {gamma!r} must be an Affine of two Fractions")
        if gamma.slope == 0 and tau.slope.coeff(1) == 0:  # the parameter enters through tau' and gamma
            raise NotHypergeometricType("no parameter dependence to quantize")


def validate(
    tau: Poly | Affine, sigma: Poly, gamma: tuple = (0, 1), parameter: str = "p"
) -> HypergeometricProblem:
    """Build a problem record, which checks the caps.

    ``tau`` is an ``Affine`` of two Polys, or a bare Poly when it does not
    depend on the parameter; ``gamma`` is the pair (const, slope), stored as
    an ``Affine`` of two Fractions.

    The record holds no evaluation point: for this input r0 moves no root
    of delta_k(r0, E), and ``aim.solve_iterative`` picks one off sigma's roots.

    Raises InvalidInput if gamma is not a pair of ints or Fractions, and
    whatever the record raises.
    """
    if isinstance(tau, Poly):
        tau = Affine(tau, Poly())
    const, slope = gamma if isinstance(gamma, (tuple, list)) and len(gamma) == 2 else (None, None)
    if not all(isinstance(x, (int, Fraction)) for x in (const, slope)):
        raise InvalidInput(f"gamma {gamma!r} must be a pair of ints or Fractions")
    return HypergeometricProblem(tau, sigma, Affine(Fraction(const), Fraction(slope)), parameter)


def gamma_n(tau: Poly, sigma: Poly, n: int) -> Fraction:
    """Quantization constant -n (tau' + (n-1) sigma''/2) for numeric tau, as one Fraction.

    Raises NotHypergeometricType beyond the caps deg tau <= 1 and deg sigma <= 2,
    where the closed form does not hold.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if tau.degree > 1 or sigma.degree > 2:
        raise NotHypergeometricType(f"deg(tau) = {tau.degree}, deg(sigma) = {sigma.degree}")
    (t1, dt), (s2, ds) = tau.coeff_pair(1), sigma.coeff_pair(2)
    return Fraction(-n * (t1 * ds + (n - 1) * s2 * dt), dt * ds)


def eigenvalue(problem: HypergeometricProblem, n: int) -> Fraction:
    """Solve the affine equation gamma_n(p) = gamma(p) for the parameter.

    Both tau' and gamma may depend on p, so the gap gamma_n(p) - gamma(p)
    is affine in p, with constant gamma_n(tau.const) - gamma.const and
    slope -n tau.slope' - gamma.slope (sigma does not depend on p); its
    root is the exact n-th spectrum value.  Raises DegenerateParameterMap
    when the slope vanishes.  Both run on integer numerators over their
    denominators (``Poly.coeff_pair``): the root is one Fraction of two integers.
    """
    c, e = problem.gamma.const, problem.gamma.slope
    (a1, da), (b1, db) = problem.tau.const.coeff_pair(1), problem.tau.slope.coeff_pair(1)
    s2, ds = problem.sigma.coeff_pair(2)
    # minus the gap's slope times db e_den, then minus its constant times da ds c_den
    slope = n * b1 * e.denominator + e.numerator * db
    if slope == 0:
        raise DegenerateParameterMap(f"parameter coefficient vanishes at n = {n}")
    at0 = n * (a1 * ds + (n - 1) * s2 * da) * c.denominator
    at0 += c.numerator * da * ds
    return Fraction(-at0 * db * e.denominator, slope * da * ds * c.denominator)


def to_aim_form(problem: HypergeometricProblem) -> HypergeometricProblem:
    """The record itself, as ``aim`` reads it; kept for ``benchmarks/workloads.py``."""
    return problem
