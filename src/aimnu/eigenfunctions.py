"""Polynomial eigenfunction generation by independent routes.

Three generators for the degree-n solution of sigma y'' + tau y' + g_n y = 0:

* ``polynomial_solution`` -- backward three-term recurrence on the coefficients;
* ``y_low_order``         -- explicit closed forms for n <= 3;
* ``rodrigues``           -- (1/rho) d^n/dr^n [sigma^n rho] with the Pearson
                             weight rho solving (sigma rho)' = tau rho, in
                             the polynomial form that Pearson's equation
                             gives it, so rho itself is never built.

They must agree up to a nonzero scalar; the verification suite enforces
this three-way agreement.  A fourth, potential-specific route evaluates the
terminating hypergeometric closed form of the deformed Hulthen
eigenfunctions term by term, from the exact ratio of consecutive terms (no
gamma-function numerics).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, RatFunc, WeightExpr, integrate_log_derivative
from .errors import (
    DegenerateSpectrum,
    InconsistentGamma,
    OutOfRange,
    PochhammerPole,
)
from .hypergeometric import gamma_n

__all__ = [
    "EigenPolynomial",
    "PearsonWeight",
    "polynomial_solution",
    "y_low_order",
    "pearson_weight",
    "rodrigues",
    "hulthen_eigenfunction",
    "ode_residual",
]


@dataclass(frozen=True)
class EigenPolynomial:
    n: int
    poly: Poly  # monic
    gamma_used: Fraction


@dataclass(frozen=True)
class PearsonWeight:
    weight: WeightExpr


def ode_residual(tau: Poly, sigma: Poly, gamma: Fraction, y: Poly) -> Poly:
    """sigma y'' + tau y' + gamma y, exactly."""
    return sigma * y.derivative().derivative() + tau * y.derivative() + y * gamma


def polynomial_solution(tau: Poly, sigma: Poly, n: int) -> EigenPolynomial:
    """Monic degree-n polynomial solution by a backward three-term recurrence.

    With deg tau <= 1 and deg sigma <= 2, the r^j coefficient of
    sigma y'' + tau y' + gamma_n y for y = sum c_i r^i is

        (gamma_n - gamma_j) c_j + (j+1)(tau(0) + j sigma'(0)) c_(j+1)
                                + (j+1)(j+2) sigma(0) c_(j+2),

    so from c_n = 1 each c_j, j = n-1, ..., 0, follows from the two above it
    (Nikiforov & Uvarov, Special Functions of Mathematical Physics, 1988).
    Raises DegenerateSpectrum when gamma_j = gamma_n for some j < n, and
    verifies the residual is identically zero before returning.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    g = gamma_n(tau, sigma, n)
    t0, s0, s1 = tau.coeff(0), sigma.coeff(0), sigma.coeff(1)
    c = [Fraction(0)] * n + [Fraction(1), Fraction(0)]  # c_0 .. c_n, and c_(n+1) = 0
    for j in range(n - 1, -1, -1):
        pivot = g - gamma_n(tau, sigma, j)
        if pivot == 0:
            raise DegenerateSpectrum(f"gamma_{j} = gamma_{n}; spectrum degenerate")
        c[j] = -((j + 1) * (t0 + j * s1) * c[j + 1] + (j + 1) * (j + 2) * s0 * c[j + 2]) / pivot
    y = Poly(c)
    if not ode_residual(tau, sigma, g, y).is_zero:
        raise InconsistentGamma("residual not identically zero")  # pragma: no cover
    return EigenPolynomial(n, y, g)


def y_low_order(tau: Poly, sigma: Poly, n: int) -> Poly:
    """Explicit closed forms of the first four polynomial solutions.

    Raises InconsistentGamma when the form drops below degree n, as it does
    when gamma_j = gamma_n for some j < n.
    """
    if n < 0 or n > 3:
        raise OutOfRange("explicit closed forms exist for n <= 3 only")
    sp = sigma.derivative()
    spp = sp.derivative()
    tp = tau.derivative()
    if n == 0:
        result = Poly.const(1)
    elif n == 1:
        result = tau
    elif n == 2:
        result = tau * tau + tau * sp + tp * sigma + sigma * spp
    else:
        result = (
            tau * tau * tau
            + 3 * tau * tau * sp
            + 2 * tau * sp * sp
            + 3 * tau * tp * sigma
            + 4 * tp * sigma * sp
            + 5 * tau * sigma * spp
            + 6 * sigma * sp * spp
        )
    if result.degree != n:
        raise InconsistentGamma(f"explicit form degree {result.degree} != {n}")
    return result


def pearson_weight(tau: Poly, sigma: Poly) -> PearsonWeight:
    """Weight rho with (sigma rho)' = tau rho, verified before returning."""
    ratio = RatFunc(tau - sigma.derivative(), sigma)
    rho = integrate_log_derivative(ratio)
    if rho.log_derivative() != ratio:
        raise InconsistentGamma("Pearson identity failed")  # pragma: no cover
    return PearsonWeight(rho)


def rodrigues(tau: Poly, sigma: Poly, n: int) -> Poly:
    """(1/rho) d^n/dr^n [sigma^n rho]; the result always has degree n.

    With d^m/dr^m [sigma^n rho] = sigma^(n-m) rho P_m, Pearson's equation
    sigma rho' = (tau - sigma') rho turns each derivative into the
    polynomial step P_(m+1) = sigma P_m' + ((n-m-1) sigma' + tau) P_m from
    P_0 = 1, and P_n is the exact result (Nikiforov & Uvarov, Special
    Functions of Mathematical Physics, 1988).
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    sigma_prime = sigma.derivative()
    result = Poly.const(1)
    for m in range(n):
        result = sigma * result.derivative() + ((n - m - 1) * sigma_prime + tau) * result
    if result.degree != n:
        raise InconsistentGamma(f"Rodrigues output degree {result.degree} != {n}")
    return result


def hulthen_eigenfunction(n: int, q: Fraction, epsilon_n: Fraction) -> Poly:
    """Terminating 2F1 closed form of the deformed Hulthen eigenfunctions.

    y_n(r) = (-1)^n (2e+1)_n * 2F1(-n, 2e+n+2; 2e+1; q r) with e = epsilon_n,
    summed from the prefactor (-1)^n (2e+1)_n, the gamma ratio as a rising
    factorial, by the term ratio
    t_(m+1)/t_m = (m-n)(2e+n+2+m) q / ((2e+1+m)(m+1)); no gamma function is
    ever evaluated numerically.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    two_e = 2 * Fraction(epsilon_n)
    for m in range(1, n + 1):
        if two_e + m == 0:
            raise PochhammerPole(f"2*epsilon_n + {m} = 0")
    term = Fraction((-1) ** n)
    for i in range(1, n + 1):
        term *= two_e + i  # the prefactor (-1)^n (2e+1)_n
    coeffs = [term]
    for m in range(n):
        term *= (m - n) * (two_e + n + 2 + m) * q / ((two_e + 1 + m) * (m + 1))
        coeffs.append(term)
    return Poly(coeffs)
