"""Polynomial eigenfunction generation by independent routes.

Three generators for the degree-n solution of sigma y'' + tau y' + g_n y = 0:

* ``polynomial_solution`` -- exact linear solve on the coefficient vector;
* ``y_low_order``         -- explicit closed forms for n <= 3;
* ``rodrigues``           -- (1/rho) d^n/dr^n [sigma^n rho] with the Pearson
                             weight rho solving (sigma rho)' = tau rho, in
                             the polynomial form that Pearson's equation
                             gives it, so rho itself is never built.

They must agree up to a nonzero scalar; the verification suite enforces
this three-way agreement.  A fourth, potential-specific route evaluates the
terminating hypergeometric closed form of the deformed Hulthen
eigenfunctions with exact rising factorials (no gamma-function numerics).
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
    """Monic degree-n polynomial solution via an exact linear solve.

    Builds the banded system on the coefficients c_0..c_{n-1} (c_n = 1)
    and verifies the residual is identically zero before returning.
    Raises DegenerateSpectrum when the solution space is not unique and
    InconsistentGamma when no degree-n solution exists.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    g = gamma_n(tau, sigma, n)
    if n == 0:
        return EigenPolynomial(0, Poly.const(1), g)

    def image(i: int) -> Poly:
        basis = Poly([0] * i + [1])
        return ode_residual(tau, sigma, g, basis)

    columns = [image(i) for i in range(n + 1)]
    rows = n + 1  # coefficients r^0 .. r^n of the residual
    matrix = [[columns[i].coeff(j) for i in range(n)] for j in range(rows)]
    rhs = [-columns[n].coeff(j) for j in range(rows)]
    solution = _solve_exact(matrix, rhs, n)
    y = Poly(solution + [Fraction(1)])
    if not ode_residual(tau, sigma, g, y).is_zero:
        raise InconsistentGamma("residual not identically zero")  # pragma: no cover
    return EigenPolynomial(n, y, g)


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction], n_unknowns: int) -> list[Fraction]:
    """Gaussian elimination over Fraction for an overdetermined consistent system."""
    m = [row[:] + [b] for row, b in zip(matrix, rhs)]
    rows = len(m)
    pivot_rows: list[int] = []
    row = 0
    for col in range(n_unknowns):
        pivot = next((r for r in range(row, rows) if m[r][col] != 0), None)
        if pivot is None:
            raise DegenerateSpectrum(
                "coefficient system is rank-deficient; spectrum degenerate"
            )
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for r in range(rows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivot_rows.append(row)
        row += 1
    for r in range(row, rows):
        if m[r][n_unknowns] != 0:
            raise InconsistentGamma("no degree-n polynomial solution")
    return [m[r][n_unknowns] for r in pivot_rows]


def y_low_order(tau: Poly, sigma: Poly, n: int) -> Poly:
    """Explicit closed forms of the first four polynomial solutions."""
    if n < 0 or n > 3:
        raise OutOfRange("explicit forms exist for n <= 3 only")
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return tau
    sp = sigma.derivative()
    spp = sp.derivative()
    tp = tau.derivative()
    if n == 2:
        return tau * tau + tau * sp + tp * sigma + sigma * spp
    return (
        tau * tau * tau
        + 3 * tau * tau * sp
        + 2 * tau * sp * sp
        + 3 * tau * tp * sigma
        + 4 * tp * sigma * sp
        + 5 * tau * sigma * spp
        + 6 * sigma * sp * spp
    )


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


def _rising(a: Fraction, m: int) -> Fraction:
    prod = Fraction(1)
    for i in range(m):
        prod *= a + i
    return prod


def hulthen_eigenfunction(n: int, q: Fraction, epsilon_n: Fraction) -> Poly:
    """Terminating 2F1 closed form of the deformed Hulthen eigenfunctions.

    y_n(r) = (-1)^n (2e+1)_n * 2F1(-n, 2e+n+2; 2e+1; q r) with e = epsilon_n,
    evaluated as a finite sum with exact Pochhammer ratios.  The gamma-ratio
    prefactor is the rising factorial (2e+1)_n; no gamma function is ever
    evaluated numerically.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    two_e = 2 * Fraction(epsilon_n)
    for m in range(1, n + 1):
        if two_e + m == 0:
            raise PochhammerPole(f"2*epsilon_n + {m} = 0")
    prefactor = (-1) ** n * _rising(two_e + 1, n)
    coeffs = []
    for m in range(n + 1):
        term = (
            _rising(Fraction(-n), m)
            * _rising(two_e + n + 2, m)
            / (_rising(two_e + 1, m) * _rising(Fraction(1), m))
        )
        coeffs.append(prefactor * term * q**m)
    return Poly(coeffs)
