"""Polynomial eigenfunction generation by independent routes.

Three generators for the degree-n solution of sigma y'' + tau y' + g_n y = 0:

* ``polynomial_solution`` -- backward three-term recurrence on the coefficients;
* ``y_low_order``         -- explicit closed forms for n <= 3;
* ``rodrigues``           -- (1/rho) d^n/dr^n [sigma^n rho] with the Pearson
                             weight rho solving (sigma rho)' = tau rho, in
                             the polynomial form that Pearson's equation
                             gives it, so rho itself is never built.

All three run on integer lists, tau = T/m and sigma = S/m from one
``algebra.cleared``, and build one Poly at the end.  As deg S <= 2, each
Rodrigues step updates a coefficient from three old ones, and each explicit
form, homogeneous of degree n in (tau, sigma), is a sum of products of T and
S over m^n.  The explicit forms are the Rodrigues formula expanded, so the
two are equal for n <= 3, and the recursion output is the monic multiple of
Rodrigues; the verification suite checks that all three agree up to a nonzero
scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .algebra import Poly, WeightExpr, cleared, integrate_log_derivative
from .algebra import _derivative, _dot, _poly
from .errors import DegenerateSpectrum, InconsistentGamma, NotHypergeometricType, OutOfRange
from .hypergeometric import gamma_n

__all__ = [
    "EigenPolynomial",
    "PearsonWeight",
    "polynomial_solution",
    "y_low_order",
    "pearson_weight",
    "rodrigues",
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


def _cleared(tau: Poly, sigma: Poly) -> tuple[list[int], list[int], int]:
    """[T0, T1], [S0, S1, S2] and m of ``algebra.cleared``, tau = T/m and sigma = S/m, within the caps."""
    (T, S), m = cleared(tau, sigma)
    if len(T) > 2 or len(S) > 3:
        raise NotHypergeometricType(f"deg(tau) = {tau.degree}, deg(sigma) = {sigma.degree}")
    return T + [0] * (2 - len(T)), S + [0] * (3 - len(S)), m


def polynomial_solution(tau: Poly, sigma: Poly, n: int) -> EigenPolynomial:
    """Monic degree-n polynomial solution by a backward three-term recurrence.

    With deg tau <= 1 and deg sigma <= 2, the r^j coefficient of
    sigma y'' + tau y' + gamma_n y for y = sum c_i r^i is

        (gamma_n - gamma_j) c_j + (j+1)(tau(0) + j sigma'(0)) c_(j+1)
                                + (j+1)(j+2) sigma(0) c_(j+2),

    so from c_n = 1 each c_j, j = n-1, ..., 0, follows from the two above it
    (Nikiforov & Uvarov, Special Functions of Mathematical Physics, 1988).

    It runs on integers.  With tau = T/m and sigma = S/m cleared, m times
    the three weights are the pivot P_j = -(n-j)(T_1 + (n+j-1) S_2), from
    gamma_n - gamma_j in closed form, A_j = (j+1)(T_0 + j S_1) and
    B_j = (j+1)(j+2) S_0.  Carrying c_j = M_j / (P_j ... P_(n-1)) gives the
    division-free M_j = -(A_j M_(j+1) + B_j P_(j+1) M_(j+2)) from M_n = 1,
    and the coefficients go over the one denominator P_0 ... P_(n-1).

    Raises DegenerateSpectrum when gamma_j = gamma_n for some j < n, and
    verifies the residual is identically zero before returning.
    """
    g = gamma_n(tau, sigma, n)
    T, S, m = _cleared(tau, sigma)
    pivots = [-(n - j) * (T[1] + (n + j - 1) * S[2]) for j in range(n + 1)]  # P_n = 0
    M = [0] * n + [1, 0]  # M_0 .. M_n, and M_(n+1) = 0
    for j in range(n - 1, -1, -1):
        if not pivots[j]:
            raise DegenerateSpectrum(f"gamma_{j} = gamma_{n}; spectrum degenerate")
        a, b = (j + 1) * (T[0] + j * S[1]), (j + 1) * (j + 2) * S[0]
        M[j] = -(a * M[j + 1] + b * pivots[j + 1] * M[j + 2])
    prefixes = list(accumulate(pivots[:n], mul, initial=1))  # P_0 ... P_(j-1)
    nums = [mj * pj for mj, pj in zip(M, prefixes)]
    gd, y1 = g.denominator, _derivative(nums)
    if _dot([([gd * v for v in S], _derivative(y1)), ([gd * v for v in T], y1), ([m * g.numerator], nums)]):
        raise InconsistentGamma("residual not identically zero")
    return EigenPolynomial(n, _poly(nums, prefixes[-1]), g)


def y_low_order(tau: Poly, sigma: Poly, n: int) -> Poly:
    """Explicit closed forms of the first four polynomial solutions.  Every term
    of y_n is homogeneous of degree n in (tau, sigma), so with tau = T/m and
    sigma = S/m the form is the same sum in T and S over m^n.

    Raises InconsistentGamma when the form drops below degree n, as it does
    when gamma_j = gamma_n for some j < n.
    """
    if n < 0 or n > 3:
        raise OutOfRange("explicit closed forms exist for n <= 3 only")
    T, S, m = _cleared(tau, sigma)
    t1, s2, S1 = T[1], S[2], _derivative(S)
    if n < 2:  # 1 and tau
        nums = T if n else [1]
    elif n == 2:  # tau^2 + tau sigma' + tau' sigma + sigma sigma''
        nums = _dot([(T, T), (T, S1), ([t1], S), (S, [2 * s2])])
    else:  # tau^3 + 3 tau^2 sigma' + 2 tau sigma'^2 + 3 tau tau' sigma
        #      + 4 tau' sigma sigma' + 5 tau sigma sigma'' + 6 sigma sigma' sigma''
        tt, ts, ss1 = _dot([(T, T)]), _dot([(T, S)]), _dot([(S, S1)])
        pairs = [(tt, T), (tt, [3 * v for v in S1]), (_dot([(T, S1)]), [2 * v for v in S1])]
        nums = _dot(pairs + [([3 * t1], ts), ([4 * t1], ss1), ([10 * s2], ts), ([12 * s2], ss1)])
    result = _poly(nums, m**n)
    if result.degree != n:
        raise InconsistentGamma(f"explicit form degree {result.degree} != {n}")
    return result


def pearson_weight(tau: Poly, sigma: Poly) -> PearsonWeight:
    """Weight rho with (sigma rho)' = tau rho, integrated on integers from
    rho'/rho = (tau - sigma')/sigma; the ``eigenfunctions`` verify suite checks it."""
    return PearsonWeight(integrate_log_derivative(tau - sigma.derivative(), sigma))


def rodrigues(tau: Poly, sigma: Poly, n: int) -> Poly:
    """(1/rho) d^n/dr^n [sigma^n rho]; the result always has degree n.

    With d^k/dr^k [sigma^n rho] = sigma^(n-k) rho P_k, Pearson's equation
    sigma rho' = (tau - sigma') rho turns each derivative into the
    polynomial step P_(k+1) = sigma P_k' + ((n-k-1) sigma' + tau) P_k from
    P_0 = 1, and P_n is the exact result (Nikiforov & Uvarov, Special
    Functions of Mathematical Physics, 1988).

    It runs on integers: with tau = T/m and sigma = S/m cleared, Q_k = m^k P_k
    obeys the same step in S and T, with L0 + L1 r = (n-k-1) S' + T, from
    Q_0 = [1], so the result is Q_n / m^n; as deg S <= 2, coefficient-wise

        Q_(k+1)[i] = S0 (i+1) Q_k[i+1] + (S1 i + L0) Q_k[i] + (S2 (i-1) + L1) Q_k[i-1].
    """
    if n < 0:
        raise OutOfRange("n must be non-negative")
    (t0, t1), (s0, s1, s2), m = _cleared(tau, sigma)
    Q = [1]
    for j in range(n - 1, -1, -1):  # j = n-k-1 at step k
        l0, l1 = j * s1 + t0, 2 * j * s2 + t1
        Q = [s0 * (i + 1) * a + (s1 * i + l0) * b + (s2 * (i - 1) + l1) * c
             for i, (a, b, c) in enumerate(zip(Q[1:] + [0, 0], Q + [0], [0] + Q))]
    result = _poly(Q, m**n)
    if result.degree != n:
        raise InconsistentGamma(f"Rodrigues output degree {result.degree} != {n}")
    return result
