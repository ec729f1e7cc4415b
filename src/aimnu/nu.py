"""Nikiforov--Uvarov reduction pipeline.

Starting from  psi'' + (tauTilde/sigma) psi' + (sigmaTilde/sigma^2) psi = 0
the substitution psi = phi * y reduces the equation to hypergeometric type
once a linear pi(r) and a constant k are chosen so that the radicand

    u(r; k) = ((sigma' - tauTilde)/2)^2 - sigmaTilde + k*sigma

is the square of a polynomial.  The module enumerates all rational (k, pi)
candidates, forms the reduced tau = tauTilde + 2*pi, the eigenparameter
lambdaBar = k + pi', and the factor phi with phi'/phi = pi/sigma, read
off the integers of pi and sigma by ``algebra.integrate_log_derivative``.

The search runs on the integer coefficients of the problem over one common
denominator (``algebra.cleared``): the discriminant of the radicand in r is
an integer quadratic in k.  Its rational roots take one isqrt of its
discriminant, in ``algebra._quadratic_roots``, and each root's perfect-square
test takes one more, ``algebra._isqrt_exact``.  phi is left out (None, printed
``unsupported``) exactly when pi != 0 and sigma has no rational root, which the
leading coefficient of that quadratic, m^2 disc(sigma), shows with no factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .algebra import Poly, WeightExpr, cleared, integrate_log_derivative
from .algebra import _derivative, _dot, _isqrt_exact, _poly, _quadratic_roots
from .errors import AmbiguousBranch, InvalidInput, NoRationalReduction, NotHypergeometricType
from .hypergeometric import gamma_n

__all__ = [
    "NuProblem",
    "NuReduction",
    "nu_find_k",
    "build_phi",
    "nu_solve",
]


@dataclass(frozen=True)
class NuProblem:
    tau_tilde: Poly
    sigma: Poly
    sigma_tilde: Poly

    def __post_init__(self):
        fields = {"tauTilde": self.tau_tilde, "sigma": self.sigma, "sigmaTilde": self.sigma_tilde}
        for name, p in fields.items():
            if not isinstance(p, Poly):
                raise InvalidInput(f"{name} {p!r} must be a Poly")
        if self.tau_tilde.degree > 1:
            raise NotHypergeometricType("deg(tauTilde) > 1")
        if self.sigma.degree > 2 or self.sigma.is_zero:
            raise NotHypergeometricType("sigma must be nonzero with degree <= 2")
        if self.sigma_tilde.degree > 2:
            raise NotHypergeometricType("deg(sigmaTilde) > 2")


@dataclass(frozen=True)
class NuReduction:
    """One admissible (k, pi) choice and everything derived from it."""

    k: Fraction
    pi: Poly
    lambda_bar: Fraction
    tau: Poly
    phi: WeightExpr | None

    @property
    def tau_slope(self) -> Fraction:
        return self.tau.coeff(1)


def nu_find_k(problem: NuProblem) -> list[NuReduction]:
    """All rational (k, pi) pairs making the radicand a perfect square.

    Runs on integers.  With T = m tauTilde, S = m sigma and Q = m sigmaTilde
    from ``algebra.cleared``, H = S' - T and U = H^2 - 4mQ, the radicand
    is 4 m^2 u(r; k) = U + K S with K = 4 m k.  Its discriminant in r is
    A K^2 + 2 B K + C, whose rational roots take one isqrt in ``algebra``'s
    integer quadratic routine.  A root K = p/q gives a square exactly when
    V = q U + p S is q W^2, one more isqrt, and then pi = (H +- W)/(2m).
    Candidates come k ascending, +W before -W.  phi is None when pi != 0 and A, m^2 times
    sigma's discriminant, is no square: sigma is then a quadratic with no rational root,
    the case ``build_phi`` refuses.  Raises NoRationalReduction when no candidate exists.
    """
    (T, S, Q), m = cleared(problem.tau_tilde, problem.sigma, problem.sigma_tilde)
    dS = _derivative(S)
    H = _dot(((dS, [1]), (T, [-1])))
    U = _dot(((H, H), (Q, [-4 * m])))
    (S0, S1, S2), (U0, U1, U2) = ((*P, 0, 0, 0)[:3] for P in (S, U))
    A, B, C = S1 * S1 - 4 * S0 * S2, U1 * S1 - 2 * U2 * S0 - 2 * U0 * S2, U1 * U1 - 4 * U0 * U2
    if not (A or B or C):
        if U:
            raise NoRationalReduction(
                "one-parameter family of perfect squares; no discrete rational k"
            )
        roots = [Fraction(0)]  # the radicand vanishes identically at k = 0
    else:
        roots = [K for K, _ in _quadratic_roots(C, 2 * B, A)]

    irreducible = _isqrt_exact(A) is None
    candidates: list[NuReduction] = []
    for K in roots:
        p, q = K.numerator, K.denominator
        V0, V1, V2 = (q * u + p * s for u, s in ((U0, S0), (U1, S1), (U2, S2)))
        R = _isqrt_exact(q * (V2 or V0))
        if R is None:
            continue
        W, w = ([V1, 2 * V2], 2 * R) if V2 else ([R], q)  # the square root of V/q is W/w
        k = Fraction(p, 4 * m * q)
        for sign in (1, -1) if R else (1,):
            pi = _poly([w * h + sign * x for h, x in zip_longest(H, W, fillvalue=0)], 2 * m * w)
            # tauTilde + 2 pi = (S' +- W/w)/m, as T + H = S'
            tau = _poly([w * ds + sign * x for ds, x in zip_longest(dS, W, fillvalue=0)], m * w)
            phi = None if irreducible and not pi.is_zero else build_phi(pi, problem.sigma)
            candidates.append(NuReduction(k, pi, k + pi.coeff(1), tau, phi))
    if not candidates:
        raise NoRationalReduction("no rational k gives a perfect-square radicand")
    return candidates


def build_phi(pi: Poly, sigma: Poly) -> WeightExpr:
    """Integrate phi'/phi = pi/sigma, on integers, into a weight expression."""
    return integrate_log_derivative(pi, sigma)


def nu_solve(problem: NuProblem, n: int) -> tuple[Fraction, NuReduction]:
    """Pick a reduction branch and return (lambdaBar_n, reduction).

    The branch is the unique candidate with tau' < 0 (the conventional
    bound-state choice).  When no candidate or more than one qualifies,
    AmbiguousBranch is raised with the full candidate list; candidates are
    never discarded silently, and ``nu_find_k`` returns every one.  The
    reduction's own ``lambda_bar`` is returned alongside the mode value;
    equality of the two is the bound-state condition, judged by the caller.
    """
    candidates = nu_find_k(problem)
    negative = [c for c in candidates if c.tau_slope < 0]
    if len(negative) != 1:
        raise AmbiguousBranch(
            f"{len(negative)} candidates with tau' < 0; choose one from nu_find_k "
            f"(candidates: {candidates})"
        )
    return gamma_n(negative[0].tau, problem.sigma, n), negative[0]
