"""Nikiforov--Uvarov reduction pipeline.

Starting from  psi'' + (tauTilde/sigma) psi' + (sigmaTilde/sigma^2) psi = 0
the substitution psi = phi * y reduces the equation to hypergeometric type
once a linear pi(r) and a constant k are chosen so that the radicand

    u(r; k) = ((sigma' - tauTilde)/2)^2 - sigmaTilde + k*sigma

is the square of a polynomial.  The module enumerates all rational (k, pi)
candidates, forms the reduced tau = tauTilde + 2*pi, the eigenparameter
lambdaBar = k + pi', and the factor phi with phi'/phi = pi/sigma.

The search runs on the integer coefficients of the problem over one common
denominator (``algebra.cleared``): the discriminant of the radicand in r is
an integer quadratic in k.  Its rational roots, integer pairs p/q from one
isqrt in ``algebra._quadratic_roots``, each take one more perfect-square test,
``algebra._isqrt_exact``.  ``_search`` returns every candidate as integers;
``_build`` turns candidates into records.  sigma's rational roots are found
once per build, by the same routine on sigma's integers, whose discriminant
is that quadratic's leading coefficient m^2 disc(sigma).  phi comes from
``algebra._weight``, the core that ``integrate_log_derivative`` (and so
``build_phi``) shares, fed pi's numerators and sigma's roots.  phi is None
(printed ``unsupported``) exactly when ``_weight`` refuses: pi != 0 over a
quadratic sigma with no rational root.  ``nu_solve`` picks its branch by the
sign of tau's integer slope numerator and builds only that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, WeightExpr, cleared, integrate_log_derivative
from .algebra import _isqrt_exact, _poly, _quadratic_roots, _weight
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
        for name, p in (("tauTilde", self.tau_tilde), ("sigma", self.sigma), ("sigmaTilde", self.sigma_tilde)):
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


def nu_find_k(problem: NuProblem) -> list[NuReduction]:
    """All rational (k, pi) pairs making the radicand a perfect square.

    Runs on integers.  With T = m tauTilde, S = m sigma and Q = m sigmaTilde
    from ``algebra.cleared``, H = S' - T and U = H^2 - 4mQ, the radicand
    is 4 m^2 u(r; k) = U + K S with K = 4 m k.  Its discriminant in r is
    A K^2 + 2 B K + C, whose rational roots K = p/q come as integer pairs
    from one isqrt in ``algebra``'s integer quadratic routine.  A root gives a
    square exactly when V = q U + p S is q times a square (W/w)^2, one more
    isqrt, and then pi = (H +- W/w)/(2m) = P/(2mw) and lambdaBar = k + pi' =
    (p w + 2 q P1)/(4mqw).  Candidates come k ascending, +W before -W; ``_search``
    finds them as integers, and ``_build`` makes every record.
    sigma's rational roots are found once, from S, whose discriminant is A; phi is the
    weight of pi/sigma = P/(2w S) from them, the one ``build_phi`` gives, and None
    exactly when ``_weight`` refuses it (pi != 0 over a quadratic sigma with no rational
    root), where ``build_phi`` raises.  Raises NoRationalReduction when no candidate exists.
    """
    return _build(*_search(problem))


def _search(problem: NuProblem) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """(m, S, candidates) of ``nu_find_k``: each candidate (p, q, w, P0, P1, t0, t1), in its
    order, has k = p/(4mq), pi = (P0 + P1 r)/(2mw) and tau = (t0 + t1 r)/(mw), with q, w > 0."""
    (T, S, Q), m = cleared(problem.tau_tilde, problem.sigma, problem.sigma_tilde)
    (T0, T1), (S0, S1, S2), (Q0, Q1, Q2) = (T + [0, 0])[:2], (S + [0, 0])[:3], (Q + [0, 0, 0])[:3]
    H0, H1 = S1 - T0, 2 * S2 - T1
    U0, U1, U2 = H0 * H0 - 4 * m * Q0, 2 * H0 * H1 - 4 * m * Q1, H1 * H1 - 4 * m * Q2
    A, B, C = S1 * S1 - 4 * S0 * S2, U1 * S1 - 2 * U2 * S0 - 2 * U0 * S2, U1 * U1 - 4 * U0 * U2
    if not (A or B or C):
        if U0 or U1 or U2:
            raise NoRationalReduction(
                "one-parameter family of perfect squares; no discrete rational k"
            )
        roots = [(0, 1, 1)]  # the radicand vanishes identically at k = 0
    else:
        roots = _quadratic_roots(C, 2 * B, A)

    candidates = []
    for p, q, _ in roots:
        V0, V1, V2 = q * U0 + p * S0, q * U1 + p * S1, q * U2 + p * S2
        R = _isqrt_exact(q * (V2 or V0))
        if R is None:
            continue
        (W0, W1), w = ((V1, 2 * V2), 2 * R) if V2 else ((R, 0), q)  # the square root of V/q is W/w
        for sW0, sW1 in ((W0, W1), (-W0, -W1)) if R else ((W0, W1),):  # +W, then -W
            # tauTilde + 2 pi = (S' +- W/w)/m, as T + H = S'
            candidates.append((p, q, w, w * H0 + sW0, w * H1 + sW1, w * S1 + sW0, 2 * w * S2 + sW1))
    if not candidates:
        raise NoRationalReduction("no rational k gives a perfect-square radicand")
    return m, S, candidates


def _build(m: int, S: list[int], candidates: list[tuple[int, ...]]) -> list[NuReduction]:
    """The NuReduction of each ``_search`` candidate."""
    sigma_roots = _quadratic_roots(*(S + [0, 0])[:3])
    reductions = []
    for p, q, w, P0, P1, t0, t1 in candidates:
        phi = _weight([P0, P1], [2 * w * s for s in S], sigma_roots)
        lambda_bar = Fraction(p * w + 2 * q * P1, 4 * m * q * w)
        pi, tau = _poly([P0, P1], 2 * m * w), _poly([t0, t1], m * w)
        reductions.append(NuReduction(Fraction(p, 4 * m * q), pi, lambda_bar, tau, phi))
    return reductions


def build_phi(pi: Poly, sigma: Poly) -> WeightExpr:
    """Integrate phi'/phi = pi/sigma, on integers, into a weight expression."""
    return integrate_log_derivative(pi, sigma)


def nu_solve(problem: NuProblem, n: int) -> tuple[Fraction, NuReduction]:
    """Pick a reduction branch and return (lambdaBar_n, reduction).

    The branch is the unique candidate with tau' < 0 (the conventional
    bound-state choice), and only its record is built.  When no candidate or
    more than one qualifies, AmbiguousBranch is raised with the full candidate
    list; candidates are never discarded silently, and ``nu_find_k`` returns
    every one.  The reduction's own ``lambda_bar`` is returned alongside the
    mode value; equality of the two is the bound-state condition, judged by the caller.
    """
    m, S, candidates = _search(problem)
    negative = [c for c in candidates if c[-1] < 0]  # tau' = t1/(mw), with m w > 0
    if len(negative) != 1:
        raise AmbiguousBranch(
            f"{len(negative)} candidates with tau' < 0; choose one from nu_find_k "
            f"(candidates: {_build(m, S, candidates)})"
        )
    (reduction,) = _build(m, S, negative)
    return gamma_n(reduction.tau, problem.sigma, n), reduction
