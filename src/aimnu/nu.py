"""Nikiforov--Uvarov reduction pipeline.

Starting from  psi'' + (tauTilde/sigma) psi' + (sigmaTilde/sigma^2) psi = 0
the substitution psi = phi * y reduces the equation to hypergeometric type
once a linear pi(r) and a constant k are chosen so that the radicand

    u(r; k) = ((sigma' - tauTilde)/2)^2 - sigmaTilde + k*sigma

is the square of a polynomial.  The module enumerates all rational (k, pi)
candidates, forms the reduced tau = tauTilde + 2*pi, the eigenparameter
lambdaBar = k + pi', and the factor phi with phi'/phi = pi/sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Poly, RatFunc, WeightExpr, integrate_log_derivative, rational_roots
from .errors import (
    AmbiguousBranch,
    InvalidInput,
    NoRationalReduction,
    NotHypergeometricType,
    UnsupportedDenominator,
)
from .hypergeometric import gamma_n
from .rationals import rational_sqrt

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


def _square_root_of_quadratic(u: Poly) -> Poly | None:
    """Exact polynomial square root of a degree <= 2 polynomial u = a r^2 +
    b r + c whose discriminant b^2 - 4ac is zero, or None.  That premise
    makes u = (s r + b/(2s))^2 with s^2 = a when a != 0, and b = 0 when
    a = 0, so only the rational square root of a or of c can fail."""
    a, b, c = u.coeff(2), u.coeff(1), u.coeff(0)
    if a:
        s = rational_sqrt(a)
        return None if s is None else Poly((b / (2 * s), s))
    t = rational_sqrt(c)
    return None if t is None else Poly.const(t)


def nu_find_k(problem: NuProblem) -> list[NuReduction]:
    """All rational (k, pi) pairs making the radicand a perfect square.

    Solves discriminant(u(r; k)) = 0 for k, keeps the rational roots whose
    radicand admits a rational polynomial square root, and emits both sign
    branches of pi.  Raises NoRationalReduction when no candidate exists.
    """
    half = (problem.sigma.derivative() - problem.tau_tilde) * Fraction(1, 2)
    u0 = half * half - problem.sigma_tilde
    sigma = problem.sigma

    # discriminant in k of u(r; k), whose coefficients are affine in k
    a, b, c = (Poly((u0.coeff(i), sigma.coeff(i))) for i in (2, 1, 0))
    disc = b * b - 4 * a * c
    if disc.is_zero:
        if u0.is_zero:
            # radicand vanishes identically at k = 0
            return [_make_reduction(problem, Fraction(0), half)]
        raise NoRationalReduction(
            "one-parameter family of perfect squares; no discrete rational k"
        )

    candidates: list[NuReduction] = []
    for k, _ in rational_roots(disc)[0]:
        w = _square_root_of_quadratic(u0 + sigma * k)
        if w is not None:
            for signed in (w,) if w.is_zero else (w, -w):
                candidates.append(_make_reduction(problem, k, half + signed))
    if not candidates:
        raise NoRationalReduction("no rational k gives a perfect-square radicand")
    return candidates


def _make_reduction(problem: NuProblem, k: Fraction, pi: Poly) -> NuReduction:
    lambda_bar = k + pi.coeff(1)
    tau = problem.tau_tilde + 2 * pi
    try:
        phi = build_phi(pi, problem.sigma)
    except UnsupportedDenominator:
        phi = None
    return NuReduction(k=k, pi=pi, lambda_bar=lambda_bar, tau=tau, phi=phi)


def build_phi(pi: Poly, sigma: Poly) -> WeightExpr:
    """Integrate phi'/phi = pi/sigma into a weight expression."""
    return integrate_log_derivative(RatFunc(pi, sigma))


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
