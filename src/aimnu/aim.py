"""Asymptotic-iteration machinery.

Implements the (lambda_k, s_k) recursion

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda_0 lambda_{k-1}
    s_k      = s_{k-1}' + s_0 lambda_{k-1}

and the quantization determinant delta_k = lambda_k s_{k-1} - lambda_{k-1} s_k
in two independent forms.  ``iterate``/``delta_k`` run it on rational
functions of r at one numeric trial value, with the alpha-ratio
termination diagnostic; they serve as the oracle.  ``determinants`` runs
it on Taylor coefficients about the evaluation point r0 with the trial
value E symbolic, so each level gives delta_k(r0, E) as one exact
polynomial in E.  ``solve_iterative`` reads the eigenvalues off the
certified real roots of those polynomials, level by level; every step is
exact, so the results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .algebra import Poly, RatFunc
from .errors import EvaluationPole, NoRootInBracket

__all__ = [
    "ParamRatFunc",
    "AimProblem",
    "AimSequence",
    "EigenvalueEstimate",
    "IterativeSpectrum",
    "aim_step",
    "iterate",
    "delta_k",
    "alpha_ratio",
    "determinants",
    "solve_iterative",
]


@dataclass(frozen=True)
class ParamRatFunc:
    """Rational function whose numerator is affine in the trial parameter."""

    num_const: Poly
    num_slope: Poly
    den: Poly

    def substitute(self, value: Fraction) -> RatFunc:
        return RatFunc(self.num_const + self.num_slope * value, self.den)


@dataclass(frozen=True)
class AimProblem:
    """y'' = lambda0 y' + s0 y with one affine trial parameter."""

    lambda0: ParamRatFunc
    s0: ParamRatFunc
    domain: tuple[Fraction | None, Fraction | None] = (None, None)
    eval_point: Fraction | None = None


@dataclass(frozen=True)
class AimSequence:
    """Two consecutive recursion rows, parameter already numeric."""

    k: int
    lambda_k: RatFunc
    s_k: RatFunc
    lambda_km1: RatFunc
    s_km1: RatFunc


def aim_step(
    lambda_prev: RatFunc, s_prev: RatFunc, lambda0: RatFunc, s0: RatFunc
) -> tuple[RatFunc, RatFunc]:
    """One exact recursion step producing (lambda_k, s_k)."""
    lam = lambda_prev.derivative() + s_prev + lambda0 * lambda_prev
    s = s_prev.derivative() + s0 * lambda_prev
    return lam, s


def iterate(lambda0: RatFunc, s0: RatFunc, k: int) -> AimSequence:
    """Run the recursion up to level k >= 1 and return the last two rows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lam_prev, s_prev = lambda0, s0
    lam, s = aim_step(lam_prev, s_prev, lambda0, s0)
    for _ in range(1, k):
        lam_prev, s_prev = lam, s
        lam, s = aim_step(lam_prev, s_prev, lambda0, s0)
    return AimSequence(k, lam, s, lam_prev, s_prev)


def delta_k(seq: AimSequence) -> RatFunc:
    """Quantization determinant lambda_k s_{k-1} - lambda_{k-1} s_k."""
    return seq.lambda_k * seq.s_km1 - seq.lambda_km1 * seq.s_k


def alpha_ratio(seq: AimSequence, r0: Fraction) -> tuple[Fraction, Fraction]:
    """(s_k/lambda_k, s_{k-1}/lambda_{k-1}) at r0; equal pair means termination."""
    lam_k = seq.lambda_k.evaluate(r0)
    lam_km1 = seq.lambda_km1.evaluate(r0)
    if lam_k == 0 or lam_km1 == 0:
        raise EvaluationPole(f"lambda vanishes at r0 = {r0}; move the evaluation point")
    return seq.s_k.evaluate(r0) / lam_k, seq.s_km1.evaluate(r0) / lam_km1


@dataclass
class EigenvalueEstimate:
    """One root of delta_k(r0, E) = 0 inside the bracket."""

    n: int
    value: Fraction
    k_used: int
    converged: bool


class IterativeSpectrum(list):
    """Ascending estimates; ``counts`` holds the numbers of distinct roots of
    delta_{k-1} and delta_k in the bracket at the final level ``k``."""

    def __init__(self, estimates: list[EigenvalueEstimate], k: int, counts: tuple[int, int]):
        super().__init__(estimates)
        self.k, self.counts = k, counts


def _taylor_coefficients(f: ParamRatFunc, r0: Fraction):
    """Yield the Taylor coefficients of f about r0, each a Poly in the parameter."""
    num_const, num_slope, den = (p.compose_linear(r0) for p in (f.num_const, f.num_slope, f.den))
    d0 = den.coeff(0)
    if d0 == 0:
        raise EvaluationPole(f"denominator pole at r0 = {r0}")
    terms: list[Poly] = []
    for j in count():
        t = Poly((num_const.coeff(j), num_slope.coeff(j)))
        for i in range(1, min(j, den.degree) + 1):
            t = t - terms[j - i] * den.coeff(i)
        terms.append(t * (1 / d0))
        yield terms[-1]


def determinants(problem: AimProblem, r0: Fraction):
    """Yield delta_k(r0, E) for k = 1, 2, ... as Polys in the trial parameter E.

    With c_k[i], d_k[i] the Taylor coefficients of lambda_k, s_k about r0,
    the recursion reads

        c_k[i] = (i+1) c_{k-1}[i+1] + d_{k-1}[i] + sum_j c_0[j] c_{k-1}[i-j]
        d_k[i] = (i+1) d_{k-1}[i+1] + sum_j d_0[j] c_{k-1}[i-j]

    and delta_k(r0) = c_k[0] d_{k-1}[0] - c_{k-1}[0] d_k[0] (the improved
    AIM of Cho, Cornell, Doukas & Naylor, CQG 27 (2010) 155004).  Level K
    needs the anti-diagonal k + i = K only, so levels extend one at a time.
    """
    lam0 = _taylor_coefficients(problem.lambda0, r0)
    s0 = _taylor_coefficients(problem.s0, r0)
    c: list[list[Poly]] = []
    d: list[list[Poly]] = []
    for level in count():
        c.append([])
        d.append([])
        c[0].append(next(lam0))
        d[0].append(next(s0))
        for k in range(1, level + 1):
            i = level - k
            lam, s = c[k - 1], d[k - 1]
            conv_c, conv_d = Poly(), Poly()
            for j in range(i + 1):
                conv_c = conv_c + c[0][j] * lam[i - j]
                conv_d = conv_d + d[0][j] * lam[i - j]
            c[k].append((i + 1) * lam[i + 1] + s[i] + conv_c)
            d[k].append((i + 1) * s[i + 1] + conv_d)
        if level >= 1:
            yield c[level][0] * d[level - 1][0] - c[level - 1][0] * d[level][0]


def solve_iterative(
    problem: AimProblem,
    r0: Fraction | None = None,
    bracket: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
    k_max: int = 40,
    tol: Fraction = Fraction(1, 10**8),
) -> IterativeSpectrum:
    """Eigenvalues as the certified roots of delta_k(r0, E) in the open bracket.

    Level by level, delta_k is one exact polynomial in E whose real roots in
    the bracket come from ``Poly.real_roots``.  The solver stops at the first
    k >= 2 whose roots are nonempty, all exact and those of level k-1, or at
    k_max.  This rule assumes that each further level adds the next
    eigenvalue, as it does for exactly solvable problems.  An estimate is
    ``converged`` iff its value is an exact root of both delta_{k-1} and
    delta_k at the returned level k; any other root is reported at the
    midpoint of an interval narrower than ``tol``.  ``n`` indexes the
    ascending roots (bracket-relative, not the mode index).  Raises
    NoRootInBracket when delta_k has no root in the bracket at the end.
    """
    if r0 is None:
        r0 = problem.eval_point
    if r0 is None:
        raise ValueError("no evaluation point given")
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("empty bracket")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")

    levels: list[tuple[Poly, list[tuple[Fraction, Fraction]]]] = []
    for k, delta in zip(range(1, k_max + 1), determinants(problem, r0)):
        if delta.is_zero:
            raise NoRootInBracket(f"delta_{k} vanishes for every trial value")
        roots = delta.real_roots(lo, hi, tol)
        settled = bool(levels) and roots == levels[-1][1] and all(a == b for a, b in roots)
        levels = levels[-1:] + [(delta, roots)]
        if settled and roots:
            break
    (prev_delta, prev_roots), (_, roots) = levels
    if not roots:
        raise NoRootInBracket(f"no root of delta_{k} in ({lo}, {hi})")
    estimates = [
        EigenvalueEstimate(n, a if a == b else (a + b) / 2, k, a == b and not prev_delta.evaluate(a))
        for n, (a, b) in enumerate(roots)
    ]
    return IterativeSpectrum(estimates, k, (len(prev_roots), len(roots)))
