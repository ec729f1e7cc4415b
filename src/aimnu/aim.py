"""Asymptotic-iteration machinery for sigma y'' + tau y' + gamma y = 0.

Implements the (lambda_k, s_k) recursion from lambda0 = -tau/sigma and
s0 = -gamma/sigma,

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda_0 lambda_{k-1}
    s_k      = s_{k-1}' + s_0 lambda_{k-1}

and the quantization determinant delta_k = lambda_k s_{k-1} - lambda_{k-1} s_k
by two independent routes of one shape: each gives delta_0 = -s0, delta_1,
..., the levels that follow from lambda_{-1} = 1 and s_{-1} = 0.
``iterate`` runs the recursion on rational functions of r at one numeric
trial value; it serves as the oracle.  ``determinants`` runs it on the
integer numerators A_k = lambda_k (m D)^(k+1) and B_k = s_k (m D)^(k+1),
polynomials in r - r0 with the trial value E symbolic, where m D clears
sigma; each level gives delta_k(r0, E) as one exact polynomial in E.
``solve_iterative`` reads the eigenvalues off the certified real roots of
those polynomials, level by level; every step is exact, so the results
are reproducible bit for bit.

For hypergeometric input delta_k = (mu_k/sigma) delta_{k-1}, with
mu_k = gamma + k tau' + k(k-1) sigma''/2 affine in E.  Proof: the equation
differentiated k times reads sigma y^(k+2) + (tau + k sigma') y^(k+1) +
mu_k y^(k) = 0; with y^(j) = a_j y' + b_j y, this turns delta_k =
a_{k+2} b_{k+1} - a_{k+1} b_{k+2} into (mu_k/sigma) delta_{k-1}, from
delta_{-1} = a_1 b_0 - a_0 b_1 = 1.  So delta_k = delta_{k-1} quo exactly,
quo linear, and its root joins those of delta_{k-1}: one division
certifies every level.  Input of another form is isolated in full.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, zip_longest

from .algebra import Poly, RatFunc, _clear_denominators, _coerce_poly, _dot, _poly
from .errors import EvaluationPole, NoRootInBracket
from .hypergeometric import HypergeometricProblem

__all__ = [
    "EigenvalueEstimate",
    "IterativeSpectrum",
    "iterate",
    "determinants",
    "solve_iterative",
]


def iterate(problem: HypergeometricProblem, energy: Fraction, k: int) -> list[RatFunc]:
    """[delta_0, ..., delta_k] as rational functions of r at one numeric trial
    value, by one pass of the recursion on RatFuncs from lambda0 and s0: the
    levels of ``determinants`` by an independent route, its oracle."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lam0, s0 = (RatFunc(-f.substitute(energy), problem.sigma) for f in (problem.tau, problem.gamma))
    lam, s, deltas = lam0, s0, [-s0]
    for _ in range(k):
        lam_next, s_next = lam.derivative() + s + lam0 * lam, s.derivative() + s0 * lam
        deltas.append(lam_next * s - lam * s_next)
        lam, s = lam_next, s_next
    return deltas


@dataclass
class EigenvalueEstimate:
    """One root of delta_k(r0, E) = 0 inside the bracket."""

    n: int
    value: Fraction
    converged: bool


class IterativeSpectrum(list):
    """Ascending estimates; ``counts`` holds the numbers of distinct roots of
    delta_{k-1} and delta_k in the bracket at the final level ``k``."""

    def __init__(self, estimates: list[EigenvalueEstimate], k: int, counts: tuple[int, int]):
        super().__init__(estimates)
        self.k, self.counts = k, counts


def _numerators(problem: HypergeometricProblem, r0: Fraction):
    """D, m, L and S of ``determinants``, in x = r - r0: D is sigma as
    primitive integers, and L = -m D tau/sigma and S = -m D gamma/sigma are
    lists in x of integer lists in E, m > 0 the least integer that makes
    them integral."""
    sigma, tau, gamma = problem.sigma, problem.tau, problem.gamma
    if not sigma.evaluate(r0):
        raise EvaluationPole(f"denominator pole at r0 = {r0}")
    # -lambda0 = L'/D' and -s0 = S'/D' over one cleared denominator, and m D = D'/g
    polys = (sigma, tau.const, tau.slope, gamma.const, gamma.slope)
    D, lc, ls, sc, ss = _clear_denominators(*(_coerce_poly(p).compose_linear(r0) for p in polys))
    m = math.gcd(*D)
    g = math.gcd(m, *lc, *ls, *sc, *ss)
    L, S = (
        [[-c // g, -e // g] if e else [-c // g] if c else [] for c, e in zip_longest(*row, fillvalue=0)]
        for row in ((lc, ls), (sc, ss))
    )
    return [d // m for d in D], m // g, L, S


def determinants(problem: HypergeometricProblem, r0: Fraction):
    """Yield delta_k(r0, E) for k = 0, 1, ... as Polys in the trial parameter E.

    The recursion stays on polynomials.  Write lambda0 = -tau/sigma = L/(m D),
    s0 = -gamma/sigma = S/(m D) in x = r - r0 (``_numerators``; D is sigma
    up to a constant), lambda_k = A_k/(m D)^(k+1) and s_k = B_k/(m D)^(k+1).
    With A = A_{k-1} and B = B_{k-1}, lambda_{k-1}' = m (D A' - k D' A)/(m D)^(k+1)
    and s_{k-1} = m D B/(m D)^(k+1), so the recursion reads

        A_k = m (D A' - k D' A + D B) + L A
        B_k = m (D B' - k D' B) + S A

    from A_{-1} = 1 and B_{-1} = 0, and

        delta_k(r0) = (A_k(0) B_{k-1}(0) - A_{k-1}(0) B_k(0)) / (m D(0))^(2k+1).

    The coefficients of A_k and B_k are integer lists in E.  That of x^i in
    D A' - k D' A is sum_u D[u] (i + 1 - (k + 1) u) A[i + 1 - u], so cell
    (k, i) needs cells of level k - 1 up to i + 1 only.  Level K fills the
    anti-diagonal k + i = K, whose cells (K, 0) and (K - 1, 0) give
    delta_K, so levels extend one at a time; a cell costs O(deg D + deg L +
    deg S) products of a row by a scalar or an E-affine coefficient.  (The
    improved AIM of Cho, Cornell, Doukas & Naylor, CQG 27 (2010) 155004,
    runs the recursion on the Taylor series of lambda0 and s0 about r0
    instead, where cell (k, i) is a convolution of length i.)
    """
    D, m, L, S = _numerators(problem, r0)
    mD = [m * d for d in D]
    a: list[list[list[int]]] = []  # a[k][i], b[k][i]: the x^i coefficients of A_k, B_k
    b: list[list[list[int]]] = []
    for level in count():
        a.append([])
        b.append([])
        a[0].append(L[level] if level < len(L) else [])
        b[0].append(S[level] if level < len(S) else [])
        for k in range(1, level + 1):
            i, A, B = level - k, a[k - 1], b[k - 1]
            lam = [(L[j], A[i - j]) for j in range(min(i + 1, len(L)))]
            s = [(S[j], A[i - j]) for j in range(min(i + 1, len(S)))]
            for u, c in enumerate(mD[: i + 2]):
                w = [c * (i + 1 - (k + 1) * u)]
                lam.append((w, A[i + 1 - u]))
                s.append((w, B[i + 1 - u]))
                if u <= i:
                    lam.append(([c], B[i - u]))
            a[k].append(_dot(lam))
            b[k].append(_dot(s))
        lam_prev, s_prev = (a[level - 1][0], b[level - 1][0]) if level else ([1], [])
        neg = [-y for y in b[level][0]]
        yield _poly(_dot([(a[level][0], s_prev), (lam_prev, neg)]), mD[0] ** (2 * level + 1))


_TOL = Fraction(1, 10**8)  # an uncertified root is reported on an interval narrower than this


def _level_roots(
    delta: Poly, last: Poly, carried: list[tuple[Fraction, Fraction]], lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """``delta.real_roots(lo, hi, _TOL)``, given the roots ``carried`` of the
    level before, ``last``: if last is nonzero, delta = last * quo exactly,
    deg quo <= 1 and every carried root is exact, they are the carried roots
    and quo's root."""
    if not last.is_zero and all(a == b for a, b in carried):
        quo, rem = divmod(delta, last)
        if rem.is_zero and quo.degree <= 1:
            roots = list(carried)
            if quo.degree == 1 and lo < (x := -quo.coeff(0) / quo.coeff(1)) < hi:
                i = bisect_left(roots, (x, x))
                if roots[i : i + 1] != [(x, x)]:
                    roots.insert(i, (x, x))
            return roots
    return delta.real_roots(lo, hi, _TOL)


def solve_iterative(
    problem: HypergeometricProblem,
    r0: Fraction | None = None,
    bracket: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
    k_max: int = 40,
) -> IterativeSpectrum:
    """Eigenvalues as the certified roots of delta_k(r0, E) in the open bracket.

    Level by level, delta_k is one exact polynomial in E, whose roots
    ``_level_roots`` certifies by one exact division by delta_{k-1}, from
    delta_{-1} = 1 on, or, for input of another form, by ``Poly.real_roots``.
    The solver stops at the first k >= 2 whose roots are nonempty, all exact
    and those of level k-1, or at k_max.  Level k adds the root of mode k,
    so when the spectrum is not monotone in n the rule can stop before a
    later mode that lies in the bracket and drop it (ROADMAP item A).  An
    estimate is ``converged`` iff it is exact and a root of level k-1 at the
    returned level k; any other root is reported at the midpoint of an
    interval narrower than ``_TOL`` = 10^-8.  ``n`` indexes the ascending
    roots (bracket-relative, not the mode index).  Raises NoRootInBracket
    when delta_k has no root in the bracket at the end.

    Without ``r0`` the solver takes the first of 1, 1/2, 1/3, ... that is no
    root of sigma.  For hypergeometric input r0 only scales delta_k by
    sigma(r0)^-(k+1) and moves no root; for any other input pass ``r0``.
    """
    if r0 is None:  # sigma != 0 has finitely many roots
        r0 = next(x for x in (Fraction(1, m) for m in count(1)) if problem.sigma.evaluate(x))
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("empty bracket")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")

    last, prev, roots = Poly.const(1), [], []  # delta_{k-1}, the roots of levels k-1 and k
    for k, delta in zip(range(k_max + 1), determinants(problem, r0)):
        if k and delta.is_zero:
            raise NoRootInBracket(f"delta_{k} vanishes for every trial value")
        prev, roots, last = roots, _level_roots(delta, last, roots, lo, hi), delta
        if k >= 2 and roots and roots == prev and all(a == b for a, b in roots):
            break
    if not roots:
        raise NoRootInBracket(f"no root of delta_{k} in ({lo}, {hi})")
    before = set(prev)
    estimates = [
        EigenvalueEstimate(n, a if a == b else (a + b) / 2, a == b and (a, a) in before)
        for n, (a, b) in enumerate(roots)
    ]
    return IterativeSpectrum(estimates, k, (len(prev), len(roots)))
