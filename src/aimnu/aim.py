"""Asymptotic-iteration machinery.

Implements the (lambda_k, s_k) recursion

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda_0 lambda_{k-1}
    s_k      = s_{k-1}' + s_0 lambda_{k-1}

and the quantization determinant delta_k = lambda_k s_{k-1} - lambda_{k-1} s_k
by two independent routes of one shape: each gives delta_0 = -s0, delta_1,
..., the levels that follow from lambda_{-1} = 1 and s_{-1} = 0.
``iterate`` runs the recursion on rational functions of r at one numeric
trial value; it serves as the oracle.  ``determinants`` runs it on
integer-weighted Taylor coefficients about the evaluation point r0 with the
trial value E symbolic, so each level gives delta_k(r0, E) as one exact
polynomial in E.  ``solve_iterative`` reads the
eigenvalues off the certified real roots of those polynomials, level by
level; every step is exact, so the results are reproducible bit for bit.
For hypergeometric input delta_k = (mu_k/sigma) delta_{k-1} with mu_k affine
in E (differentiate sigma y'' + tau y' + gamma y = 0 k times), down to
delta_0 = -s0 and delta_{-1} = 1, so delta_k = delta_{k-1} quo exactly and
the roots of delta_k are those of delta_{k-1} and the root of the linear
quo: one division certifies every level.  Input of another form, where the
division fails, is isolated in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from .algebra import Affine, Poly, RatFunc, _clear_denominators, _dot, _poly
from .errors import EvaluationPole, NoRootInBracket

__all__ = [
    "ParamRatFunc",
    "AimProblem",
    "EigenvalueEstimate",
    "IterativeSpectrum",
    "iterate",
    "determinants",
    "solve_iterative",
]


@dataclass(frozen=True)
class ParamRatFunc:
    """Rational function num/den whose numerator is ``Affine`` in the trial
    parameter, with Poly fields."""

    num: Affine
    den: Poly

    def substitute(self, value: Fraction) -> RatFunc:
        return RatFunc(self.num.substitute(value), self.den)


@dataclass(frozen=True)
class AimProblem:
    """y'' = lambda0 y' + s0 y with one affine trial parameter.

    It holds no evaluation point r0.  For input from ``to_aim_form`` the
    roots of delta_k(r0, E) do not depend on r0; for any other problem they
    may, so pass r0 to ``solve_iterative`` explicitly.
    """

    lambda0: ParamRatFunc
    s0: ParamRatFunc


def iterate(problem: AimProblem, energy: Fraction, k: int) -> list[RatFunc]:
    """[delta_0, ..., delta_k] as rational functions of r at one numeric trial
    value, from one pass of the recursion on RatFunc rows: the levels of
    ``determinants`` by an independent route, its oracle."""
    if k < 0:
        raise ValueError("k must be >= 0")
    lam0, s0 = problem.lambda0.substitute(energy), problem.s0.substitute(energy)
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


def _cleared(f: ParamRatFunc, r0: Fraction) -> list[list[int]]:
    """num.const, num.slope and den of f in powers of r - r0, as integer
    lists with their common denominator cleared."""
    return _clear_denominators(*(p.compose_linear(r0) for p in (f.num.const, f.num.slope, f.den)))


def _taylor_rows(parts: list[list[int]], q: int):
    """Yield U_j = q^(j+1) f_j for j = 0, 1, ..., f_j the Taylor coefficients
    of f = (num.const + E num.slope)/den about r0, as integer lists in E, by
    the division-free recurrence U_j = (q/d0) (q^j N_j - sum_i den_i q^(i-1)
    U_{j-i}), where d0 = den_0 divides q."""
    const, slope, den = parts
    g, rows = q // den[0], []
    for j in count():
        n_j = [cs[j] if j < len(cs) else 0 for cs in (const, slope)]
        terms = [([-den[i] * q ** (i - 1)], rows[j - i]) for i in range(1, min(j + 1, len(den)))]
        rows.append([g * y for y in _dot([([q**j], n_j), *terms])])
        yield rows[-1]


def determinants(problem: AimProblem, r0: Fraction):
    """Yield delta_k(r0, E) for k = 0, 1, ... as Polys in the trial parameter E.

    With c_k[i], d_k[i] the Taylor coefficients of lambda_k, s_k about r0,
    the recursion reads

        c_k[i] = (i+1) c_{k-1}[i+1] + d_{k-1}[i] + sum_j c_0[j] c_{k-1}[i-j]
        d_k[i] = (i+1) d_{k-1}[i+1] + sum_j d_0[j] c_{k-1}[i-j]

    and delta_k(r0) = c_k[0] d_{k-1}[0] - c_{k-1}[0] d_k[0] (the improved
    AIM of Cho, Cornell, Doukas & Naylor, CQG 27 (2010) 155004).  With
    lambda_{-1} = 1 and s_{-1} = 0 the same formula gives delta_0 = -s0(r0).
    Level K needs the anti-diagonal k + i = K only, so levels extend one at
    a time.

    It runs on integer lists in E.  With lambda0 and s0 shifted to r0 and
    their denominators cleared, q = lcm of the two denominators' values at
    r0 makes C_k[i] = q^(k+i+1) c_k[i] and D_k[i] = q^(k+i+2) d_k[i]
    integers.  The weights balance every term, so C and D obey the same
    recursion, and delta_k = (C_k[0] D_{k-1}[0] - C_{k-1}[0] D_k[0]) / q^(2k+2)
    is built from those integers and reduced with one gcd; C_{-1}[0] = 1 and
    D_{-1}[0] = 0 give delta_0 = -D_0[0] / q^2.
    """
    parts = [_cleared(f, r0) for f in (problem.lambda0, problem.s0)]
    if not all(den and den[0] for _, _, den in parts):
        raise EvaluationPole(f"denominator pole at r0 = {r0}")
    q = math.lcm(*(den[0] for _, _, den in parts))
    lam0, s0 = (_taylor_rows(p, q) for p in parts)
    c: list[list[list[int]]] = []
    d: list[list[list[int]]] = []
    for level in count():
        c.append([])
        d.append([])
        c[0].append(next(lam0))
        d[0].append([q * y for y in next(s0)])
        for k in range(1, level + 1):
            i = level - k
            lam, s = c[k - 1], d[k - 1]
            rev = lam[i::-1]  # C_{k-1}[i-j] for j = 0..i
            c[k].append(_dot([([i + 1], lam[i + 1]), ([1], s[i]), *zip(c[0], rev)]))
            d[k].append(_dot([([i + 1], s[i + 1]), *zip(d[0], rev)]))
        lam_prev, s_prev = (c[level - 1][0], d[level - 1][0]) if level else ([1], [])
        neg = [-y for y in d[level][0]]
        yield _poly(_dot([(c[level][0], s_prev), (lam_prev, neg)]), q ** (2 * level + 2))


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
            new = [-quo.coeff(0) / quo.coeff(1)] if quo.degree == 1 else []
            return sorted(set(carried).union((x, x) for x in new if lo < x < hi))
    return delta.real_roots(lo, hi, _TOL)


def solve_iterative(
    problem: AimProblem,
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
    pole of lambda0 or s0.  That choice moves no root only for hypergeometric
    input (``to_aim_form``), where r0 scales delta_k by sigma(r0)^-(k+1); for
    any other problem pass ``r0``.
    """
    if r0 is None:  # the dens have fewer roots than coefficients; a zero den gets pole r0 = 1
        dens = (problem.lambda0.den, problem.s0.den)
        tries = (Fraction(1, m) for m in range(1, 1 + sum(len(d.coeffs) for d in dens)))
        r0 = next((x for x in tries if all(d.evaluate(x) for d in dens)), Fraction(1))
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
    estimates = [
        EigenvalueEstimate(n, a if a == b else (a + b) / 2, a == b and (a, a) in prev)
        for n, (a, b) in enumerate(roots)
    ]
    return IterativeSpectrum(estimates, k, (len(prev), len(roots)))
