"""Asymptotic-iteration machinery for sigma y'' + tau y' + gamma y = 0.

Implements the (lambda_k, s_k) recursion from lambda0 = -tau/sigma and
s0 = -gamma/sigma,

    lambda_k = lambda_{k-1}' + s_{k-1} + lambda_0 lambda_{k-1}
    s_k      = s_{k-1}' + s_0 lambda_{k-1}

and the quantization determinant delta_k = lambda_k s_{k-1} - lambda_{k-1} s_k
by two independent routes of one shape: each gives delta_0 = -s0, delta_1,
..., the levels that follow from lambda_{-1} = 1 and s_{-1} = 0.
``determinants``, the route every command takes, runs it on the integer
numerators of ``algebra.cleared``, shifted to r - r0, with the trial value E
symbolic, so each level gives delta_k(r0, E) as one exact polynomial in E.
``iterate`` runs it on rational functions of r at one numeric trial value.
It is the tests' oracle, outside ``__all__``, and stays for the benchmark's tracer.

For hypergeometric input delta_k = (mu_k/sigma) delta_{k-1}, with
mu_k = gamma + k tau' + k(k-1) sigma''/2 affine in E.  Proof: the equation
differentiated k times reads sigma y^(k+2) + (tau + k sigma') y^(k+1) +
mu_k y^(k) = 0; with y^(j) = a_j y' + b_j y, this turns delta_k =
a_{k+2} b_{k+1} - a_{k+1} b_{k+2} into (mu_k/sigma) delta_{k-1}, from
delta_{-1} = a_1 b_0 - a_0 b_1 = 1.  So each level quotient
delta_k / delta_{k-1} is c(k) + E e(k), c quadratic and e linear in k,
and the root -c(n)/e(n) of mode n is a root of every delta_k with k >= n
(Ciftci, Hall & Saad, J. Phys. A 38 (2005) 1147).  ``solve_iterative``
therefore reads every mode in a bracket off delta_0, delta_1 and delta_2.
The record holds the caps, so every input is of this kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice, repeat, zip_longest
from operator import attrgetter

from .algebra import Poly, RatFunc, _dot, _poly, _shifted, cleared
from .errors import EvaluationPole, IncompleteSpectrum, NoRootInBracket
from .hypergeometric import HypergeometricProblem
from .rationals import MAX_MODES

__all__ = [
    "EigenvalueEstimate",
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
    """The exact eigenvalue of mode ``n`` inside the bracket.

    ``converged`` is always true; it stays, with ``n``, because the JSON
    rows and the benchmark's spectrum check read both.
    """

    n: int
    value: Fraction
    converged: bool


def _numerators(problem: HypergeometricProblem, r0: Fraction):
    """D, L and S of ``determinants``, in x = r - r0: sigma, -tau and -gamma, cleared and
    shifted to r0 on integers, over one denominator as integers with no common content,
    D a list and L and S lists in x of integer lists in E: lambda0 = L/D, s0 = S/D."""
    tau, gamma, (u, v) = problem.tau, problem.gamma, r0.as_integer_ratio()
    (*polys, gc, gs), _ = cleared(problem.sigma, tau.const, tau.slope, gamma.const, gamma.slope)
    top = max(map(len, polys)) - 1  # every row over m v^top
    D, lc, ls = ([c * v ** (top + 1 - len(P)) for c in _shifted(P, u, v)] for P in polys)
    sc, ss = ([c * v**top for c in G] for G in (gc, gs))
    if not D[0]:
        raise EvaluationPole(f"denominator pole at r0 = {r0}")
    g = math.gcd(*D, *lc, *ls, *sc, *ss)
    L, S = (
        [[-c // g, -e // g] if e else [-c // g] if c else [] for c, e in zip_longest(*row, fillvalue=0)]
        for row in ((lc, ls), (sc, ss))
    )
    return [d // g for d in D], L, S


def determinants(problem: HypergeometricProblem, r0: Fraction):
    """Yield delta_k(r0, E) for k = 0, 1, ... as Polys in the trial parameter E.

    The recursion stays on polynomials.  Write lambda0 = -tau/sigma = L/D,
    s0 = -gamma/sigma = S/D in x = r - r0 (``_numerators``; D is sigma up to
    a constant), lambda_k = A_k/D^(k+1) and s_k = B_k/D^(k+1).  With
    A = A_{k-1} and B = B_{k-1}, lambda_{k-1}' = (D A' - k D' A)/D^(k+1)
    and s_{k-1} = D B/D^(k+1), so the recursion reads

        A_k = D A' - k D' A + D B + L A
        B_k = D B' - k D' B + S A

    from A_{-1} = 1 and B_{-1} = 0, and

        delta_k(r0) = (A_k(0) B_{k-1}(0) - A_{k-1}(0) B_k(0)) / D(0)^(2k+1).

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
    D, L, S = _numerators(problem, r0)
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
            for u, c in enumerate(D[: i + 2]):
                if not c:  # a zero row adds nothing
                    continue
                w = [c * (i + 1 - (k + 1) * u)]
                if w[0]:
                    lam.append((w, A[i + 1 - u]))
                    s.append((w, B[i + 1 - u]))
                if u <= i:
                    lam.append(([c], B[i - u]))
            a[k].append(_dot(lam))
            b[k].append(_dot(s))
        lam_prev, s_prev = (a[level - 1][0], b[level - 1][0]) if level else ([1], [])
        neg = [-y for y in b[level][0]]
        yield _poly(_dot([(a[level][0], s_prev), (lam_prev, neg)]), D[0] ** (2 * level + 1))


_NO_FIT = "delta_0, delta_1 and delta_2 do not fit factors c(k) + E e(k)"


def _floors(p: list[int]) -> list[int]:
    """floor(x) for each real root x of p0 + p1 n + p2 n^2, p integers, not all 0."""
    c, b, a = p if p[2] >= 0 else [-x for x in p]
    if not a:
        return [-c // b] if b else []
    d = b * b - 4 * a * c
    s = math.isqrt(max(d, 0))  # floor(-b - sqrt d) = -b - ceil(sqrt d)
    return [(-b - s - (s * s < d)) // (2 * a), (-b + s) // (2 * a)] if d >= 0 else []


def _modes(c: list[int], e: list[int], lo: Fraction, hi: Fraction) -> list[int]:
    """The modes n >= 0 with lo < -c(n)/e(n) < hi, for integer lists c, e of length 3.

    For lo = u/v, hi = w/z: e(n) (v c(n) + u e(n)) < 0 < e(n) (z c(n) + w e(n)), whose
    signs change on the integers only at the floor of a real root of e or of either
    quadratic; one test per such cut point and per run between two decides every n.
    """
    (u, v), (w, z) = lo.as_integer_ratio(), hi.as_integer_ratio()
    polys = (e, [v * x + u * y for x, y in zip(c, e)], [z * x + w * y for x, y in zip(c, e)])
    cuts = sorted({0, *(f for p in polys if any(p) for f in _floors(p) if f > 0)})

    def inside(n):
        en, below, above = ((p[2] * n + p[1]) * n + p[0] for p in polys)
        if not en and not below:  # a common root of c and e, so a root of e: a cut point
            raise NoRootInBracket(f"delta_{n} vanishes for every trial value")
        return en * below < 0 < en * above

    runs = [range(n, n + 1) for n in cuts if inside(n)]
    if inside(cuts[-1] + 1):
        raise IncompleteSpectrum(f"the bracket ({lo}, {hi}) holds infinitely many modes")
    runs += [range(n + 1, nxt) for n, nxt in zip(cuts, cuts[1:]) if nxt > n + 1 and inside(n + 1)]
    size = sum(r.stop - r.start for r in runs)
    if size > MAX_MODES:
        raise IncompleteSpectrum(f"the bracket ({lo}, {hi}) holds {size} modes, over {MAX_MODES}")
    return [n for r in runs for n in r]


def _fit(levels: list[Poly]) -> tuple[list[int], list[int]]:
    """Integer lists c, e in n with delta_k / delta_(k-1) = (c(k) + E e(k)) / m, k <= 2,
    for one m > 0, from the nonzero [delta_0, delta_1, delta_2] and delta_(-1) = 1, cleared
    together and divided; IncompleteSpectrum if they fit no such factors."""
    fits, (ints, _) = [], cleared(1, *levels)  # delta_(-1) = 1
    for x, y in zip(ints, ints[1:]):  # delta_k / delta_(k-1) = y/x
        n = len(x) - 1
        if len(y) - n not in (1, 2):  # deg y - deg x is neither 0 nor 1
            raise IncompleteSpectrum(_NO_FIT)
        t, top = x[-1], y[n + 1] if len(y) - n == 2 else 0  # t^2 y = (q0 + q1 E) x, t the top of x
        q0, q1, tt = t * y[n] - top * (x[n - 1] if n else 0), t * top, t * t
        if [q0 * p + q1 * r for p, r in zip((*x, 0), (0, *x))] != [tt * c for c in (*y, 0)][: n + 2]:
            raise IncompleteSpectrum(_NO_FIT)  # a remainder
        fits.append((q0, q1, tt))  # y/x = (q0 + q1 E) / tt
    m = math.lcm(*(den for _, _, den in fits))
    (c0, e0), (c1, e1), (c2, e2) = ((q0 * (m // den), q1 * (m // den)) for q0, q1, den in fits)
    if e2 - e1 != e1 - e0:
        raise IncompleteSpectrum(_NO_FIT)
    d = c2 - 2 * c1 + c0  # 2 c(n) = 2 c0 + 2 (c1 - c0) n + d n (n - 1)
    return [2 * c0, 2 * (c1 - c0) - d, d], [2 * e0, 2 * (e1 - e0), 0]


def solve_iterative(
    problem: HypergeometricProblem, r0: Fraction | None, bracket: tuple[Fraction, Fraction]
) -> list[EigenvalueEstimate]:
    """Every mode whose eigenvalue lies in the open bracket, ascending.

    delta_0, delta_1 and delta_2, cleared by ``algebra.cleared`` and each
    divided exactly by the level before, give the factors c(k) + E e(k), k = 0, 1, 2,
    over one lcm (``_fit``), of c quadratic and e linear in k; the third e
    checks the fit.  Every mode n >= 0 whose root -c(n)/e(n) lies in the
    bracket gives an exact, converged estimate, ``n`` its mode index, and
    one Fraction.  No mode, or a delta_n that vanishes for every
    trial value, raises NoRootInBracket; infinitely many or more than
    MAX_MODES modes raise IncompleteSpectrum.

    With ``r0`` None the solver takes the first of 1, 1/2, 1/3, ... that is no
    root of sigma; r0 only scales delta_k by sigma(r0)^-(k+1) and moves no root.
    """
    if r0 is None:  # sigma != 0 has finitely many roots
        r0 = next(x for x in (Fraction(1, j) for j in count(1)) if problem.sigma.evaluate(x))
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("empty bracket")
    levels = list(islice(determinants(problem, r0), 3))
    for k in (1, 2):  # delta_0 = 0 makes delta_1 = 0
        if levels[k].is_zero:
            raise NoRootInBracket(f"delta_{k} vanishes for every trial value")
    c, e = _fit(levels)
    modes = sorted(_modes(c, e, lo, hi))  # a stable sort on the values then keeps n ascending
    if not modes:
        raise NoRootInBracket(f"no mode in ({lo}, {hi})")
    values = (Fraction(-((c[2] * n + c[1]) * n + c[0]), e[0] + e[1] * n) for n in modes)
    return sorted(map(EigenvalueEstimate, modes, values, repeat(True)), key=attrgetter("value"))
