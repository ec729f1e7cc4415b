"""Exact references that do not go through the package's algebra kernel.

Polynomials here are plain tuples of Fractions, lowest degree first.  The
benchmark checks the package's outputs against these, so a defect in
``aimnu.algebra`` cannot also hide in the reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction


def trim(coeffs) -> tuple[Fraction, ...]:
    cs = [F(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def add(a, b) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def scale(a, s) -> tuple[Fraction, ...]:
    return trim(c * s for c in a)


def mul(a, b) -> tuple[Fraction, ...]:
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def deriv(a) -> tuple[Fraction, ...]:
    return trim(i * c for i, c in enumerate(a) if i > 0)


def evaluate(a, x: Fraction) -> Fraction:
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def residual(tau, sigma, gamma: Fraction, y) -> tuple[Fraction, ...]:
    """sigma y'' + tau y' + gamma y."""
    dy = deriv(y)
    return add(add(mul(sigma, deriv(dy)), mul(tau, dy)), scale(y, gamma))


def proportional(a, b) -> bool:
    """a = c b for a nonzero scalar c (both nonzero)."""
    if not a or not b or len(a) != len(b):
        return False
    return scale(a, b[-1]) == scale(b, a[-1])


def monic_legendre(n: int) -> tuple[Fraction, ...]:
    """Monic Legendre polynomial by p_{m+1} = r p_m - m^2/(4m^2-1) p_{m-1}."""
    prev, cur = (F(1),), (F(0), F(1))
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, add(mul((F(0), F(1)), cur), scale(prev, F(-m * m, 4 * m * m - 1)))
    return cur


def decimal12(x: Fraction) -> str:
    """The CLI's sample format: a float rounded to 12 significant digits."""
    return f"{x.numerator / x.denominator:.12g}"


def ratfunc_log_derivative_at(num, den, x: Fraction) -> Fraction:
    """(num/den)'/(num/den) at x, i.e. num'/num - den'/den."""
    return evaluate(deriv(num), x) / evaluate(num, x) - evaluate(deriv(den), x) / evaluate(den, x)


def ratfunc_derivative_at(num, den, x: Fraction) -> Fraction:
    d = evaluate(den, x)
    return (evaluate(deriv(num), x) * d - evaluate(num, x) * evaluate(deriv(den), x)) / (d * d)


def weight_log_derivative_at(weight, x: Fraction) -> Fraction:
    """w'/w at x for w = P * prod (r - c)^mu * exp(E), read off a WeightExpr's fields."""
    pref, exp_arg = weight.prefactor, weight.exp_arg
    total = ratfunc_log_derivative_at(pref.num.coeffs, pref.den.coeffs, x)
    for root, mu in weight.factors:
        total += mu / (x - root)
    return total + ratfunc_derivative_at(exp_arg.num.coeffs, exp_arg.den.coeffs, x)


#: Rational sample points for pointwise identity checks of rational functions.
SAMPLE_POINTS = (F(7, 3), F(-11, 5), F(13, 7), F(-17, 9))


def log_derivative_matches(weight, num, den) -> bool:
    """weight'/weight equals num/den at every sample point where both are defined."""
    checked = 0
    for x in SAMPLE_POINTS:
        try:
            lhs = weight_log_derivative_at(weight, x)
        except ZeroDivisionError:
            continue
        d = evaluate(den, x)
        if d == 0:
            continue
        if lhs != evaluate(num, x) / d:
            return False
        checked += 1
    return checked >= 2


# ----------------------------------------------------------------------
# Nikiforov--Uvarov round-trip constructions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NuCase:
    """psi'' + (tauTilde/sigma) psi' + (sigmaTilde/sigma^2) psi = 0 built from a known (k0, pi)."""

    tau_tilde: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]
    sigma_tilde: tuple[Fraction, ...]
    k0: Fraction
    pi: tuple[Fraction, ...]

    @property
    def tau(self) -> tuple[Fraction, ...]:
        """Reduced tau = tauTilde + 2 pi."""
        return add(self.tau_tilde, scale(self.pi, 2))

    @property
    def lambda_bar(self) -> Fraction:
        """lambdaBar = k0 + pi'."""
        return self.k0 + (self.pi[1] if len(self.pi) > 1 else 0)

    def lambda_n(self, n: int) -> Fraction:
        """-n tau' - n(n-1)/2 sigma'' of the reduced equation."""
        tau1 = self.tau[1] if len(self.tau) > 1 else F(0)
        sigma2 = self.sigma[2] if len(self.sigma) > 2 else F(0)
        return -n * tau1 - n * (n - 1) * sigma2


def random_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = F(rng.randint(-9, 9), rng.randint(1, 4))
        if v != 0 or not nonzero:
            return v


def _coeff(a, i: int) -> Fraction:
    return a[i] if i < len(a) else F(0)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact for n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, d) if n * n == q.numerator and d * d == q.denominator else None


def _k_discriminant(u0, sigma) -> tuple[Fraction, Fraction, Fraction]:
    """(d2, d1, d0) with d2 k^2 + d1 k + d0 the r-discriminant of u0 + k sigma."""
    a0, b0, c0 = _coeff(u0, 2), _coeff(u0, 1), _coeff(u0, 0)
    a1, b1, c1 = _coeff(sigma, 2), _coeff(sigma, 1), _coeff(sigma, 0)
    return b1 * b1 - 4 * a1 * c1, 2 * b0 * b1 - 4 * (a0 * c1 + c0 * a1), b0 * b0 - 4 * a0 * c0


def _square_root(u) -> tuple[Fraction, ...] | None:
    """w with w^2 = u for a polynomial u of degree <= 2, or None."""
    a, b, c = _coeff(u, 2), _coeff(u, 1), _coeff(u, 0)
    if a != 0:
        s = rational_sqrt(a)
        w = trim((b / (2 * s), s)) if s is not None else None
        return w if w is not None and mul(w, w) == trim(u) else None
    if b != 0:
        return None
    t = rational_sqrt(c)
    return trim((t,)) if t is not None else None


def nu_reductions(tau_tilde, sigma, sigma_tilde) -> set[tuple[Fraction, tuple[Fraction, ...]]]:
    """Every rational (k, pi) for which u = ((sigma' - tauTilde)/2)^2 - sigmaTilde + k sigma
    is the square of a polynomial w, with pi = (sigma' - tauTilde)/2 +- w.

    Assumes a discrete set of k, i.e. the k-discriminant does not vanish identically.
    """
    half = scale(add(deriv(sigma), scale(tau_tilde, -1)), F(1, 2))
    u0 = add(mul(half, half), scale(sigma_tilde, -1))
    d2, d1, d0 = _k_discriminant(u0, sigma)
    if d2 == 0:
        ks = [-d0 / d1] if d1 != 0 else []
    else:
        root = rational_sqrt(d1 * d1 - 4 * d2 * d0)
        ks = [] if root is None else [(-d1 + root) / (2 * d2), (-d1 - root) / (2 * d2)]
    out = set()
    for k in ks:
        w = _square_root(add(u0, scale(sigma, k)))
        if w is not None:
            out.add((k, add(half, w)))
            out.add((k, add(half, scale(w, -1))))
    return out


def nu_construction(rng: random.Random, sigma) -> NuCase:
    """Draw tau, pi, k0 and build sigmaTilde so that (k0, pi) reduces the problem.

    Draws whose k-discriminant vanishes identically (a one-parameter family
    of perfect squares, with no discrete k to recover) are drawn again.
    """
    sigma = trim(sigma)
    while True:
        tau = (random_fraction(rng), random_fraction(rng))
        pi = trim((random_fraction(rng), random_fraction(rng)))
        k0 = random_fraction(rng)
        if not add(tau, scale(deriv(sigma), -1)):
            continue
        tau_tilde = add(tau, scale(pi, -2))
        half = scale(add(deriv(sigma), scale(tau_tilde, -1)), F(1, 2))
        w0 = add(pi, scale(half, -1))
        sigma_tilde = add(add(mul(half, half), scale(sigma, k0)), scale(mul(w0, w0), -1))
        u0 = add(mul(half, half), scale(sigma_tilde, -1))
        if _k_discriminant(u0, sigma) == (0, 0, 0):
            continue
        return NuCase(trim(tau_tilde), sigma, trim(sigma_tilde), k0, pi)
