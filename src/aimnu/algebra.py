"""Exact-rational univariate algebra in the variable r.

Provides immutable polynomials, normalized rational functions, and the
weights w with w'/w = p/sigma, deg p <= 1 and deg sigma <= 2: the Pearson
weights and the Nikiforov--Uvarov factors phi (Nikiforov & Uvarov, Special
Functions of Mathematical Physics, 1988, ch. 1).  sigma has at most two
rational poles, so each weight is prod_i (r - c_i)^{mu_i} * exp(N(r)/D(r)),
one factor per distinct simple pole in root order; ``WeightExpr`` stores
its fields as given, read off the integer numerators of p and sigma.

A Poly is stored as integer numerators over one denominator, and all of
its arithmetic runs on those integers; other modules read them only through
``cleared`` and ``Poly.coeff_pair``.  The module also owns exact roots: the
rational roots of an integer quadratic, by one exact isqrt of its
discriminant, serve ``rational_roots`` here, the weights and the k search
of the Nikiforov--Uvarov reduction.  ``partial_fractions`` is a stand-alone
decomposition that no library path calls.  Everything is exact: no
floating-point value is accepted or produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable

from .errors import (
    DivisionByZero,
    EvaluationPole,
    InvalidInput,
    UnsupportedDenominator,
)

__all__ = [
    "NEG_INF",
    "Poly",
    "RatFunc",
    "Affine",
    "WeightExpr",
    "cleared",
    "poly_gcd",
    "rational_roots",
    "integrate_log_derivative",
]

#: Degree of the zero polynomial.  A true minus-infinity sentinel so that
#: degree arithmetic never silently treats 0 as a constant of degree 0.
NEG_INF = float("-inf")

_FractionLike = Fraction | int


class Poly:
    """Dense univariate polynomial over the rationals, immutable and hashable.

    Stored as integer numerators, lowest degree first without trailing
    zeros, over one positive denominator, in lowest terms (the zero
    polynomial is () over 1); the form is canonical, so ``==`` and ``hash``
    compare the pair.  Methods work on the integers and normalise each
    result with one gcd; ``coeffs`` is the tuple of Fractions, built on use.
    """

    __slots__ = ("_nums", "_den", "_coeffs")

    def __init__(self, coeffs: Iterable[_FractionLike] = ()):
        cs = tuple(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise InvalidInput(f"polynomial coefficients {cs!r} are not all ints or Fractions")
        den = math.lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    def _store(self, nums: list[int], den: int) -> None:
        """Set the stored form of nums/den, den != 0; strips nums in place."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
        if g != 1:
            nums, den = [v // g for v in nums], den // g
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        try:
            return self._coeffs
        except AttributeError:
            object.__setattr__(self, "_coeffs", tuple(Fraction(v, self._den) for v in self._nums))
            return self._coeffs

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c: _FractionLike) -> "Poly":
        return cls((c,))

    @classmethod
    def variable(cls) -> "Poly":
        """The polynomial r."""
        return cls((0, 1))

    @classmethod
    def linear_root(cls, root: _FractionLike) -> "Poly":
        """The monic linear factor (r - root)."""
        return cls((-root, 1))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int | float:
        return len(self._nums) - 1 if self._nums else NEG_INF

    @property
    def leading(self) -> Fraction:
        if not self._nums:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return Fraction(self._nums[-1], self._den)

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self._nums):
            return Fraction(self._nums[power], self._den)
        return Fraction(0)

    def coeff_pair(self, power: int) -> tuple[int, int]:
        """The r^power coefficient, power >= 0, as (numerator, the Poly's one denominator)."""
        return (self._nums[power] if power < len(self._nums) else 0), self._den

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly | _FractionLike") -> "Poly":
        return _combine(self, _coerce_poly(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly([-v for v in self._nums], self._den)

    def __sub__(self, other: "Poly | _FractionLike") -> "Poly":
        return _combine(self, _coerce_poly(other), -1)

    def __rsub__(self, other: "Poly | _FractionLike") -> "Poly":
        return _combine(_coerce_poly(other), self, -1)

    def __mul__(self, other: "Poly | _FractionLike") -> "Poly":
        if isinstance(other, (Fraction, int)):
            return _poly([v * other.numerator for v in self._nums], self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return _poly(_dot([(self._nums, other._nums)]), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InvalidInput("negative polynomial power")
        result, base, e = Poly.const(1), self, exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            base = base * base if e else base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division on the numerators A, B: s A = Q B + R, with s grown
        only by what makes each next quotient coefficient an integer."""
        other = _coerce_poly(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem, b, dn = list(self._nums), other._nums, len(other._nums)
        if len(rem) < dn:
            return Poly(), self
        quo, s, lead = [0] * (len(rem) - dn + 1), 1, b[-1]
        for i in range(len(rem) - dn, -1, -1):
            t = rem[i + dn - 1]
            if not t:
                continue
            g = abs(lead) // math.gcd(t, lead)
            if g > 1:
                rem, quo, s, t = [v * g for v in rem], [v * g for v in quo], s * g, t * g
            quo[i] = c = t // lead
            for j, v in enumerate(b):
                rem[i + j] -= c * v
        s *= self._den
        return _poly([v * other._den for v in quo], s), _poly(rem[: dn - 1], s)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "Poly":
        return _poly(_derivative(self._nums), self._den)

    def evaluate(self, x: _FractionLike) -> Fraction:
        u, v = x.as_integer_ratio()
        return Fraction(_horner(self._nums, u, v), self._den * v ** max(len(self._nums) - 1, 0))

    def compose_linear(self, a: _FractionLike) -> "Poly":
        """p(a + r) as a polynomial in r."""
        u, v = a.as_integer_ratio()
        return _poly(_shifted(self._nums, u, v), self._den * v ** max(len(self._nums) - 1, 0))

    # -- display ------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                var = "r" if i == 1 else f"r^{i}"
                term = f"{'-' if c < 0 else ''}{mag}{var}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _coerce_poly(x: "Poly | _FractionLike") -> Poly:
    return x if isinstance(x, Poly) else Poly((x,))


def _poly(nums: list[int], den: int = 1) -> Poly:
    """The Poly nums/den, den != 0, built from integers; strips nums in place."""
    p = object.__new__(Poly)
    p._store(nums, den)
    return p


def _ratfunc(num: Poly, den: Poly) -> "RatFunc":
    """The RatFunc num/den as given: the caller passes it in normalised form."""
    f = object.__new__(RatFunc)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _combine(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign * b over the lcm of the two denominators."""
    m = math.lcm(a._den, b._den)
    sa, sb = m // a._den, sign * (m // b._den)
    return _poly([x * sa + y * sb for x, y in zip_longest(a._nums, b._nums, fillvalue=0)], m)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; InvalidInput if both arguments are zero.
    A primitive remainder sequence on integers (Brown, J. ACM 18 (1971) 478)."""
    if a.is_zero and b.is_zero:
        raise InvalidInput("gcd of two zero polynomials")
    x, y = _primitive(list(a._nums)), _primitive(list(b._nums))
    while y:
        while len(x) >= len(y):  # x <- lc(y) x - x[-1] r^top y, whose top term cancels
            f, top = x[-1], len(x) - len(y)
            x = [c * y[-1] for c in x]
            for i, c in enumerate(y):
                x[top + i] -= f * c
            while x and not x[-1]:
                x.pop()
        x, y = y, _primitive(x)
    return _poly(x, x[-1])


class RatFunc:
    """Normalized rational function num/den: gcd-reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | _FractionLike, den: Poly | _FractionLike = 1):
        num, den = _coerce_poly(num), _coerce_poly(den)
        if den.is_zero:
            raise DivisionByZero("zero denominator in rational function")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            g = poly_gcd(num, den) if den.degree else den  # a constant den: the gcd is 1
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num, den = num * (1 / lead), den * (1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatFunc is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den == Poly.const(1)

    def __add__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        other = _coerce_ratfunc(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        return self + (-_coerce_ratfunc(other))

    def __rsub__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        return _coerce_ratfunc(other) + (-self)

    def __mul__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        other = _coerce_ratfunc(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        other = _coerce_ratfunc(other)
        if other.is_zero:
            raise DivisionByZero("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: "RatFunc | Poly | _FractionLike") -> "RatFunc":
        return _coerce_ratfunc(other) / self

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int, Poly)):
            other = _coerce_ratfunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def derivative(self) -> "RatFunc":
        """Exact derivative via the quotient rule."""
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x: _FractionLike) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise EvaluationPole(f"pole at r = {x}")
        return self.num.evaluate(x) / d

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        if self.is_poly:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _coerce_ratfunc(x: "RatFunc | Poly | _FractionLike") -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(_coerce_poly(x))


@dataclass(frozen=True)
class Affine:
    """A value affine in one parameter p, const + slope * p: two Fractions
    for a scalar, or two Polys in r for a polynomial such as tau."""

    const: Poly | Fraction
    slope: Poly | Fraction

    def substitute(self, p: Fraction) -> Poly | Fraction:
        return self.const + self.slope * p


# ----------------------------------------------------------------------
# Rational root extraction and partial fractions
# ----------------------------------------------------------------------


def cleared(*items: Poly | _FractionLike) -> tuple[list[list[int]], int]:
    """(lists, m): each item's integer coefficients, lowest power first, over m > 0, the
    lcm of the denominators.  A Fraction or int counts as a constant; zero clears to []."""
    pairs = [(p._nums, p._den) if isinstance(p, Poly) else ((p.numerator,) if p else (), p.denominator)
             for p in items]
    m = math.lcm(*[den for _, den in pairs])
    return [[v * (m // den) for v in nums] for nums, den in pairs], m


def _dot(pairs) -> list[int]:
    """Sum of the products a * b of integer coefficient lists, lowest power first."""
    out: list[int] = []
    for a, b in pairs:
        if not (a and b):  # a zero factor
            continue
        out += [0] * (len(a) + len(b) - 1 - len(out))
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                out[s + t] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def _derivative(ints) -> list[int]:
    """The derivative of an integer coefficient list, lowest power first."""
    return [i * v for i, v in enumerate(ints)][1:]


def _primitive(ints: list[int]) -> list[int]:
    content = math.gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def _horner(ints: list[int], u: int, v: int) -> int:
    """v^n p(u/v) for the integer polynomial p of degree n, v > 0, by homogeneous Horner."""
    acc, vp = 0, 1
    for c in reversed(ints):
        acc = acc * u + c * vp
        vp *= v
    return acc


def _shifted(ints, u: int, v: int) -> list[int]:
    """v^n p(u/v + x) as an integer list in x, for the integer polynomial p of
    degree n, v > 0: P(y) = v^n p(y/v) Taylor-shifted in place to P(y + u), then y = v x."""
    n = len(ints) - 1
    d = [c * v ** (n - j) for j, c in enumerate(ints)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            d[j] += u * d[j + 1]
    return [c * v**i for i, c in enumerate(d)]


def _isqrt_exact(n: int) -> int | None:
    """The integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    root = math.isqrt(n)
    return root if root * root == n else None


def _quadratic_roots(c: int, b: int, a: int) -> list[tuple[Fraction, int]]:
    """The rational roots of c + b x + a x^2, integers not all zero, ascending with
    their multiplicities: (-b -+ s)/(2a) when s = sqrt(b^2 - 4ac) is an integer."""
    if not a:
        return [(Fraction(-c, b), 1)] if b else []
    s = _isqrt_exact(b * b - 4 * a * c)
    if s is None:
        return []
    if not s:
        return [(Fraction(-b, 2 * a), 2)]
    return sorted([(Fraction(-b - s, 2 * a), 1), (Fraction(-b + s, 2 * a), 1)])


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """The rational roots of p, nonzero of degree <= 2, ascending with their
    multiplicities, and the cofactor: p = prod (r - c)^m * residual exactly.

    The roots are those of p's integer numerators; with any, the residual is
    p's leading coefficient, else p itself.
    """
    if p.is_zero or p.degree > 2:
        raise InvalidInput(f"rational_roots takes a nonzero polynomial of degree <= 2, not {p}")
    roots = _quadratic_roots(*(*p._nums, 0, 0)[:3])
    return (roots, Poly.const(p.leading)) if roots else ([], p)


def partial_fractions(f: RatFunc) -> tuple[Poly, tuple[tuple[Fraction, int, Fraction], ...]]:
    """Decompose f, of denominator degree <= 2, over its rational poles: the pair
    (poly_part, terms), f = poly_part + sum coeff / (r - root)^order, with the
    (root, order, coeff) terms sorted by root, then order.

    With poly_part, rem = divmod(num, den), a simple root a has rem(a)/den'(a);
    a double root, den = c (r - a)^2, has rem'/c at order 1 and rem(a)/c at
    order 2.  Zero terms are dropped; no rational root: UnsupportedDenominator.
    """
    den = f.den
    if den.degree > 2:
        raise InvalidInput(f"partial_fractions takes a denominator of degree <= 2, not {den}")
    poly_part, rem = divmod(f.num, den)
    roots, residual = ([], den) if rem.is_zero else rational_roots(den)
    if residual.degree > 0:
        raise UnsupportedDenominator(f"denominator factor without rational roots: {residual}")
    terms: list[tuple[Fraction, int, Fraction]] = []
    for root, m in roots:
        if m == 1:
            terms.append((root, 1, rem.evaluate(root) / den.derivative().evaluate(root)))
        else:
            terms += [(root, 1, rem.coeff(1) / den.leading), (root, 2, rem.evaluate(root) / den.leading)]
    return poly_part, tuple(sorted(t for t in terms if t[2]))


# ----------------------------------------------------------------------
# Weight expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WeightExpr:
    """P(r) * prod_i (r - c_i)^{mu_i} * exp(g(r)) with P, g rational functions.

    The fields are stored as given, with no coercion or check: the producer
    builds the canonical form (``integrate_log_derivative`` gives prefactor
    1 and distinct, sorted roots with nonzero mu), so that equal weights
    compare equal.
    """

    prefactor: RatFunc
    factors: tuple[tuple[Fraction, Fraction], ...]
    exp_arg: RatFunc

    def log_derivative(self) -> RatFunc:
        """(w'/w) as an exact rational function."""
        total = self.prefactor.derivative() / self.prefactor
        for root, mu in self.factors:
            total = total + RatFunc(Poly.const(mu), Poly.linear_root(root))
        return total + self.exp_arg.derivative()

    def __str__(self) -> str:
        parts = []
        if not (self.prefactor == RatFunc(1)) or not self.factors:
            parts.append(f"({self.prefactor})")
        for root, mu in self.factors:
            parts.append(f"(r {'-' if root > 0 else '+'} {abs(root)})^{mu}" if root else f"r^{mu}")
        if not self.exp_arg.is_zero:
            parts.append(f"exp({self.exp_arg})")
        return " * ".join(parts) if parts else "1"


def integrate_log_derivative(p: Poly, sigma: Poly) -> WeightExpr:
    """Return w with w'/w = p/sigma as a WeightExpr (integration constant = 1),
    for deg p <= 1 and a nonzero sigma of degree <= 2 (else InvalidInput).

    Read off the integers P/S = p/sigma of ``cleared`` and the rational roots
    of S: a simple root a = u/v gives (r - a)^mu, mu = P(a)/S'(a) =
    (p0 v + p1 u)/(s1 v + 2 s2 u); a double root, S = s2 (r - a)^2, gives
    mu = p1/s2 and the exponent -P(a)/(s2 (r - a)); a linear S adds the
    exponent (p1/s1) r, and a constant S gives only (p0 r + p1 r^2/2)/s0.
    Zero terms are dropped and the fields are built in canonical form.  A
    quadratic S with no rational root and P != 0: UnsupportedDenominator.
    """
    if sigma.is_zero:
        raise DivisionByZero("zero denominator in rational function")
    if p.degree > 1 or sigma.degree > 2:
        raise InvalidInput(f"a weight takes deg p <= 1 and deg sigma <= 2, not {p} over {sigma}")
    (P, S), _ = cleared(p, sigma)
    roots = _quadratic_roots(*(S + [0, 0])[:3]) if S[1:] else []
    if S[2:] and not roots and P:
        raise UnsupportedDenominator(f"denominator factor without rational roots: {_poly(S, S[2])}")
    return _weight(P, S, roots)


def _weight(P: list[int], S: list[int], roots: list[tuple[Fraction, int]]) -> WeightExpr:
    """The weight of ``integrate_log_derivative`` from the integers P/S = p/sigma, in any
    common scaling, and ``_quadratic_roots`` of S (none for a constant S)."""
    (p0, p1), (s0, s1, s2), one = (P + [0, 0])[:2], (S + [0, 0])[:3], _poly([1])
    if not (s1 or s2):
        return WeightExpr(_ratfunc(one, one), (), _ratfunc(_poly([0, 2 * p0, p1], 2 * s0), one))
    factors, exp_arg = [], _ratfunc(_poly([0, p1], s1) if not s2 else _poly([]), one)
    for a, multiplicity in roots:
        u, v = a.numerator, a.denominator
        pa = p0 * v + p1 * u  # v P(a)
        if multiplicity == 2 and pa:
            exp_arg = _ratfunc(_poly([-pa], s2 * v), _poly([-u, v], v))
        mu = (pa, s1 * v + 2 * s2 * u) if multiplicity == 1 else (p1, s2)
        if mu[0]:
            factors.append((a, Fraction(*mu)))
    return WeightExpr(_ratfunc(one, one), tuple(factors), exp_arg)
