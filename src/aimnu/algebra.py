"""Exact-rational univariate algebra in the variable r.

Provides immutable polynomials, normalized rational functions, partial
fraction decompositions over rational roots, and weight expressions of the
form  P(r) * prod_i (r - c_i)^{mu_i} * exp(N(r)/D(r)),  which hold every
weight that integrating a rational log-derivative with rational poles
gives: the Pearson weights and the Nikiforov--Uvarov factors phi
(including exp(-2/r) for the Bessel-type equations).  Weights are
canonical when built: ``integrate_log_derivative`` gives prefactor 1 and
one factor per distinct simple pole, in root order, and ``WeightExpr``
stores its fields as given, never factoring them again.

All arithmetic is exact, and no floating-point value is ever produced;
products, evaluation and gcd run on cleared integer numerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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
    "PartialFractionForm",
    "WeightExpr",
    "poly_gcd",
    "partial_fractions",
    "rational_roots",
    "integrate_log_derivative",
]

#: Degree of the zero polynomial.  A true minus-infinity sentinel so that
#: degree arithmetic never silently treats 0 as a constant of degree 0.
NEG_INF = float("-inf")

_FractionLike = Fraction | int


def _as_fraction(x: _FractionLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Coefficients are stored lowest degree first; the zero polynomial is the
    empty tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_FractionLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Poly is immutable")

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
        return cls((-_as_fraction(root), 1))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, power: int) -> Fraction:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly | _FractionLike") -> "Poly":
        other = _coerce_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coeff(i) + other.coeff(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly | _FractionLike") -> "Poly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other: "Poly | _FractionLike") -> "Poly":
        return _coerce_poly(other) + (-self)

    def __mul__(self, other: "Poly | _FractionLike") -> "Poly":
        if isinstance(other, (Fraction, int)):
            return Poly(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return Poly()
        (a,), da = _clear_denominators(self.coeffs)
        (b,), db = _clear_denominators(other.coeffs)
        return Poly(Fraction(v, da * db) for v in _dot([(a, b)]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise InvalidInput("negative polynomial power")
        result = Poly.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            base = base * base if e else base
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = _coerce_poly(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        if len(rem) < dn:
            return Poly(), self
        quo = [Fraction(0)] * (len(rem) - dn + 1)
        lead = other.coeffs[-1]
        for i in range(len(rem) - dn, -1, -1):
            c = rem[i + dn - 1] / lead
            if c == 0:
                continue
            quo[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Poly(quo), Poly(rem[: dn - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (Fraction, int)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def integral(self) -> "Poly":
        """Formal antiderivative with zero constant term."""
        return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def evaluate(self, x: _FractionLike) -> Fraction:
        u, v = _as_fraction(x).as_integer_ratio()
        (ints,), m = _clear_denominators(self.coeffs)
        return Fraction(_horner(ints, u, v), m * v ** max(len(ints) - 1, 0))

    def compose_linear(self, a: _FractionLike, b: _FractionLike = 1) -> "Poly":
        """p(a + b*r) as a polynomial in r."""
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * Poly((a, b)) + c
        return out

    def real_roots(
        self, lo: _FractionLike, hi: _FractionLike, width: Fraction | None = None
    ) -> list[tuple[Fraction, Fraction]]:
        """Every distinct real root in the open interval (lo, hi), ascending.

        Each root comes as a pair (a, b): a == b is an exact rational root,
        a < b an open interval that holds one irrational root, narrower than
        ``width`` when given.  The roots of the squarefree part are isolated
        by Descartes' rule of signs with bisection on primitive integer
        coefficients (Collins & Akritas, SYMSAC 1976), then refined by
        testing the simplest rational inside each interval (``_refine``).
        """
        if self.is_zero:
            raise InvalidInput("real roots of the zero polynomial")
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        if not lo < hi or (width is not None and width <= 0):
            raise InvalidInput(f"empty interval ({lo}, {hi}) or width {width} <= 0")
        if self.degree < 1:
            return []
        ints = _integer_coeffs(self)
        if not _squarefree_mod_prime(ints):
            ints = _integer_coeffs(self // poly_gcd(self, self.derivative()))
        found: list[tuple[Fraction, Fraction]] = []
        isolated: list[tuple[Fraction, Fraction]] = []
        # Descartes bisection on P(x) = p(lo + (hi - lo) x), x in (0, 1)
        stack = [(lo, hi, _map_to_unit(ints, lo, hi - lo))]
        while stack:
            a, b, cs = stack.pop()
            signs = [c > 0 for c in _shift_by_one(cs[::-1]) if c]
            variations = sum(s != t for s, t in zip(signs, signs[1:]))
            if variations == 1:
                isolated.append((a, b))
            elif variations > 1:
                n, mid = len(cs) - 1, (a + b) / 2
                left = _primitive([c << (n - i) for i, c in enumerate(cs)])  # 2^n P(x/2)
                right = _shift_by_one(left)
                if right[0] == 0:
                    found.append((mid, mid))
                stack += [(a, mid, left), (mid, b, right)]
        found += [_refine(ints, lo_, hi_, width) for lo_, hi_ in isolated]
        return sorted(found)

    # -- normal forms -------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.coeffs[-1]
        return Poly(c / lead for c in self.coeffs)

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
    if isinstance(x, Poly):
        return x
    return Poly.const(_as_fraction(x))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; InvalidInput if both arguments are zero.
    A primitive remainder sequence on integers (Brown, J. ACM 18 (1971) 478)."""
    if a.is_zero and b.is_zero:
        raise InvalidInput("gcd of two zero polynomials")
    x, y = _integer_coeffs(a), _integer_coeffs(b)
    while y:
        while len(x) >= len(y):  # x <- lc(y) x - x[-1] r^top y, whose top term cancels
            f, top = x[-1], len(x) - len(y)
            x = [c * y[-1] for c in x]
            for i, c in enumerate(y):
                x[top + i] -= f * c
            while x and not x[-1]:
                x.pop()
        x, y = y, _primitive(x)
    return Poly(x).monic()


class RatFunc:
    """Normalized rational function num/den: gcd-reduced, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | _FractionLike, den: Poly | _FractionLike = 1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero:
            raise DivisionByZero("zero denominator in rational function")
        if num.is_zero:
            num, den = Poly(), Poly.const(1)
        else:
            g = poly_gcd(num, den)
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


def _clear_denominators(*coeff_lists: tuple[Fraction, ...]) -> tuple[list[list[int]], int]:
    """The numerators of each list over m, the lcm of all their denominators; and m."""
    m = math.lcm(*(c.denominator for cs in coeff_lists for c in cs))
    return [[c.numerator * (m // c.denominator) for c in cs] for cs in coeff_lists], m


def _dot(pairs) -> list[int]:
    """Sum of the products a * b of integer coefficient lists, lowest power first."""
    out: list[int] = []
    for a, b in pairs:
        out += [0] * (len(a) + len(b) - 1 - len(out))
        for s, x in enumerate(a):
            for t, y in enumerate(b):
                out[s + t] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def _integer_coeffs(p: Poly) -> list[int]:
    """Clear denominators and content; return primitive integer coefficients."""
    return _primitive(_clear_denominators(p.coeffs)[0][0])


def _primitive(ints: list[int]) -> list[int]:
    content = math.gcd(*ints)
    return [v // content for v in ints] if content > 1 else ints


def _squarefree_mod_prime(ints: list[int]) -> bool:
    """True when gcd(p, p') = 1 modulo 2^61 - 1, which proves p squarefree
    (a common factor over Q would survive, the prime not dividing lc)."""
    q = (1 << 61) - 1
    a, b = [c % q for c in ints], [i * c % q for i, c in enumerate(ints)][1:]
    if not a[-1]:
        return False
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, q)
        while len(a) >= len(b):  # a <- a mod b
            f, top = a[-1] * inv % q, len(a) - len(b)
            for i, c in enumerate(b):
                a[top + i] = (a[top + i] - f * c) % q
            a.pop()
        a, b = b, a


def _shift_by_one(cs: list[int]) -> list[int]:
    """Coefficients of P(x + 1), lowest degree first."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += cs[j + 1]
    return cs


def _map_to_unit(ints: list[int], lo: Fraction, width: Fraction) -> list[int]:
    """Primitive integer coefficients of p(lo + width x), in integer steps:
    with lo = u/v and width = s/t, scale by v^n, shift by u, then scale the
    coefficient of x^i by (v s)^i t^(n-i)."""
    (u, v), (s, t), n = lo.as_integer_ratio(), width.as_integer_ratio(), len(ints) - 1
    cs = [c * v ** (n - i) for i, c in enumerate(ints)]
    for i in range(n):  # cs <- cs(x + u)
        for j in range(n - 1, i - 1, -1):
            cs[j] += u * cs[j + 1]
    return _primitive([c * (v * s) ** i * t ** (n - i) for i, c in enumerate(cs)])


def _horner(ints: list[int], u: int, v: int) -> int:
    """v^n p(u/v) for the integer polynomial p of degree n, v > 0, by homogeneous Horner."""
    acc, vp = 0, 1
    for c in reversed(ints):
        acc = acc * u + c * vp
        vp *= v
    return acc


def _sign_at(ints: list[int], u: int, v: int) -> int:
    """Sign of the integer polynomial at u/v, v > 0."""
    acc = _horner(ints, u, v)
    return (acc > 0) - (acc < 0)


def _refine(
    ints: list[int], a: Fraction, b: Fraction, width: Fraction | None
) -> tuple[Fraction, Fraction]:
    """The one simple root in (a, b) of a squarefree primitive polynomial.

    A Stern-Brocot descent: the ends p0/q0 < root < p1/q1 stay adjacent, so
    each probe is the simplest rational inside, and runs of moves to one
    side gallop.  A rational root u/v has v | lc, so once the mediant's
    denominator exceeds |lc| the root is certified irrational; this happens
    by width 1/(2 lc^2) at the latest.
    """
    derivative = [i * c for i, c in enumerate(ints)][1:]
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    sign_a = _sign_at(ints, an, ad) or _sign_at(derivative, an, ad)

    def side(p: int, q: int) -> int:  # -1: p/q below the root, 0: the root, 1: above
        if p * bd >= bn * q:
            return 1
        if p * ad <= an * q:
            return -1
        s = _sign_at(ints, p, q)
        return 0 if s == 0 else (-1 if s == sign_a else 1)

    p0, q0, p1, q1 = math.floor(a), 1, 1, 0
    while q0 + q1 <= abs(ints[-1]) or (width is not None and q0 * q1 * width <= 1):
        s = side(p0 + p1, q0 + q1)
        # the nodes base + t*step, t >= 1, run from the mediant to the far end
        (bp, bq), (sp, sq) = ((p0, q0), (p1, q1)) if s < 0 else ((p1, q1), (p0, q0))
        lo, hi, probe, r = 1, 1, 1, s
        while r == s != 0:
            lo, hi = hi, 2 * hi
            probe, r = hi, side(bp + hi * sp, bq + hi * sq)
        while r and hi - lo > 1:
            probe = (lo + hi) // 2
            r = side(bp + probe * sp, bq + probe * sq)
            lo, hi = (probe, hi) if r == s else (lo, probe)
        if not r:
            root = Fraction(bp + probe * sp, bq + probe * sq)
            return root, root
        ends = [(bp + lo * sp, bq + lo * sq), (bp + hi * sp, bq + hi * sq)]
        (p0, q0), (p1, q1) = ends if s < 0 else ends[::-1]
    return max(a, Fraction(p0, q0)), min(b, Fraction(p1, q1))


def rational_roots(p: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots of p with multiplicities, plus the root-free cofactor.

    Returns (roots, residual) with p = prod (r - c)^m * residual exactly;
    residual has no rational roots.  The roots are the exact ones that
    ``Poly.real_roots`` certifies inside the Cauchy bound.
    """
    if p.is_zero:
        raise InvalidInput("rational_roots of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    work = p
    bound = 1 + max((abs(c / p.leading) for c in p.coeffs[:-1]), default=0)
    for root in (a for a, b in p.real_roots(-bound, bound) if a == b):
        m = 0
        while work.evaluate(root) == 0:
            work, m = work // Poly.linear_root(root), m + 1
        roots.append((root, m))
    return roots, work


@dataclass(frozen=True)
class PartialFractionForm:
    """Exact decomposition poly_part + sum coeff / (r - root)^order, with the
    (root, order, coeff) terms sorted by root, then order."""

    poly_part: Poly
    terms: tuple[tuple[Fraction, int, Fraction], ...]

    def reassemble(self) -> RatFunc:
        total = RatFunc(self.poly_part)
        for root, order, coeff in self.terms:
            total = total + RatFunc(Poly.const(coeff), Poly.linear_root(root) ** order)
        return total


def partial_fractions(f: RatFunc) -> PartialFractionForm:
    """Decompose f over its rational linear factors.

    Raises UnsupportedDenominator when the denominator has an irreducible
    factor without rational roots; nothing is ever approximated.
    """
    poly_part, rem = divmod(f.num, f.den)
    if rem.is_zero:
        return PartialFractionForm(poly_part, ())
    roots, residual = rational_roots(f.den)
    if residual.degree > 0:
        raise UnsupportedDenominator(
            f"denominator factor without rational roots: {residual}"
        )
    terms: list[tuple[Fraction, int, Fraction]] = []
    for root, m in roots:
        cofactor = f.den // (Poly.linear_root(root) ** m)
        g = RatFunc(rem, cofactor)
        fact = 1
        for i in range(m):
            if i > 0:
                g = g.derivative()
                fact *= i
            coeff = g.evaluate(root) / fact
            if coeff != 0:
                terms.append((root, m - i, coeff))
    return PartialFractionForm(poly_part, tuple(sorted(terms)))


# ----------------------------------------------------------------------
# Weight expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True, init=False)
class WeightExpr:
    """P(r) * prod_i (r - c_i)^{mu_i} * exp(g(r)) with P, g rational functions.

    The prefactor is never zero.  The fields are stored as given: the
    producer builds the canonical form (``integrate_log_derivative`` gives
    prefactor 1 and distinct, sorted roots with nonzero mu), so that equal
    weights compare equal.
    """

    prefactor: RatFunc
    factors: tuple[tuple[Fraction, Fraction], ...]
    exp_arg: RatFunc

    def __init__(
        self,
        prefactor: RatFunc | Poly | _FractionLike = 1,
        factors: Iterable[tuple[Fraction, Fraction]] = (),
        exp_arg: RatFunc | Poly | _FractionLike = 0,
    ):
        prefactor = _coerce_ratfunc(prefactor)
        if prefactor.is_zero:
            raise InvalidInput("a weight expression is never zero")
        object.__setattr__(self, "prefactor", prefactor)
        object.__setattr__(
            self, "factors", tuple((_as_fraction(r), _as_fraction(mu)) for r, mu in factors)
        )
        object.__setattr__(self, "exp_arg", _coerce_ratfunc(exp_arg))

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
            parts.append(f"(r - {root})^{mu}" if root != 0 else f"r^{mu}")
        if not self.exp_arg.is_zero:
            parts.append(f"exp({self.exp_arg})")
        return " * ".join(parts) if parts else "1"


def integrate_log_derivative(f: RatFunc) -> WeightExpr:
    """Return w with w'/w = f, as a WeightExpr (integration constant = 1).

    The polynomial part integrates into the exponential argument, simple
    poles become power factors, and higher-order poles integrate back into
    rational exponential arguments.  Raises UnsupportedDenominator when the
    denominator of f has no rational-root factorization.
    """
    pf = partial_fractions(f)
    exp_arg = RatFunc(pf.poly_part.integral())
    factors: list[tuple[Fraction, Fraction]] = []
    for root, order, coeff in pf.terms:
        if order == 1:
            factors.append((root, coeff))
        else:
            exp_arg = exp_arg + RatFunc(
                Poly.const(-coeff / (order - 1)),
                Poly.linear_root(root) ** (order - 1),
            )
    return WeightExpr(1, factors, exp_arg)
