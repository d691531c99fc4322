"""Exact rationals, quadratic surds, and certified real enclosures.

Every exact quantity in this package is a ``Fraction`` or a ``Quad`` and is
used as itself.  A value that is known only by enclosures (a prefix tail, an
irrational power, or an expression containing one) is a :class:`Real`, which
gives a :class:`RealEnclosure`, a closed interval between two rationals
guaranteed to contain the value, at any requested precision.  :func:`enclose`
encloses any value: a rational's enclosure is the point itself.  Enclosures
carry the interval operators, and every enclosure is bounded: dividing by one
that contains 0 raises :class:`DomainError`, and a prefix without a tail bound
raises rather than enclose a tail past its end.  A ``Quad`` keeps the
radicand it is built with, never factored.  :func:`exact_cmp` is the one
order on exact values, and it implements a ``Quad``'s operators: its ``==``,
hash, order and printed form are its value's, whatever radicand stores it.
Comparisons with a ``Real`` go through :func:`cmp_certified`, which refines
both sides on a doubling precision ladder and never reports an order it
cannot prove.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import total_ordering
from fractions import Fraction
from typing import Callable, Optional, Union

DEFAULT_BITS = 64
DEFAULT_PRECISION = 256
PRECISION_CAP = 4096

RatLike = Union[int, Fraction]


class DomainError(ValueError):
    """An operation was evaluated outside its mathematical domain."""


class InternalConsistencyError(AssertionError):
    """Two independent computation routes produced incompatible results."""


def _ensure_str_digits(decimal_digits: int) -> None:
    # exact measures can carry integers beyond the interpreter's default
    # int<->str conversion guard; raise it just far enough when needed
    try:
        current = sys.get_int_max_str_digits()
    except AttributeError:  # no guard on this interpreter
        return
    if current != 0 and decimal_digits + 10 > current:
        sys.set_int_max_str_digits(max(decimal_digits + 10, 640))


def parse_rat(text: str) -> Fraction:
    """Parse "num/den", integer, or decimal text into an exact Fraction."""
    text = text.strip()
    _ensure_str_digits(len(text))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational: {text!r}") from exc


def format_rat(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
    if bits > 2000:  # at most 605 digits, below any digit limit (>= 640)
        _ensure_str_digits(bits * 302 // 1000 + 1)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if n < 0:
        raise DomainError("iroot of negative integer")
    if k < 1:
        raise DomainError("iroot order must be >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    x = 1 << -(-n.bit_length() // k)  # power of two >= the root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealEnclosure:
    """Certified closed interval [lo, hi] of rationals containing an exact real value."""

    lo: Fraction
    hi: Fraction
    bits: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InternalConsistencyError(f"inverted enclosure [{self.lo}, {self.hi}]")

    def contains(self, x: Fraction) -> bool:
        return self.lo <= x <= self.hi

    def to_obj(self) -> dict:
        return {"lo": format_rat(self.lo), "hi": format_rat(self.hi), "bits": self.bits}

    # -- interval operators (Moore): each result encloses every combination
    # of points of its operands; a binary result has the coarser precision

    def __neg__(self) -> RealEnclosure:
        return RealEnclosure(-self.hi, -self.lo, self.bits)

    def __add__(self, other: RealEnclosure) -> RealEnclosure:
        return RealEnclosure(self.lo + other.lo, self.hi + other.hi, min(self.bits, other.bits))

    def __sub__(self, other: RealEnclosure) -> RealEnclosure:
        return self + -other

    def __mul__(self, other: RealEnclosure) -> RealEnclosure:
        prods = [self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi]
        return RealEnclosure(min(prods), max(prods), min(self.bits, other.bits))

    def __truediv__(self, other: RealEnclosure) -> RealEnclosure:
        if other.lo <= 0 <= other.hi:
            raise DomainError(f"division by an enclosure containing 0 at {other.bits} bits: "
                              f"[{format_rat(other.lo)}, {format_rat(other.hi)}]")
        return self * RealEnclosure(Fraction(1) / other.hi, Fraction(1) / other.lo, other.bits)

    def __abs__(self) -> RealEnclosure:
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RealEnclosure(Fraction(0), max(-self.lo, self.hi), self.bits)

    def __and__(self, other: RealEnclosure) -> RealEnclosure:
        """The intersection, which holds the one value both enclose."""
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise InternalConsistencyError(
                f"disjoint enclosures [{self.lo},{self.hi}] and [{other.lo},{other.hi}]"
            )
        return RealEnclosure(lo, hi, max(self.bits, other.bits))


# ---------------------------------------------------------------------------
# Quadratic surds a + b*sqrt(d)
# ---------------------------------------------------------------------------

def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _floor_quad_int(x: int, y: int, z: int, d: int) -> int:
    """floor((x + y*sqrt(d)) / z) for integers, z != 0, d >= 2 non-square (unused if y = 0)."""
    if z < 0:
        x, y, z = -x, -y, -z
    if y == 0:
        return x // z
    s = math.isqrt(y * y * d)
    # y*sqrt(d) is irrational, so its integer part is exact: s for y>0,
    # -(s+1) for y<0
    f = s if y > 0 else -(s + 1)
    return (x + f) // z


def _surd_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d) for rational a, b and non-square d >= 2 (unused if b = 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        raise InternalConsistencyError("surd compared equal to a rational")
    big_a = lhs > rhs
    if a > 0:
        return 1 if big_a else -1
    return -1 if big_a else 1


_ZERO = Fraction(0)


@total_ordering
@dataclass(frozen=True, eq=False)
class Quad:
    """Exact quadratic surd a + b*sqrt(d) with b != 0 and d >= 2 non-square.

    A Quad keeps the radicand it is built with; no radicand is ever factored.
    The arithmetic below keeps it too: a result in the same field is built
    over this radicand.  Comparisons read the value only: they compare with
    ints, Fractions and Quads by :func:`exact_cmp`, and hash and repr read
    (a, b*|b|*d), the same for every radicand.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.b == 0:
            raise DomainError("Quad requires a nonzero surd coefficient")
        if self.d < 2 or is_square(self.d):
            raise DomainError(f"Quad discriminant must be non-square >= 2, got {self.d}")

    # -- arithmetic ---------------------------------------------------------

    def _parts(self, other) -> Optional[tuple[Fraction, Fraction]]:
        """(rational part, surd coefficient) of `other` in this field.

        A radicand d2 names the same field exactly when d*d2 is a perfect
        square, and then sqrt(d2) = isqrt(d*d2)/d * sqrt(d).
        """
        if isinstance(other, Quad):
            if other.d == self.d:
                return other.a, other.b
            prod = self.d * other.d
            r = math.isqrt(prod)
            if r * r != prod:
                return None
            return other.a, other.b * Fraction(r, self.d)
        if isinstance(other, Fraction):
            return other, _ZERO
        if isinstance(other, int):
            return Fraction(other), _ZERO
        return None

    def _in_field(self, a: Fraction, b: Fraction) -> ExactValue:
        """a + b*sqrt(d) in this field, a Fraction when b vanishes."""
        return Quad(a, b, self.d) if b else a

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._in_field(self.a + p[0], self.b + p[1])

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._in_field(self.a - p[0], self.b - p[1])

    def __rsub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._in_field(p[0] - self.a, p[1] - self.b)

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        x, y = p
        if not y:
            return self._in_field(self.a * x, self.b * x)
        return self._in_field(self.a * x + self.b * y * self.d, self.a * y + self.b * x)

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise InternalConsistencyError("zero norm for irrational surd")
        return Quad(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        if p[1] == 0:
            if p[0] == 0:
                raise ZeroDivisionError("division by zero")
            return Quad(self.a / p[0], self.b / p[0], self.d)
        return self * Quad(p[0], p[1], self.d).inverse()

    def __rtruediv__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        inv = self.inverse()
        return inv * p[0] if p[1] == 0 else NotImplemented

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        return _surd_sign(self.a, self.b, self.d)

    def _cmp(self, other) -> Optional[int]:
        p = self._parts(other)
        if p is None:
            return None
        return _surd_sign(self.a - p[0], self.b - p[1], self.d)

    def __eq__(self, other):
        return self._cmp(other) == 0 if isinstance(other, _EXACT) else NotImplemented

    def __lt__(self, other):
        return exact_cmp(self, other) < 0 if isinstance(other, _EXACT) else NotImplemented

    def _invariant(self) -> tuple[Fraction, Fraction]:
        """(a, b*|b|*d): one pair for every radicand that stores this value."""
        return self.a, self.b * abs(self.b) * self.d

    def __hash__(self):
        return hash(self._invariant())

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- conversion ---------------------------------------------------------

    def floor(self) -> int:
        return _floor_quad_int(*integer_form(self))

    def enclose(self, bits: int) -> RealEnclosure:
        s = max(bits, 1)
        x, y, z, d = integer_form(self)
        t = _floor_quad_int(x << s, y << s, z, d)
        return RealEnclosure(Fraction(t, 1 << s), Fraction(t + 1, 1 << s), bits)

    def __repr__(self):
        a, s = self._invariant()
        return f"({format_rat(a)} {'+' if s > 0 else '-'} sqrt({format_rat(abs(s))}))"


def surd(a: Fraction, b: Fraction, d: int) -> Union[Fraction, Quad]:
    """Build a + b*sqrt(d): a Fraction when b = 0 or d is a perfect square,
    else the Quad over d as given."""
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    if d <= 0:
        raise DomainError("surd radicand must be positive")
    if is_square(d):
        return a + b * math.isqrt(d)
    return Quad(a, b, d)


ExactValue = Union[Fraction, Quad]
_EXACT = (int, Fraction, Quad)  # what a Quad compares with


def integer_form(v: ExactValue) -> tuple[int, int, int, int]:
    """(x, y, z, d) with v = (x + y*sqrt(d))/z and z > 0; y = d = 0 for a Fraction."""
    if isinstance(v, Fraction):
        return v.numerator, 0, v.denominator, 0
    a, b = v.a, v.b
    return (a.numerator * b.denominator, b.numerator * a.denominator,
            a.denominator * b.denominator, v.d)


def exact_cmp(x: ExactValue, y: ExactValue) -> int:
    """-1, 0 or 1 as x <, = or > y, for any two exact values.

    In a common field this is the exact sign of x - y.  Values of two
    different fields are never equal (a + b*sqrt(d1) = c + e*sqrt(d2) with
    b, e != 0 would make d1*d2 a square), so enclosures refined with doubling
    bits become disjoint after finitely many steps.
    """
    if isinstance(x, Quad):
        c = x._cmp(y)
    elif isinstance(y, Quad):
        c = y._cmp(x)
        c = None if c is None else -c
    else:
        return (x > y) - (x < y)
    bits = DEFAULT_BITS
    while c is None:
        ex, ey = x.enclose(bits), y.enclose(bits)
        c = -1 if ex.hi < ey.lo else (1 if ey.hi < ex.lo else None)
        bits *= 2
    return c


def weighted_cmp(v1: Fraction, q1: int, v2: Fraction, q2: int, k: Fraction) -> int:
    """Exact sign of v1*q1^k - v2*q2^k for nonnegative rational v and k > 0."""
    d, m = k.denominator, k.numerator
    lhs = v1 ** d * Fraction(q1) ** m
    rhs = v2 ** d * Fraction(q2) ** m
    return (lhs > rhs) - (lhs < rhs)


# ---------------------------------------------------------------------------
# Values known by enclosures
# ---------------------------------------------------------------------------

def _operators(op):
    """The operator of a Real for `op` and its reflection: each applies `op`
    to the enclosures of its two sides at the requested precision."""
    return (lambda x, y: _lift(op, x, y)), (lambda x, y: _lift(op, y, x))


class Real:
    """A real number known only through its enclosures, at any precision: a
    prefix tail, an irrational power, or an expression that contains one.

    Exact values are never wrapped: they are Fractions and Quads, and an
    operator with one of them on either side encloses it by :func:`enclose`.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[[int], RealEnclosure]):
        self._fn = fn

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_interval(lo: Fraction, hi: Fraction) -> "Real":
        return Real(lambda bits: RealEnclosure(lo, hi, bits))

    @staticmethod
    def power(base: Fraction, exponent: Fraction) -> Union[Fraction, "Real"]:
        """base ** exponent: a Fraction whenever it is rational (an integer
        exponent, or a perfect root), else a Real."""
        base, exponent = Fraction(base), Fraction(exponent)
        if base <= 0:
            raise DomainError("power base must be positive")
        if exponent.denominator == 1:
            return base ** int(exponent)
        x = base ** exponent.numerator  # exact rational
        v = exponent.denominator
        rn, rd = iroot(x.numerator, v), iroot(x.denominator, v)
        if rn ** v == x.numerator and rd ** v == x.denominator:
            return Fraction(rn, rd)

        a_len = x.numerator.bit_length()
        b_len = x.denominator.bit_length()
        mag = (a_len - b_len) // v  # ~ log2 of the root

        def fn(bits: int) -> RealEnclosure:
            s = max(1, bits - mag + 4)
            t = iroot((x.numerator << (v * s)) // x.denominator, v)
            return RealEnclosure(Fraction(t, 1 << s), Fraction(t + 1, 1 << s), bits)

        return Real(fn)

    # -- evaluation ----------------------------------------------------------

    def enclose(self, bits: int) -> RealEnclosure:
        return self._fn(bits)

    # -- arithmetic ----------------------------------------------------------

    __add__, __radd__ = _operators(operator.add)
    __sub__, __rsub__ = _operators(operator.sub)
    __mul__, __rmul__ = _operators(operator.mul)
    __truediv__, __rtruediv__ = _operators(operator.truediv)

    def __neg__(self):
        return Real(lambda bits: -self._fn(bits))

    def __abs__(self):
        return Real(lambda bits: abs(self._fn(bits)))

    def __repr__(self):
        return f"Real({self.enclose(DEFAULT_BITS)})"


Value = Union[Fraction, Quad, Real]


def enclose(x: Union[int, Value], bits: int) -> RealEnclosure:
    """An enclosure of any value at `bits`; a rational's is the point itself."""
    if isinstance(x, (int, Fraction)):
        return RealEnclosure(Fraction(x), Fraction(x), bits)
    return x.enclose(bits)


def _lift(op, x: Union[int, Value], y: Union[int, Value]) -> Real:
    return Real(lambda bits: op(enclose(x, bits), enclose(y, bits)))


def power_bounds(base: RatLike, exponent: RatLike, bits: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) with lo <= base**exponent <= hi, for a positive rational base.

    An integer exponent gives the exact value twice; any other exponent the
    dyadic enclosure of :meth:`Real.power` at `bits`.  A bound that must round
    down takes lo, one that must round up takes hi.
    """
    base, exponent = Fraction(base), Fraction(exponent)
    if base <= 0:
        raise DomainError("power base must be positive")
    if exponent.denominator == 1:
        v = base ** exponent.numerator
        return v, v
    enc = enclose(Real.power(base, exponent), bits)
    return enc.lo, enc.hi


# ---------------------------------------------------------------------------
# Certified comparison
# ---------------------------------------------------------------------------

def cmp_certified(a, b, max_precision_bits: int = PRECISION_CAP) -> Optional[int]:
    """-1, 0 or 1 as a <, = or > b, refining enclosures until the order is
    proven, or None when it is not proven at `max_precision_bits`.

    Two exact values are ordered by :func:`exact_cmp`, so never left
    unresolved; otherwise 0 is never returned, as enclosures can prove
    strict order only.
    """
    if not isinstance(a, Real) and not isinstance(b, Real):
        return exact_cmp(a, b)
    bits = min(DEFAULT_BITS, max_precision_bits)
    while True:  # doubling precisions up to the cap
        ea, eb = enclose(a, bits), enclose(b, bits)
        if ea.hi < eb.lo:
            return -1
        if eb.hi < ea.lo:
            return 1
        if bits >= max_precision_bits:
            return None
        bits = min(2 * bits, max_precision_bits)


# ---------------------------------------------------------------------------
# Tail bounds for power sums
# ---------------------------------------------------------------------------

def power_sum_tail(s: Fraction, q: int, bits: int = 96) -> Fraction:
    """Exact rational upper bound for sum_{n > q} n^-s, s > 1, via the
    integral comparison q^(1-s)/(s-1), rounded outward for fractional s."""
    s = Fraction(s)
    if s <= 1:
        raise DomainError("power sum diverges for exponent <= 1")
    if q < 1:
        raise DomainError("tail start must be >= 1")
    return 1 / (power_bounds(q, s - 1, bits)[0] * (s - 1))


def rat_sum_tail_bound(tau: Fraction, q: int) -> Fraction:
    """Exact rational U with sum_{q' > q} (q'+1)/q'^(tau+1) <= U.

    Splits the summand as q'^-tau + q'^-(tau+1) and bounds each tail by the
    corresponding integral.
    """
    tau = Fraction(tau)
    if tau <= 2:
        raise DomainError("tail bound requires tau > 2")
    if q < 1:
        raise DomainError("Q must be >= 1")
    return power_sum_tail(tau, q) + power_sum_tail(tau + 1, q)
