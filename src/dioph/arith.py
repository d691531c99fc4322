"""Exact rationals, quadratic surds, and certified real enclosures.

All quantities in this package are either exact (``Fraction``, ``Quad``) or
carried as a :class:`RealEnclosure`, a rational interval guaranteed to contain
the exact real value and refinable to any precision.  Strict comparisons of
possibly-irrational quantities go through :func:`cmp_certified`, which refines
both sides on a doubling precision ladder and never reports an order it cannot
prove.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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
    x = Fraction(x)
    bits = max(x.numerator.bit_length(), x.denominator.bit_length())
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


def bit_ladder(cap: int, start: int = DEFAULT_BITS):
    """Yield doubling precisions start, 2*start, ... capped at `cap`."""
    bits = min(start, cap)
    while True:
        yield bits
        if bits >= cap:
            return
        bits = min(bits * 2, cap)


# ---------------------------------------------------------------------------
# Enclosures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealEnclosure:
    """Certified interval [lo, hi] containing an exact real value.

    A ``None`` bound means the enclosure is unbounded on that side.
    """

    lo: Optional[Fraction]
    hi: Optional[Fraction]
    bits: int

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise InternalConsistencyError(f"inverted enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Optional[Fraction]:
        if self.lo is None or self.hi is None:
            return None
        return self.hi - self.lo

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and x < self.lo:
            return False
        if self.hi is not None and x > self.hi:
            return False
        return True

    def to_obj(self) -> dict:
        return {
            "lo": "-inf" if self.lo is None else format_rat(self.lo),
            "hi": "inf" if self.hi is None else format_rat(self.hi),
            "bits": self.bits,
        }


def enc_point(x: Fraction, bits: int) -> RealEnclosure:
    return RealEnclosure(x, x, bits)


def enc_neg(a: RealEnclosure) -> RealEnclosure:
    return RealEnclosure(
        None if a.hi is None else -a.hi,
        None if a.lo is None else -a.lo,
        a.bits,
    )


def enc_add(a: RealEnclosure, b: RealEnclosure) -> RealEnclosure:
    lo = None if (a.lo is None or b.lo is None) else a.lo + b.lo
    hi = None if (a.hi is None or b.hi is None) else a.hi + b.hi
    return RealEnclosure(lo, hi, min(a.bits, b.bits))


def enc_sub(a: RealEnclosure, b: RealEnclosure) -> RealEnclosure:
    return enc_add(a, enc_neg(b))


def enc_scale(a: RealEnclosure, c: Fraction) -> RealEnclosure:
    if c == 0:
        return RealEnclosure(Fraction(0), Fraction(0), a.bits)
    lo = None if a.lo is None else a.lo * c
    hi = None if a.hi is None else a.hi * c
    if c < 0:
        lo, hi = hi, lo
    return RealEnclosure(lo, hi, a.bits)


def enc_mul(a: RealEnclosure, b: RealEnclosure) -> RealEnclosure:
    bits = min(a.bits, b.bits)
    if a.bounded and b.bounded:
        prods = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
        return RealEnclosure(min(prods), max(prods), bits)
    # unbounded operands only supported in the nonnegative cone, which is the
    # only place they arise (continued-fraction tails in [1, inf))
    if (a.lo is not None and a.lo >= 0) and (b.lo is not None and b.lo >= 0):
        hi = None if (a.hi is None or b.hi is None) else a.hi * b.hi
        return RealEnclosure(a.lo * b.lo, hi, bits)
    return RealEnclosure(None, None, bits)


def enc_inv(a: RealEnclosure) -> RealEnclosure:
    bits = a.bits
    if a.lo is not None and a.lo > 0:
        hi = Fraction(1) / a.lo
        lo = Fraction(0) if a.hi is None else Fraction(1) / a.hi
        return RealEnclosure(lo, hi, bits)
    if a.hi is not None and a.hi < 0:
        lo = Fraction(1) / a.hi
        hi = Fraction(0) if a.lo is None else Fraction(1) / a.lo
        return RealEnclosure(lo, hi, bits)
    # sign not resolved at this precision
    return RealEnclosure(None, None, bits)


def enc_div(a: RealEnclosure, b: RealEnclosure) -> RealEnclosure:
    return enc_mul(a, enc_inv(b))


def enc_abs(a: RealEnclosure) -> RealEnclosure:
    if a.lo is not None and a.lo >= 0:
        return a
    if a.hi is not None and a.hi <= 0:
        return enc_neg(a)
    if a.lo is None or a.hi is None:
        return RealEnclosure(Fraction(0), None, a.bits)
    return RealEnclosure(Fraction(0), max(-a.lo, a.hi), a.bits)


def enc_intersect(a: RealEnclosure, b: RealEnclosure) -> RealEnclosure:
    lo = a.lo if b.lo is None else (b.lo if a.lo is None else max(a.lo, b.lo))
    hi = a.hi if b.hi is None else (b.hi if a.hi is None else min(a.hi, b.hi))
    if lo is not None and hi is not None and lo > hi:
        raise InternalConsistencyError(
            f"disjoint enclosures [{a.lo},{a.hi}] and [{b.lo},{b.hi}]"
        )
    return RealEnclosure(lo, hi, max(a.bits, b.bits))


# ---------------------------------------------------------------------------
# Quadratic surds a + b*sqrt(d)
# ---------------------------------------------------------------------------

def _square_free_split(d: int) -> tuple[int, int]:
    """Write d = c^2 * rest with rest square-reduced (best effort for huge d)."""
    c, rest, f = 1, d, 2
    while f * f <= rest and f <= 100_000:
        while rest % (f * f) == 0:
            rest //= f * f
            c *= f
        f += 1
    r = math.isqrt(rest)
    if r * r == rest:
        c *= r
        rest = 1
    return c, rest


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _floor_quad_int(x: int, y: int, z: int, d: int) -> int:
    """floor((x + y*sqrt(d)) / z) for integers, d >= 2 non-square, z != 0."""
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
    """Sign of a + b*sqrt(d) for rational a, b and non-square d >= 2."""
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


@dataclass(frozen=True)
class Quad:
    """Exact quadratic surd a + b*sqrt(d) with b != 0 and d >= 2 non-square.

    Build values with :func:`surd`, which reduces the radicand once.  The
    arithmetic below keeps that radicand: results in the same field are
    built directly, never reduced again.
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

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base: Union[Fraction, Quad] = self if k >= 0 else self.inverse()
        result: Union[Fraction, Quad] = Fraction(1)
        for _ in range(abs(k)):
            result = base * result
        return result

    def conjugate(self):
        return Quad(self.a, -self.b, self.d)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        return _surd_sign(self.a, self.b, self.d)

    def _cmp(self, other) -> Optional[int]:
        p = self._parts(other)
        if p is None:
            return None
        return _surd_sign(self.a - p[0], self.b - p[1], self.d)

    def __lt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c < 0

    def __le__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        if c is None:
            return NotImplemented
        return c >= 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    # -- conversion ---------------------------------------------------------

    def floor(self) -> int:
        x = self.a.numerator * self.b.denominator
        y = self.b.numerator * self.a.denominator
        z = self.a.denominator * self.b.denominator
        return _floor_quad_int(x, y, z, self.d)

    def enclose(self, bits: int) -> RealEnclosure:
        s = max(bits, 1)
        x = self.a.numerator * self.b.denominator
        y = self.b.numerator * self.a.denominator
        z = self.a.denominator * self.b.denominator
        t = _floor_quad_int(x << s, y << s, z, self.d)
        return RealEnclosure(Fraction(t, 1 << s), Fraction(t + 1, 1 << s), bits)

    def __repr__(self):
        return f"({format_rat(self.a)} + {format_rat(self.b)}*sqrt({self.d}))"


def surd(a: Fraction, b: Fraction, d: int) -> Union[Fraction, Quad]:
    """Build a + b*sqrt(d), collapsing to a Fraction when the surd vanishes.

    This is where a radicand is reduced (square factors move into b), once;
    Quad arithmetic keeps the reduced radicand.
    """
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a
    if d <= 0:
        raise DomainError("surd radicand must be positive")
    c, rest = _square_free_split(d)
    if rest == 1:
        return a + b * c
    return Quad(a, b * c, rest)


ExactValue = Union[Fraction, Quad]


def exact_sign(x: ExactValue) -> int:
    if isinstance(x, Quad):
        return x.sign()
    return (x > 0) - (x < 0)


def exact_floor(x: ExactValue) -> int:
    if isinstance(x, Quad):
        return x.floor()
    return x.numerator // x.denominator


def exact_enclose(x: ExactValue, bits: int) -> RealEnclosure:
    if isinstance(x, Quad):
        return x.enclose(bits)
    return enc_point(Fraction(x), bits)


def exact_cmp(x: ExactValue, y: ExactValue) -> int:
    """-1, 0 or 1 as x <, = or > y, for exact values in a common field."""
    if isinstance(x, Quad):
        c = x._cmp(y)
    elif isinstance(y, Quad):
        c = y._cmp(x)
        c = None if c is None else -c
    else:
        c = (x > y) - (x < y)
    if c is None:
        raise InternalConsistencyError(f"incomparable exact values {x!r} and {y!r}")
    return c


def _exact_binop(x: ExactValue, y: ExactValue, op: str) -> Optional[ExactValue]:
    try:
        if op == "add":
            r = x + y
        elif op == "sub":
            r = x - y
        elif op == "mul":
            r = x * y
        elif op == "div":
            if isinstance(y, Fraction) and y == 0:
                raise ZeroDivisionError("division by zero")
            r = x / y
        else:  # pragma: no cover
            raise ValueError(op)
    except TypeError:
        # incompatible exact fields (e.g. distinct discriminants)
        return None
    if r is NotImplemented:
        return None
    return r


# ---------------------------------------------------------------------------
# Certified real values
# ---------------------------------------------------------------------------

class Real:
    """A real number that can be enclosed at any requested precision.

    Carries the exact value alongside when one exists (rational or quadratic
    surd); arithmetic stays exact whenever the operands live in a common
    field and falls back to interval evaluation otherwise.
    """

    __slots__ = ("exact", "_fn")

    def __init__(self, fn: Callable[[int], RealEnclosure], exact: Optional[ExactValue] = None):
        self._fn = fn
        self.exact = exact

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_exact(x: Union[int, Fraction, Quad, "Real"]) -> "Real":
        if isinstance(x, Real):
            return x
        if isinstance(x, int):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return Real(lambda bits, v=x: enc_point(v, bits), exact=x)
        if isinstance(x, Quad):
            return Real(lambda bits, v=x: v.enclose(bits), exact=x)
        raise TypeError(f"cannot build Real from {type(x)!r}")

    @staticmethod
    def from_interval(lo: Optional[Fraction], hi: Optional[Fraction]) -> "Real":
        return Real(lambda bits: RealEnclosure(lo, hi, bits))

    @staticmethod
    def power(base: Fraction, exponent: Fraction) -> "Real":
        """base ** exponent, exact for integer exponents."""
        base, exponent = Fraction(base), Fraction(exponent)
        if base <= 0:
            raise DomainError("power base must be positive")
        if exponent.denominator == 1:
            return Real.from_exact(base ** int(exponent))
        x = base ** exponent.numerator  # exact rational
        v = exponent.denominator
        rn, rd = iroot(x.numerator, v), iroot(x.denominator, v)
        if rn ** v == x.numerator and rd ** v == x.denominator:
            return Real.from_exact(Fraction(rn, rd))

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

    def _binary(self, other, op: str, enc_op) -> "Real":
        o = as_real(other)
        if self.exact is not None and o.exact is not None:
            exact = _exact_binop(self.exact, o.exact, op)
            if exact is not None:
                return Real.from_exact(exact)
        return Real(lambda bits: enc_op(self.enclose(bits), o.enclose(bits)))

    def __add__(self, other):
        return self._binary(other, "add", enc_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, "sub", enc_sub)

    def __rsub__(self, other):
        return as_real(other)._binary(self, "sub", enc_sub)

    def __mul__(self, other):
        return self._binary(other, "mul", enc_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, "div", enc_div)

    def __rtruediv__(self, other):
        return as_real(other)._binary(self, "div", enc_div)

    def __neg__(self):
        if self.exact is not None:
            return Real.from_exact(-self.exact)
        return Real(lambda bits: enc_neg(self.enclose(bits)))

    def __abs__(self):
        if self.exact is not None:
            return Real.from_exact(abs(self.exact))
        return Real(lambda bits: enc_abs(self.enclose(bits)))

    def __repr__(self):
        if self.exact is not None:
            return f"Real({self.exact!r})"
        return f"Real({self.enclose(DEFAULT_BITS)})"


def as_real(x) -> Real:
    if isinstance(x, Real):
        return x
    return Real.from_exact(x)


def pow_real(base: Fraction, exponent: Fraction, precision_bits: int) -> RealEnclosure:
    """Enclosure of base**exponent with relative width <= 2^(1-precision_bits).

    Integer exponents are exact (width 0).
    """
    if precision_bits < 8:
        raise DomainError("precision_bits must be >= 8")
    base = Fraction(base)
    if base <= 0:
        raise DomainError("pow_real base must be positive")
    return Real.power(base, Fraction(exponent)).enclose(precision_bits)


# ---------------------------------------------------------------------------
# Certified comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CmpVerdict:
    """Outcome of a certified comparison: less/greater proven by disjoint
    enclosures, equality proven only from exact representations, or
    unresolved at the precision cap."""

    kind: str  # "less" | "greater" | "equal" | "unresolved"
    precision_reached: Optional[int] = None

    @property
    def is_less(self) -> bool:
        return self.kind == "less"

    @property
    def is_greater(self) -> bool:
        return self.kind == "greater"

    @property
    def is_equal(self) -> bool:
        return self.kind == "equal"

    @property
    def is_unresolved(self) -> bool:
        return self.kind == "unresolved"


LESS = CmpVerdict("less")
GREATER = CmpVerdict("greater")
PROVEN_EQUAL = CmpVerdict("equal")


def cmp_certified(a, b, max_precision_bits: int = PRECISION_CAP) -> CmpVerdict:
    """Compare two enclosure-producers, refining until the order is proven.

    Equality is only ever reported from exact representations; enclosures can
    prove strict order but never equality.
    """
    ra, rb = as_real(a), as_real(b)
    if ra.exact is not None and rb.exact is not None:
        diff = _exact_binop(ra.exact, rb.exact, "sub")
        if diff is not None:
            s = exact_sign(diff)
            if s == 0:
                return PROVEN_EQUAL
            return LESS if s < 0 else GREATER
    bits_used = 0
    for bits in bit_ladder(max_precision_bits):
        bits_used = bits
        ea, eb = ra.enclose(bits), rb.enclose(bits)
        if ea.hi is not None and eb.lo is not None and ea.hi < eb.lo:
            return LESS
        if eb.hi is not None and ea.lo is not None and eb.hi < ea.lo:
            return GREATER
    return CmpVerdict("unresolved", precision_reached=bits_used)


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
    if s.denominator == 1:
        return Fraction(1, q ** (int(s) - 1)) / (s - 1)
    enc = Real.power(Fraction(q), s - 1).enclose(bits)
    return Fraction(1) / (enc.lo * (s - 1))


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
