"""Continued fractions for rationals, quadratic surds, and bounded-tail prefixes.

Three kinds of input number are supported:

* ``RationalAlpha`` — an exact rational, with the unique finite expansion
  whose last quotient is >= 2 (when the expansion has more than one term).
* ``QuadraticAlpha`` — (p + sqrt(d))/q, expanded with the classical integer
  state recurrence; the expansion is eventually periodic and the period is
  detected exactly, which gives exact algebraic tail values.
* ``PrefixAlpha`` — a finite list of known quotients plus an interval
  [tail_low, tail_high] asserted to contain EVERY tail value at or beyond the
  end of the prefix (the weakest sound default is [1, inf)).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

from .arith import (
    DomainError,
    Quad,
    Real,
    RealEnclosure,
    _square_free_split,
    format_rat,
    is_square,
    parse_rat,
)


class InsufficientDataError(DomainError):
    """The stored prefix is too short for the requested depth."""


class UndefinedTailError(DomainError):
    """A rational expansion ends before the requested tail index."""


# ---------------------------------------------------------------------------
# Number kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalAlpha:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class QuadraticAlpha:
    """The quadratic irrational (p + sqrt(d)) / q."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.q == 0:
            raise DomainError("quadratic denominator must be nonzero")
        if self.d <= 0 or is_square(self.d):
            raise DomainError("quadratic radicand must be a positive non-square")

    @cached_property
    def _field(self) -> tuple[int, int]:
        """(c, k) with d = c^2 * k and k reduced: the field, computed once."""
        return _square_free_split(self.d)

    def value(self) -> Quad:
        c, k = self._field
        return Quad(Fraction(self.p, self.q), Fraction(c, self.q), k)


@dataclass(frozen=True)
class PrefixAlpha:
    """Known quotient prefix with certified bounds on all later tail values."""

    quotients: tuple[int, ...]
    tail_low: Fraction = Fraction(1)
    tail_high: Optional[Fraction] = None  # None means unbounded

    def __post_init__(self):
        qs = tuple(int(a) for a in self.quotients)
        object.__setattr__(self, "quotients", qs)
        object.__setattr__(self, "tail_low", Fraction(self.tail_low))
        if self.tail_high is not None:
            object.__setattr__(self, "tail_high", Fraction(self.tail_high))
        if not qs:
            raise DomainError("prefix must contain at least one quotient")
        if qs[0] < 0:
            raise DomainError("leading quotient must be >= 0")
        if any(a < 1 for a in qs[1:]):
            raise DomainError("quotients after the first must be >= 1")
        if self.tail_low < 1:
            raise DomainError("tail_low must be >= 1")
        if self.tail_high is not None and self.tail_high < self.tail_low:
            raise DomainError("tail_high must be >= tail_low")


AlphaSpec = Union[RationalAlpha, QuadraticAlpha, PrefixAlpha]

_ALPHA_CF_RE = re.compile(r"^\[\s*(-?\d+)\s*(?:;((?:\s*\d+\s*,)*\s*\d+\s*))?\]$")


def parse_alpha(text: str) -> AlphaSpec:
    """Parse the CLI grammar: "rat:7/10", "quad:P,D,Q", "cf:[0;1,2,3]"."""
    text = text.strip()
    if text.startswith("rat:"):
        return RationalAlpha(parse_rat(text[4:]))
    if text.startswith("quad:"):
        parts = text[5:].split(",")
        if len(parts) != 3:
            raise DomainError(f"quad spec needs P,D,Q: {text!r}")
        try:
            p, d, q = (int(s.strip()) for s in parts)
        except ValueError as exc:
            raise DomainError(f"quad spec needs integers: {text!r}") from exc
        return QuadraticAlpha(p, d, q)
    if text.startswith("cf:"):
        m = _ALPHA_CF_RE.match(text[3:].strip())
        if not m:
            raise DomainError(f"cf spec must look like [a0;a1,...]: {text!r}")
        a0 = int(m.group(1))
        rest = m.group(2)
        quotients = [a0] + ([int(s) for s in rest.split(",")] if rest else [])
        return PrefixAlpha(tuple(quotients))
    raise DomainError(f"unknown alpha spec {text!r} (use rat:, quad:, cf:)")


def format_alpha(alpha: AlphaSpec) -> str:
    if isinstance(alpha, RationalAlpha):
        return f"rat:{format_rat(alpha.value)}"
    if isinstance(alpha, QuadraticAlpha):
        return f"quad:{alpha.p},{alpha.d},{alpha.q}"
    body = str(alpha.quotients[0])
    if len(alpha.quotients) > 1:
        body += ";" + ",".join(str(a) for a in alpha.quotients[1:])
    return f"cf:[{body}]"


# ---------------------------------------------------------------------------
# Expansion machinery
# ---------------------------------------------------------------------------

def _rational_quotients(x: Fraction) -> list[int]:
    a0 = x.numerator // x.denominator
    out = [a0]
    num = x.numerator - a0 * x.denominator
    den = x.denominator
    # Euclid on the fractional part; the final quotient is automatically >= 2
    while num:
        a, r = divmod(den, num)
        out.append(a)
        den, num = num, r
    return out


@lru_cache(maxsize=64)
def _quad_cycle(p: int, d: int, q: int):
    """Integer expansion states of (p + sqrt(d))/q.

    Returns (preperiod, period, quotients, states, D) where `quotients` and
    `states` cover indices 0 .. preperiod+period-1 and states[n] = (P_n, Q_n)
    for the normalized radicand D, which is d or d*q^2 (states are for tail
    values (P_n + sqrt(D)) / Q_n).  The cache is bounded so that a long-lived
    process does not keep every alpha it has expanded.
    """
    # normalize so that Q divides D - P^2
    if (d - p * p) % q != 0:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    sqrt_floor = math.isqrt(d)
    quotients: list[int] = []
    states: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    pp, qq = p, q
    while True:
        state = (pp, qq)
        if state in seen:
            start = seen[state]
            return start, len(quotients) - start, tuple(quotients), tuple(states), d
        seen[state] = len(quotients)
        states.append(state)
        if qq > 0:
            a = (pp + sqrt_floor) // qq
        else:
            a = _floor_neg_den(pp, qq, sqrt_floor)
        quotients.append(a)
        pp = a * qq - pp
        qq = (d - pp * pp) // qq


def _floor_neg_den(pp: int, qq: int, sqrt_floor: int) -> int:
    # floor((pp + sqrt(d))/qq) with qq < 0: equals floor((-pp - sqrt(d))/(-qq));
    # -sqrt(d) has integer part -(sqrt_floor+1) exactly (d non-square)
    return (-pp - sqrt_floor - 1) // (-qq)


def _quad_quotient(alpha: QuadraticAlpha, n: int) -> int:
    start, period, quotients, _states, _d = _quad_cycle(alpha.p, alpha.d, alpha.q)
    if n < len(quotients):
        return quotients[n]
    return quotients[start + (n - start) % period]


def _quad_tail(alpha: QuadraticAlpha, n: int) -> Quad:
    start, period, _quotients, states, d = _quad_cycle(alpha.p, alpha.d, alpha.q)
    if n < len(states):
        pp, qq = states[n]
    else:
        pp, qq = states[start + (n - start) % period]
    # sqrt(D) = c*sqrt(k) in alpha's own field, times |q| when D = d*q^2
    c, k = alpha._field
    if d != alpha.d:
        c *= abs(alpha.q)
    return Quad(Fraction(pp, qq), Fraction(c, qq), k)


def cf_cycle(alpha: QuadraticAlpha) -> tuple[int, int]:
    """(preperiod length, period length) of a quadratic expansion."""
    start, period, _q, _s, _d = _quad_cycle(alpha.p, alpha.d, alpha.q)
    return start, period


def cf_expand(alpha: AlphaSpec, depth: int) -> list[int]:
    """First `depth` partial quotients of alpha.

    Rational expansions terminate at their exact (unique, last quotient >= 2)
    form; prefixes error out beyond the stored data.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if isinstance(alpha, RationalAlpha):
        return _rational_quotients(alpha.value)[:depth]
    if isinstance(alpha, QuadraticAlpha):
        return [_quad_quotient(alpha, n) for n in range(depth)]
    if isinstance(alpha, PrefixAlpha):
        if depth > len(alpha.quotients):
            raise InsufficientDataError(
                f"prefix holds {len(alpha.quotients)} quotients, requested {depth}"
            )
        return list(alpha.quotients[:depth])
    raise TypeError(f"not an AlphaSpec: {alpha!r}")


def cf_length(alpha: AlphaSpec) -> Optional[int]:
    """Number of stored/defined quotients, None when infinite."""
    if isinstance(alpha, RationalAlpha):
        return len(_rational_quotients(alpha.value))
    if isinstance(alpha, PrefixAlpha):
        return len(alpha.quotients)
    return None


# ---------------------------------------------------------------------------
# Convergents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergentTable:
    """Convergents p_n/q_n of a quotient list, with the usual seeds
    p_{-1}=1, q_{-1}=0, p_{-2}=0, q_{-2}=1."""

    quotients: tuple[int, ...]
    p: tuple[int, ...] = field(repr=False)
    q: tuple[int, ...] = field(repr=False)

    def __len__(self):
        return len(self.quotients)

    def a(self, n: int) -> int:
        return self.quotients[n]

    def numer(self, n: int) -> int:
        if n == -1:
            return 1
        if n == -2:
            return 0
        return self.p[n]

    def denom(self, n: int) -> int:
        if n == -1:
            return 0
        if n == -2:
            return 1
        return self.q[n]

    def fraction(self, n: int) -> Fraction:
        return Fraction(self.numer(n), self.denom(n))

    def parity(self, n: int) -> str:
        return "even" if n % 2 == 0 else "odd"

    def rows(self):
        for n, a in enumerate(self.quotients):
            yield n, a, self.p[n], self.q[n], self.parity(n)


def convergents(quotients: Sequence[int]) -> ConvergentTable:
    """Build the convergent table for a quotient list."""
    qs = tuple(int(a) for a in quotients)
    if not qs:
        raise DomainError("quotient list must be nonempty")
    ps: list[int] = []
    dens: list[int] = []
    p_prev, p_prev2 = 1, 0
    q_prev, q_prev2 = 0, 1
    for a in qs:
        p_n = a * p_prev + p_prev2
        q_n = a * q_prev + q_prev2
        ps.append(p_n)
        dens.append(q_n)
        p_prev, p_prev2 = p_n, p_prev
        q_prev, q_prev2 = q_n, q_prev
    return ConvergentTable(qs, tuple(ps), tuple(dens))


def value_of(quotients: Sequence[int]) -> Fraction:
    """Exact value of a finite continued fraction."""
    table = convergents(quotients)
    n = len(table) - 1
    return Fraction(table.numer(n), table.denom(n))


def _mobius_of_word(quotients: Sequence[int]) -> tuple[int, int, int, int]:
    """(p_k, p_{k-1}, q_k, q_{k-1}) for the word, mapping t -> (p_k t + p_{k-1})/(q_k t + q_{k-1})."""
    t = convergents(quotients)
    n = len(t) - 1
    return t.numer(n), t.numer(n - 1), t.denom(n), t.denom(n - 1)


# ---------------------------------------------------------------------------
# Tails
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailValue:
    n: int
    enclosure: RealEnclosure
    exact: Optional[Union[Fraction, Quad]] = None


def tail_real(alpha: AlphaSpec, n: int) -> Real:
    """The tail value alpha_n = [a_n; a_{n+1}, ...] as a certified real."""
    if n < 0:
        raise DomainError("tail index must be >= 0")
    if isinstance(alpha, RationalAlpha):
        qs = _rational_quotients(alpha.value)
        if n >= len(qs):
            raise UndefinedTailError(f"rational expansion has {len(qs)} quotients")
        return Real.from_exact(value_of(qs[n:]))
    if isinstance(alpha, QuadraticAlpha):
        return Real.from_exact(_quad_tail(alpha, n))
    if isinstance(alpha, PrefixAlpha):
        length = len(alpha.quotients)
        lo, hi = alpha.tail_low, alpha.tail_high
        if n >= length:
            # asserted bound on every tail at or beyond the prefix end
            return Real.from_interval(lo, hi)
        word = alpha.quotients[n:]
        pk, pk1, qk, qk1 = _mobius_of_word(word)
        # t -> (pk*t + pk1)/(qk*t + qk1) is monotone; evaluate at both ends
        at_lo = Fraction(pk * lo.numerator + pk1 * lo.denominator,
                         qk * lo.numerator + qk1 * lo.denominator)
        if hi is None:
            at_hi = Fraction(pk, qk)  # limit as the tail grows without bound
        else:
            at_hi = Fraction(pk * hi.numerator + pk1 * hi.denominator,
                             qk * hi.numerator + qk1 * hi.denominator)
        return Real.from_interval(min(at_lo, at_hi), max(at_lo, at_hi))
    raise TypeError(f"not an AlphaSpec: {alpha!r}")


def tail(alpha: AlphaSpec, n: int, precision_bits: int) -> TailValue:
    r = tail_real(alpha, n)
    return TailValue(n=n, enclosure=r.enclose(precision_bits), exact=r.exact)


def alpha_real(alpha: AlphaSpec) -> Real:
    """The number alpha itself as a certified real."""
    if isinstance(alpha, RationalAlpha):
        return Real.from_exact(alpha.value)
    if isinstance(alpha, QuadraticAlpha):
        return Real.from_exact(alpha.value())
    return tail_real(alpha, 0)


# ---------------------------------------------------------------------------
# Constructors and symmetry
# ---------------------------------------------------------------------------

def quadratic_from_periodic(prefix: Sequence[int], cycle: Sequence[int]) -> QuadraticAlpha:
    """Exact quadratic number with expansion prefix + repeating cycle."""
    prefix = [int(a) for a in prefix]
    cycle = [int(c) for c in cycle]
    if not cycle or any(c < 1 for c in cycle):
        raise DomainError("cycle must be nonempty with quotients >= 1")
    if not prefix:
        raise DomainError("prefix must be nonempty (use a0=0 for numbers in (0,1))")
    # fixed point of the cycle word: t = (A t + B) / (C t + D)
    a_, b_, c_, d_ = _mobius_of_word(cycle)
    # C t^2 + (D - A) t - B = 0, positive root
    disc = (d_ - a_) ** 2 + 4 * b_ * c_
    u, w = a_ - d_, 2 * c_
    # t = (u + sqrt(disc)) / w
    pk, pk1, qk, qk1 = _mobius_of_word(prefix)
    # alpha = (pk t + pk1)/(qk t + qk1) with t = (u + sqrt(disc))/w
    num_r = pk * u + pk1 * w  # rational part numerator (over w)
    den_r = qk * u + qk1 * w
    # alpha = (num_r + pk sqrt(disc)) / (den_r + qk sqrt(disc))
    # rationalize: multiply by conjugate of the denominator
    e, f = den_r, qk
    z = e * e - f * f * disc
    x = num_r * e - pk * f * disc
    y = pk * e - num_r * f  # coefficient of sqrt(disc)
    if y == 0:
        raise DomainError("degenerate periodic construction")
    # alpha = (x + y sqrt(disc)) / z ; fold |y| into the radicand
    d_final = y * y * disc
    if y < 0:
        x, y, z = -x, -y, -z
    g = math.gcd(abs(x), abs(z))
    if g > 1 and (d_final % (g * g)) == 0:
        x, z, d_final = x // g, z // g, d_final // (g * g)
    return QuadraticAlpha(x, d_final, z)


def one_minus(alpha: AlphaSpec) -> AlphaSpec:
    """The reflection 1 - alpha, preserving the representation kind."""
    if isinstance(alpha, RationalAlpha):
        return RationalAlpha(1 - alpha.value)
    if isinstance(alpha, QuadraticAlpha):
        # 1 - (P + sqrt(D))/Q = ((P - Q) + sqrt(D)) / (-Q)
        return QuadraticAlpha(alpha.p - alpha.q, alpha.d, -alpha.q)
    qs = alpha.quotients
    if qs[0] != 0 or len(qs) < 2:
        raise DomainError("reflection needs a prefix [0; a1, ...]")
    if qs[1] >= 2:
        new = (0, 1, qs[1] - 1) + qs[2:]
    else:
        if len(qs) < 3:
            raise DomainError("prefix too short to reflect [0; 1]")
        new = (0, qs[2] + 1) + qs[3:]
    return PrefixAlpha(new, alpha.tail_low, alpha.tail_high)
