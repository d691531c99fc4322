"""Continued fractions for rationals, quadratic surds, and bounded-tail prefixes.

Three kinds of input number are supported:

* ``RationalAlpha`` — an exact rational, with the unique finite expansion
  whose last quotient is >= 2 (when the expansion has more than one term).
* ``QuadraticAlpha`` — (p + sqrt(d))/q, expanded by the classical integer
  state recurrence into exact algebraic tails.  By Galois's theorem the
  expansion is purely periodic from its first reduced tail; one walk around
  the period from there, holding one state, finds the period and the cycle
  floors in O(period) time, and the states kept reach only the deepest index
  asked for: memory O(depth), not O(period).
* ``PrefixAlpha`` — a finite list of known quotients plus an interval
  [tail_low, tail_high] asserted to contain EVERY tail value at or beyond the
  end of the prefix; ``tail_high=None`` (the default) asserts no upper bound.

Every kind answers the same questions, so no other module tests the kind:

* ``length`` — the number of quotients; ``None`` for a quadratic.
* ``terminates`` — ``True`` for a rational, ``False`` for a quadratic and
  ``None`` (unknown) for a prefix.
* ``quotients_to(stop)`` — a_0 .. a_{stop-1}, cut short where a rational
  ends or a prefix runs out.
* ``tail(n)`` — alpha_n = [a_n; a_{n+1}, ...]: a ``Fraction`` for a rational,
  a ``Quad`` for a quadratic, and for a prefix a ``Real``, the image of
  [tail_low, tail_high].  Past the end of a prefix without ``tail_high`` it
  raises ``InsufficientDataError``, as no bounded enclosure exists there.
* ``tail_state(n)`` — ``(P_n, Q_n, D)`` with alpha_n = (P_n + sqrt(D))/Q_n
  for a quadratic; ``None`` for a rational or a prefix.
* ``real()``, ``reflect()`` (1 - alpha, same kind) and ``spec()`` (CLI form).
* ``depth_used(depth)`` — the deepest row a bracket reads: the last row of a
  rational, at least the preperiod of a quadratic, at most a prefix's end.
* ``deep_row_floor(table, depth, parity)`` — ``(c, q)`` such that every
  quality row n > depth (of that parity, if given) exceeds q^(tau-1) * c,
  with q the least deeper denominator; ``None`` when unprovable, always for
  a rational.  c is the minimum over the cycle of 1/(alpha_{n+1} + 1/a_n)
  for a quadratic and 1/(tail_high + 1) for a prefix with a finite bound.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .arith import (
    DomainError,
    Quad,
    Real,
    Value,
    _floor_quad_int,
    _surd_sign,
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

    terminates = True

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))

    @cached_property
    def _quotients(self) -> tuple[int, ...]:
        return tuple(_rational_quotients(self.value))

    @property
    def length(self) -> int:
        return len(self._quotients)

    def quotients_to(self, stop: int) -> list[int]:
        return list(self._quotients[:stop])

    def tail(self, n: int) -> Fraction:
        qs = self._quotients
        if n >= len(qs):
            raise UndefinedTailError(f"rational expansion has {len(qs)} quotients")
        return value_of(qs[n:])

    def tail_state(self, n: int) -> None:
        return None

    def real(self) -> Fraction:
        return self.value

    def reflect(self) -> RationalAlpha:
        return RationalAlpha(1 - self.value)

    def spec(self) -> str:
        return f"rat:{format_rat(self.value)}"

    def depth_used(self, depth: int) -> int:
        return self.length - 1

    def deep_row_floor(self, table: ConvergentTable, depth: int, parity: Optional[int]):
        return None


@dataclass(frozen=True)
class QuadraticAlpha:
    """The quadratic irrational (p + sqrt(d)) / q."""

    p: int
    d: int
    q: int

    length = None
    terminates = False

    def __post_init__(self):
        if self.q == 0:
            raise DomainError("quadratic denominator must be nonzero")
        if self.d <= 0 or is_square(self.d):
            raise DomainError("quadratic radicand must be a positive non-square")

    @cached_property
    def _radicand(self) -> tuple[int, int, int]:
        """(m, D, isqrt(D)) for the tails (P_n + sqrt(D))/Q_n, D = d*m^2: m is
        1, or |q| when q does not divide d - p^2, so that Q_n divides D - P_n^2."""
        m = 1 if (self.d - self.p * self.p) % self.q == 0 else abs(self.q)
        return m, self.d * m * m, math.isqrt(self.d * m * m)

    @cached_property
    def _states(self) -> list[tuple[int, int, int]]:
        """(P_n, Q_n, a_n), grown by ``_state`` to the deepest index asked for."""
        m, d, _s = self._radicand
        return [(self.p * m, self.q * m, _floor_quad_int(self.p * m, 1, self.q * m, d))]

    def _state(self, n: int) -> tuple[int, int, int]:
        states, d = self._states, self._radicand[1]
        while len(states) <= n:
            states.append(_next_state(*states[-1], d))
        return states[n]

    def _surd(self, pp: int, qq: int) -> Quad:
        """(pp + sqrt(D))/qq, stored over D, the radicand of the states."""
        return Quad(Fraction(pp, qq), Fraction(1, qq), self._radicand[1])

    def value(self) -> Quad:
        return self._surd(*self._state(0)[:2])

    def quotients_to(self, stop: int) -> list[int]:
        return [self._state(n)[2] for n in range(stop)]

    def tail(self, n: int) -> Quad:
        return self._surd(*self._state(n)[:2])

    def tail_state(self, n: int) -> tuple[int, int, int]:
        return self._state(n)[:2] + (self._radicand[1],)

    real = value

    def reflect(self) -> QuadraticAlpha:
        # 1 - (P + sqrt(D))/Q = ((P - Q) + sqrt(D)) / (-Q)
        return QuadraticAlpha(self.p - self.q, self.d, -self.q)

    def spec(self) -> str:
        return f"quad:{self.p},{self.d},{self.q}"

    def depth_used(self, depth: int) -> int:
        return max(depth, self._preperiod, 1)

    @cached_property
    def _preperiod(self) -> int:
        """The index of the first reduced tail, 0 < P <= s < P + Q and Q <= P + s
        with s = isqrt(D), found without walking the period."""
        s, n = self._radicand[2], 0
        while True:
            pp, qq, _a = self._state(n)
            if 0 < pp <= s < pp + qq and qq <= pp + s:
                return n
            n += 1

    @cached_property
    def _cycle(self) -> tuple[int, int, tuple[Optional[Quad], ...]]:
        """(preperiod, period, floors): floors is the min of 1/(alpha_{n+1} +
        1/a_n) over one period of n, over every n, over even n and over odd n."""
        d, start = self._radicand[1], self._preperiod
        pp, qq, a = self._state(start)
        first, n = (pp, qq), start
        best: list = [None, None, None]  # (a_n, P_{n+1}, Q_{n+1}, a_{n+1}) of each min
        while True:
            nxt = _next_state(pp, qq, a, d)
            cand = (a,) + nxt
            for k in (1 + n % 2, 0):  # what loses in its parity loses overall
                if best[k] is not None and not _larger_candidate(cand, best[k], d):
                    break
                best[k] = cand
            pp, qq, a = nxt
            n += 1
            if (pp, qq) == first:
                break
        floors = tuple(None if b is None else 1 / (self._surd(b[1], b[2]) + Fraction(1, b[0]))
                       for b in best)
        return start, n - start, floors

    def deep_row_floor(self, table: ConvergentTable, depth: int, parity: Optional[int]
                       ) -> Optional[tuple[Quad, int]]:
        """Each deep row satisfies gamma_n > q_n^(tau-1) / (alpha_{n+1} + 1/a_n),
        since q_{n-1}/q_n < 1/a_n holds strictly for n >= 2; past the
        preperiod the denominator runs over the cycle.  An odd period visits
        every cycle position at both parities."""
        start, period, (every, even, odd) = self._cycle
        if depth < max(start, 1):
            return None
        c = every if parity is None or period % 2 else (even, odd)[parity]
        n1 = depth + 1
        if parity is not None and n1 % 2 != parity:
            n1 += 1
        q2, q1 = table.denom(depth - 1), table.denom(depth)
        for n in range(depth + 1, n1 + 1):
            q2, q1 = q1, self._state(n)[2] * q1 + q2
        return c, q1


def _next_state(pp: int, qq: int, a: int, d: int) -> tuple[int, int, int]:
    """The state after (P_n, Q_n, a_n): alpha_{n+1} = 1/(alpha_n - a_n)."""
    pp = a * qq - pp
    qq = (d - pp * pp) // qq
    return pp, qq, _floor_quad_int(pp, 1, qq, d)


def _larger_candidate(x: tuple[int, ...], y: tuple[int, ...], d: int) -> bool:
    """Whether (a*P + Q + a*sqrt(d))/(a*Q) = alpha_{n+1} + 1/a_n is larger for
    x = (a, P, Q, b) than for y, on integers (Q > 0 inside the cycle); it lies
    in (b, b + 2) with b = a_{n+1}, which settles most comparisons."""
    a1, p1, q1, b1 = x
    a2, p2, q2, b2 = y
    if abs(b1 - b2) > 1:
        return b1 > b2
    return _surd_sign(a1 * a2 * (p1 * q2 - p2 * q1) + q1 * q2 * (a2 - a1),
                      a1 * a2 * (q2 - q1), d) > 0


@dataclass(frozen=True)
class PrefixAlpha:
    """Known quotient prefix with certified bounds on all later tail values."""

    quotients: tuple[int, ...]
    tail_low: Fraction = Fraction(1)
    tail_high: Optional[Fraction] = None  # None means unbounded

    terminates = None

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

    @property
    def length(self) -> int:
        return len(self.quotients)

    def quotients_to(self, stop: int) -> list[int]:
        return list(self.quotients[:stop])

    def tail(self, n: int) -> Real:
        lo, hi = self.tail_low, self.tail_high
        if n >= len(self.quotients):
            if hi is None:
                raise InsufficientDataError(f"prefix holds {len(self.quotients)} quotients "
                                            f"and no tail bound, requested tail {n}")
            # asserted bound on every tail at or beyond the prefix end
            return Real.from_interval(lo, hi)
        pk, pk1, qk, qk1 = _mobius_of_word(self.quotients[n:])
        # t -> (pk*t + pk1)/(qk*t + qk1) is monotone; evaluate at both ends
        at_lo = Fraction(pk * lo.numerator + pk1 * lo.denominator,
                         qk * lo.numerator + qk1 * lo.denominator)
        if hi is None:
            at_hi = Fraction(pk, qk)  # limit as the tail grows without bound
        else:
            at_hi = Fraction(pk * hi.numerator + pk1 * hi.denominator,
                             qk * hi.numerator + qk1 * hi.denominator)
        return Real.from_interval(min(at_lo, at_hi), max(at_lo, at_hi))

    def tail_state(self, n: int) -> None:
        return None

    def real(self) -> Real:
        return self.tail(0)

    def reflect(self) -> PrefixAlpha:
        qs = self.quotients
        if qs[0] != 0 or len(qs) < 2:
            raise DomainError("reflection needs a prefix [0; a1, ...]")
        if qs[1] >= 2:
            new = (0, 1, qs[1] - 1) + qs[2:]
        else:
            if len(qs) < 3:
                raise DomainError("prefix too short to reflect [0; 1]")
            new = (0, qs[2] + 1) + qs[3:]
        return PrefixAlpha(new, self.tail_low, self.tail_high)

    def spec(self) -> str:
        body = str(self.quotients[0])
        if len(self.quotients) > 1:
            body += ";" + ",".join(str(a) for a in self.quotients[1:])
        return f"cf:[{body}]"

    def depth_used(self, depth: int) -> int:
        return min(depth, len(self.quotients) - 1)

    def deep_row_floor(self, table: ConvergentTable, depth: int, parity: Optional[int]
                       ) -> Optional[tuple[Fraction, int]]:
        """Rows beyond a fully read prefix with a finite tail bound satisfy
        gamma_n > q_n^(tau-1) / (tail_high + 1), and q_{depth+1} is at
        least q_depth + q_{depth-1}."""
        if self.tail_high is None or depth < len(self.quotients) - 1:
            return None
        return 1 / (self.tail_high + 1), table.denom(depth) + table.denom(depth - 1)


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


def cf_cycle(alpha: QuadraticAlpha) -> tuple[int, int]:
    """(preperiod length, period length) of a quadratic expansion."""
    start, period, _floors = alpha._cycle
    return start, period


def cf_expand(alpha: AlphaSpec, depth: int) -> list[int]:
    """First `depth` partial quotients of alpha.

    Rational expansions terminate at their exact (unique, last quotient >= 2)
    form; prefixes error out beyond the stored data.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    quotients = alpha.quotients_to(depth)
    if len(quotients) < depth and alpha.terminates is None:
        raise InsufficientDataError(
            f"prefix holds {len(quotients)} quotients, requested {depth}"
        )
    return quotients


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

def tail_real(alpha: AlphaSpec, n: int) -> Value:
    """The tail value alpha_n = [a_n; a_{n+1}, ...]: a Fraction for a rational,
    a Quad for a quadratic, a Real for a prefix."""
    if n < 0:
        raise DomainError("tail index must be >= 0")
    return alpha.tail(n)


# ---------------------------------------------------------------------------
# Constructors
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
