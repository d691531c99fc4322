"""Exact truncated approximations of the sets {alpha : ||q*alpha|| >= gamma/q^tau}.

The truncated set at cutoff Q removes, from [0, 1], the open interval of
radius gamma/q^(tau+1) around every reduced fraction p/q with q <= Q.  The
result is a finite union of closed intervals with exact rational endpoints
and exact measure.  Because the defining inequality is non-strict, boundary
points p/q +- gamma/q^(tau+1) belong to the set; two excluded intervals that
merely touch leave the shared endpoint behind as a degenerate member point.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .arith import (
    DEFAULT_PRECISION,
    DomainError,
    format_rat,
    parse_rat,
    power_bounds,
    rat_sum_tail_bound,
)
from .contfrac import _rational_quotients


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSet:
    """Sorted union of disjoint closed intervals with exact rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        prev_hi: Optional[Fraction] = None
        for lo, hi in self.intervals:
            if lo > hi:
                raise DomainError(f"inverted interval [{lo}, {hi}]")
            if prev_hi is not None and lo <= prev_hi:
                raise DomainError("intervals must be sorted and disjoint")
            prev_hi = hi

    @property
    def measure(self) -> Fraction:
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __contains__(self, x) -> bool:
        x = Fraction(x)
        i = bisect.bisect_right(self.intervals, x, key=lambda iv: iv[0]) - 1
        return i >= 0 and self.intervals[i][0] <= x <= self.intervals[i][1]

    def restrict(self, window: tuple[Fraction, Fraction]) -> "IntervalSet":
        """Exact intersection with a closed rational window."""
        w_lo, w_hi = Fraction(window[0]), Fraction(window[1])
        if w_lo > w_hi:
            return IntervalSet(())
        out = []
        for lo, hi in self.intervals:
            a, b = max(lo, w_lo), min(hi, w_hi)
            if a <= b:
                out.append((a, b))
        return IntervalSet(tuple(out))

    def reflect(self) -> "IntervalSet":
        """The image under x -> 1 - x."""
        return IntervalSet(tuple((1 - hi, 1 - lo) for lo, hi in reversed(self.intervals)))

    def complement_within(self, lo: Fraction, hi: Fraction) -> "IntervalSet":
        """Closure of [lo, hi] minus this set (same measure as the complement)."""
        pieces = []
        cur = Fraction(lo)
        for a, b in self.intervals:
            if b < cur:
                continue
            if a > hi:
                break
            if a > cur:
                pieces.append((cur, min(a, Fraction(hi))))
            cur = max(cur, b)
        if cur < hi:
            pieces.append((cur, Fraction(hi)))
        return IntervalSet(tuple(p for p in pieces if p[0] <= p[1]))

    def subset_of(self, other: "IntervalSet") -> bool:
        j = 0
        for lo, hi in self.intervals:
            while j < len(other.intervals) and other.intervals[j][1] < lo:
                j += 1
            if j >= len(other.intervals):
                return False
            o_lo, o_hi = other.intervals[j]
            if not (o_lo <= lo and hi <= o_hi):
                return False
        return True

    def to_obj(self) -> list[list[str]]:
        return [[format_rat(lo), format_rat(hi)] for lo, hi in self.intervals]

    @staticmethod
    def from_obj(obj: Sequence[Sequence[str]]) -> "IntervalSet":
        return IntervalSet(tuple((parse_rat(lo), parse_rat(hi)) for lo, hi in obj))


def _merge_open(items: Iterable[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Merge open intervals on STRICT overlap only: a shared endpoint is not
    interior to either interval, so touching intervals stay separate."""
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted((lo, hi) for lo, hi in items if hi > lo):
        if merged and lo < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def open_union_complement(excluded: Iterable[tuple[Fraction, Fraction]],
                          domain: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
                          ) -> IntervalSet:
    """Complement of a union of OPEN intervals inside a closed domain."""
    d_lo, d_hi = Fraction(domain[0]), Fraction(domain[1])
    pieces: list[tuple[Fraction, Fraction]] = []
    cur = d_lo
    for lo, hi in _merge_open(excluded):
        if hi <= cur or hi < d_lo:
            continue
        if lo >= d_hi:
            break
        if lo >= cur:
            pieces.append((cur, min(lo, d_hi)))
        cur = hi
    if cur <= d_hi:
        pieces.append((cur, d_hi))
    return IntervalSet(tuple(p for p in pieces if p[0] <= p[1]))


def union_open_measure(excluded: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """Measure of a union of open intervals."""
    total = Fraction(0)
    for lo, hi in _merge_open(excluded):
        total += hi - lo
    return total


# ---------------------------------------------------------------------------
# Farey / Stern-Brocot enumeration
# ---------------------------------------------------------------------------

def farey_sequence(n: int) -> Iterator[tuple[int, int]]:
    """Reduced fractions p/q in [0, 1] with q <= n, in increasing order."""
    if n < 1:
        raise DomainError("Farey order must be >= 1")
    a, b, c, d = 0, 1, 1, n
    yield a, b
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        yield a, b


def farey_next(a: int, b: int, c: int, d: int, n: int) -> tuple[int, int]:
    """Successor of c/d in F_n, given its immediate predecessor a/b."""
    k = (n + b) // d
    return k * c - a, k * d - b


def _stern_brocot_pair(x: Fraction, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Consecutive fractions of F_n straddling x: a/b <= x <= c/d.

    When x itself has denominator <= n both returned fractions equal x.
    Uses the continued fraction of x: the last convergent within the
    denominator cap and its largest admissible semiconvergent are
    Farey-neighbours enclosing x.
    """
    if x < 0:
        raise DomainError("Stern-Brocot walk defined for x >= 0")
    if x.denominator <= n:
        t = (x.numerator, x.denominator)
        return t, t
    h2, k2 = 0, 1   # convergent before the previous one
    h1, k1 = 1, 0   # previous convergent
    for a in _rational_quotients(x):
        h, k = a * h1 + h2, a * k1 + k2
        if k > n:
            break
        h2, k2, h1, k1 = h1, k1, h, k
    t = (n - k2) // k1
    semi = (t * h1 + h2, t * k1 + k2)
    conv = (h1, k1)
    if Fraction(*conv) < x:
        return conv, semi
    return semi, conv


def _farey_predecessor(p: int, q: int, n: int) -> tuple[int, int]:
    """Immediate predecessor of p/q in F_n (p/q reduced, q <= n)."""
    if (p, q) == (0, 1):
        return -1, 1  # sentinel below the domain; farey_next recovers 1/n
    b0 = pow(p, -1, q)
    b = b0 + ((n - b0) // q) * q
    a = (p * b - 1) // q
    return a, b


def fractions_in_interval(lo: Fraction, hi: Fraction, max_den: int,
                          include_lo: bool = False, include_hi: bool = False
                          ) -> Iterator[tuple[int, int]]:
    """Reduced fractions with denominator <= max_den in (lo, hi) (endpoints
    optional), in increasing order, via the Farey successor recurrence."""
    if max_den < 1 or hi < lo:
        return
    lo, hi = Fraction(lo), Fraction(hi)
    if lo < 0:
        raise DomainError("enumeration expects lo >= 0")
    (a, b), (c, d) = _stern_brocot_pair(lo, max_den)
    if (a, b) == (c, d):
        if include_lo and (lo < hi or include_hi):
            yield (c, d)
        pa, pb = _farey_predecessor(c, d, max_den)
        nxt = farey_next(pa, pb, c, d, max_den)
        a, b, (c, d) = c, d, nxt
    # invariant: a/b is the F_n predecessor of c/d, and c/d > lo
    while True:
        val = Fraction(c, d)
        if val > hi or (val == hi and not include_hi):
            return
        yield (c, d)
        nxt = farey_next(a, b, c, d, max_den)
        a, b, (c, d) = c, d, nxt


# ---------------------------------------------------------------------------
# Exclusion radii and truncated sets
# ---------------------------------------------------------------------------

def exclusion_radius(q: int, gamma: Fraction, tau: Fraction, rounding: str = "exact",
                     bits: int = DEFAULT_PRECISION) -> Fraction:
    """gamma / q^(tau+1); exact for integer tau, otherwise rounded down
    ("inner": sound when building outer set approximations) or up ("outer":
    sound when bounding excluded measure from above)."""
    gamma, tau = Fraction(gamma), Fraction(tau)
    if q < 1:
        raise DomainError("q must be >= 1")
    if tau.denominator != 1 and rounding not in ("inner", "outer"):
        raise DomainError("fractional tau requires rounding='inner' or 'outer'")
    lo, hi = power_bounds(q, tau + 1, bits)
    return gamma / (hi if rounding == "inner" else lo)


def excluded_interval(p: int, q: int, gamma: Fraction, tau: Fraction,
                      rounding: str = "exact", bits: int = DEFAULT_PRECISION
                      ) -> tuple[Fraction, Fraction]:
    """Open interval around p/q removed by the constraint at denominator q."""
    if q < 1 or p < 0 or p > q or math.gcd(p, q) != 1:
        raise DomainError(f"need a reduced fraction with 0 <= p <= q, got {p}/{q}")
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    r = exclusion_radius(q, gamma, tau, rounding, bits)
    center = Fraction(p, q)
    return center - r, center + r


def truncated_set(gamma: Fraction, tau: Fraction, qmax: int,
                  bits: int = DEFAULT_PRECISION) -> IntervalSet:
    """[0,1] minus every exclusion interval with denominator <= qmax.

    For fractional tau the radii are rounded down dyadically, so the result
    is a superset of the true truncated set; set_bracket accounts for the
    rounding slack.  gamma >= 1/2 yields the empty set.
    """
    gamma, tau = Fraction(gamma), Fraction(tau)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if qmax < 1:
        raise DomainError("Qmax must be >= 1")
    radii = {q: exclusion_radius(q, gamma, tau, "inner", bits)
             for q in range(1, qmax + 1)}
    excluded = []
    for p, q in farey_sequence(qmax):
        r = radii[q]
        center = Fraction(p, q)
        excluded.append((center - r, center + r))
    return open_union_complement(excluded)


@dataclass(frozen=True)
class SetBracket:
    """Outer approximation plus a certified bound on the measure that larger
    denominators (and radius rounding, for fractional tau) may still remove."""

    outer: IntervalSet
    tail_measure_bound: Fraction


def set_bracket(gamma: Fraction, tau: Fraction, qmax: int,
                bits: int = DEFAULT_PRECISION) -> SetBracket:
    """Certified bracket: outer contains the exact set, and the measure of
    (outer minus the exact set) is at most tail_measure_bound."""
    gamma, tau = Fraction(gamma), Fraction(tau)
    if tau <= 2:
        raise DomainError("tail bound requires tau > 2")
    outer = truncated_set(gamma, tau, qmax, bits)
    # each denominator q contributes at most q+1 centers of width 2*gamma/q^(tau+1)
    tail = 2 * gamma * rat_sum_tail_bound(tau, qmax)
    if tau.denominator != 1:
        slack = Fraction(0)
        for q in range(1, qmax + 1):
            lo, hi = power_bounds(q, tau + 1, bits)
            slack += (q + 1) * 2 * (gamma / lo - gamma / hi)
        tail += slack
    return SetBracket(outer=outer, tail_measure_bound=tail)
