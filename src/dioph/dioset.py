"""Exact truncated approximations of the sets {alpha : ||q*alpha|| >= gamma/q^tau}.

The truncated set at cutoff Q removes, from [0, 1], the open interval of
radius gamma/q^(tau+1) around every reduced fraction p/q with q <= Q.  The
result is a finite union of closed intervals with exact rational endpoints
and exact measure.  Because the defining inequality is non-strict, boundary
points p/q +- gamma/q^(tau+1) belong to the set; two excluded intervals that
merely touch leave the shared endpoint behind as a degenerate member point.

One sieve, :func:`sieve_window`, computes these unions on [0, 1] for ``set``,
``sweep`` and :func:`set_bracket` and on a convergent window for the census,
from one radius per denominator and a scan of p for each q.  It merges integer
keys of the endpoints; measures are summed by denominator.
:func:`fractions_in_interval` lists the fractions of a window by a loop of
its own over each denominator.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .arith import (
    DEFAULT_PRECISION,
    DomainError,
    format_rat,
    parse_rat,
    power_bounds,
    rat_sum_tail_bound,
)


# ---------------------------------------------------------------------------
# Interval sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSet:
    """Sorted union of disjoint closed intervals with exact rational endpoints."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        # a/b <= c/d iff a*d <= c*b, denominators being positive; the first
        # interval is compared with -1/0, below every endpoint
        prev_n, prev_d = -1, 0
        for lo, hi in self.intervals:
            lo_n, lo_d, hi_n, hi_d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
            if lo_n * hi_d > hi_n * lo_d:
                raise DomainError(f"inverted interval [{lo}, {hi}]")
            if lo_n * prev_d <= prev_n * lo_d:
                raise DomainError("intervals must be sorted and disjoint")
            prev_n, prev_d = hi_n, hi_d

    @property
    def measure(self) -> Fraction:
        """Exact total length: signed endpoint numerators add up as integers
        per reduced denominator, and those terms are added pairwise, so that
        operands stay of similar size (Bernstein, "Fast multiplication")."""
        sums: defaultdict[int, int] = defaultdict(int)
        for lo, hi in self.intervals:
            sums[lo.denominator] -= lo.numerator
            sums[hi.denominator] += hi.numerator
        terms = [Fraction(n, d) for d, n in sums.items()] or [Fraction(0)]
        while len(terms) > 1:
            terms = [a + b for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
        return terms[0]

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
        clipped = ((max(lo, w_lo), min(hi, w_hi)) for lo, hi in self.intervals)
        return IntervalSet(tuple((a, b) for a, b in clipped if a <= b))

    def reflect(self) -> "IntervalSet":
        """The image under x -> 1 - x."""
        return IntervalSet(tuple((1 - hi, 1 - lo) for lo, hi in reversed(self.intervals)))

    def complement_within(self, lo: Fraction, hi: Fraction) -> "IntervalSet":
        """Closure of [lo, hi] minus this set (same measure as the complement),
        in which the gaps on both sides of an isolated point of this set join."""
        pieces, cur = [], Fraction(lo)
        for a, b in [*self.restrict((lo, hi)).intervals, (Fraction(hi), Fraction(hi))]:
            if a > cur:
                if pieces and pieces[-1][1] == cur:
                    pieces[-1] = (pieces[-1][0], a)
                else:
                    pieces.append((cur, a))
            cur = b
        return IntervalSet(tuple(pieces))

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


def _key_bits(dens: list[int]) -> int:
    """k with 2^k > 4*den^2: keys floor(2^k*x) order endpoints 1/den^2 apart."""
    return 2 * max(dens).bit_length() + 2


def _open_complement(items: list[tuple], lo: Fraction, hi: Fraction, k: int) -> IntervalSet:
    """Closure of [lo, hi] minus the union of the open intervals given as
    (lo_key, hi_key, lo_num, lo_den, hi_num, hi_den).  Intervals merge on
    STRICT overlap only: a shared endpoint is interior to neither, so two
    touching intervals leave it behind as a degenerate member point."""
    hi_key = (hi.numerator << k) // hi.denominator
    cur_key, cur = (lo.numerator << k) // lo.denominator, lo
    pieces, group = [], None  # group: [lo_key, hi_key, first item, item holding hi_key]
    items.sort()
    for it in [*items, (math.inf, math.inf)]:  # the sentinel closes the last group
        if group and it[0] < group[1]:
            if it[1] > group[1]:
                group[1], group[3] = it[1], it
            continue
        if group and group[1] > cur_key:
            a, b, first, last = group
            if a >= hi_key:
                break
            if a >= cur_key:
                pieces.append((cur, Fraction(first[2], first[3])))
            cur_key, cur = b, Fraction(last[4], last[5])
        group = [it[0], it[1], it, it]
    if cur_key <= hi_key:
        pieces.append((cur, hi))
    return IntervalSet(tuple(pieces))


# ---------------------------------------------------------------------------
# Fractions in a window
# ---------------------------------------------------------------------------

def fractions_in_interval(lo: Fraction, hi: Fraction, max_den: int,
                          include_lo: bool = False, include_hi: bool = False
                          ) -> Iterator[tuple[int, int]]:
    """Reduced fractions with denominator <= max_den in (lo, hi) (endpoints
    optional), in increasing order, by a scan over q: O(max_den + count*log(count))."""
    if max_den < 1 or hi < lo:
        return
    lo, hi = Fraction(lo), Fraction(hi)
    # a reduced p/q equals an endpoint only as that endpoint's own terms
    drop = {x.as_integer_ratio() for x, inc in ((lo, include_lo), (hi, include_hi)) if not inc}
    k = _key_bits([max_den])
    for _key, p, q in sorted(((p << k) // q, p, q) for q in range(1, max_den + 1)
                             for p in range(math.ceil(q * lo), math.floor(q * hi) + 1)
                             if math.gcd(p, q) == 1 and (p, q) not in drop):
        yield p, q


# ---------------------------------------------------------------------------
# Exclusion radii and truncated sets
# ---------------------------------------------------------------------------

def exclusion_radius(q: int, gamma: Fraction, tau: Fraction, rounding: str,
                     bits: int = DEFAULT_PRECISION) -> Fraction:
    """gamma / q^(tau+1); exact for integer tau, otherwise rounded down
    ("inner": sound when building outer set approximations) or up ("outer":
    sound when bounding excluded measure from above)."""
    gamma, tau = Fraction(gamma), Fraction(tau)
    if q < 1:
        raise DomainError("q must be >= 1")
    if rounding not in ("inner", "outer"):
        raise DomainError(f"rounding must be 'inner' or 'outer', got {rounding!r}")
    lo, hi = power_bounds(q, tau + 1, bits)
    return gamma / (hi if rounding == "inner" else lo)


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
    radii = [exclusion_radius(q, gamma, tau, "inner", bits) for q in range(1, qmax + 1)]
    return sieve_window(radii, Fraction(0), Fraction(1))


def sieve_window(radii: Sequence[Fraction], lo: Fraction, hi: Fraction) -> IntervalSet:
    """Closure of [lo, hi] minus the open interval of radius ``radii[q-1]``
    around every reduced p/q with q <= len(radii).  Per q, only centers next
    to the window count (on [0, 1]: the Farey fractions), as radii never grow
    with q: inside it, a center farther out covers no more than a nearer one
    or its reduced form does."""
    k = _key_bits([lo.denominator, hi.denominator]
                  + [q * r.denominator for q, r in enumerate(radii, 1)])
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    items = []
    for q, r in enumerate(radii, 1):
        rd, off, den = r.denominator, q * r.numerator, q * r.denominator  # (p*rd -+ off)/den
        start = max(-((off * ld - q * ln * rd) // (ld * rd)), q * ln // ld)  # ceil(q*(lo-r)), floor(q*lo)
        stop = min((q * hn * rd + off * hd) // (hd * rd), -(-q * hn // hd))  # floor(q*(hi+r)), ceil(q*hi)
        for p in range(start, stop + 1):
            if math.gcd(p, q) == 1:
                a, b = p * rd - off, p * rd + off
                items.append(((a << k) // den, (b << k) // den, a, den, b, den))
    return _open_complement(items, lo, hi, k)


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
