"""Exact truncated approximations of the sets {alpha : ||q*alpha|| >= gamma/q^tau}.

The truncated set at cutoff Q removes, from [0, 1], the open interval of
radius gamma/q^(tau+1) around every reduced fraction p/q with q <= Q.  The
result is a finite union of closed intervals with exact rational endpoints
and exact measure.  Because the defining inequality is non-strict, boundary
points p/q +- gamma/q^(tau+1) belong to the set; two excluded intervals that
merely touch leave the shared endpoint behind as a degenerate member point.

One sieve, :func:`sieve_window`, computes these unions on [0, 1] for ``set``,
``sweep`` and :func:`set_bracket` and on a convergent window for the census.
It sorts and merges integer keys of the endpoints and builds Fractions only
for the endpoints it returns; measures are summed by denominator.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

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


def open_union_complement(excluded: Iterable[tuple[Fraction, Fraction]],
                          domain: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
                          ) -> IntervalSet:
    """Complement of a union of OPEN intervals inside a closed domain."""
    d_lo, d_hi = Fraction(domain[0]), Fraction(domain[1])
    ends = [(Fraction(a), Fraction(b)) for a, b in excluded if b > a]
    k = _key_bits([x.denominator for x in (d_lo, d_hi, *(x for pair in ends for x in pair))])
    items = [((a.numerator << k) // a.denominator, (b.numerator << k) // b.denominator,
              a.numerator, a.denominator, b.numerator, b.denominator) for a, b in ends]
    return _open_complement(items, d_lo, d_hi, k)


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
    if rounding not in ("inner", "outer") and (rounding, tau.denominator) != ("exact", 1):
        raise DomainError(f"rounding must be 'inner' or 'outer' (or 'exact' at integer "
                          f"tau), got {rounding!r}")
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
    return sieve_window(gamma, tau, qmax, Fraction(0), Fraction(1), "inner", bits)


def sieve_window(gamma: Fraction, tau: Fraction, qmax: int, lo: Fraction, hi: Fraction,
                 rounding: str, bits: int) -> IntervalSet:
    """Closure of [lo, hi] minus the open interval of radius gamma/q^(tau+1),
    rounded as ``rounding``, around every reduced p/q with q <= qmax.  Per q,
    only centers next to the window count (on [0, 1]: the Farey fractions), as
    radii never grow with q: inside it, a center farther out covers no more
    than a nearer one or its reduced form does."""
    radii = [exclusion_radius(q, gamma, tau, rounding, bits) for q in range(1, qmax + 1)]
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
