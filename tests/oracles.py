"""Independent oracles for the library's exact sieve, Farey enumeration and
quadratic expansions.

Each one checks a definition directly, by a scan over every denominator or
with plain ``Fraction`` and ``Quad`` arithmetic, with none of the library's
integer keys, sweep or recurrence machinery.
"""

import math
from fractions import Fraction

from dioph.arith import DEFAULT_PRECISION, DomainError, Quad, _square_free_split
from dioph.dioset import exclusion_radius, farey_sequence


def fractions_in_interval_bruteforce(lo: Fraction, hi: Fraction, max_den: int,
                                     include_lo: bool = False,
                                     include_hi: bool = False
                                     ) -> list[tuple[int, int]]:
    """Per-denominator scan oracle for fractions_in_interval."""
    out = []
    for q in range(1, max_den + 1):
        for p in range(math.ceil(lo * q), math.floor(hi * q) + 1):
            if math.gcd(p, q) != 1:
                continue
            val = Fraction(p, q)
            if (val == lo and not include_lo) or (val == hi and not include_hi):
                continue
            if lo <= val <= hi:
                out.append((p, q))
    return sorted(out, key=lambda t: Fraction(t[0], t[1]))


def direct_member(x: Fraction, gamma: Fraction, tau: Fraction, qmax: int) -> bool:
    """Direct check ||q*x|| >= gamma/q^tau for every q <= qmax (integer tau)."""
    x, gamma, tau = Fraction(x), Fraction(gamma), Fraction(tau)
    if tau.denominator != 1:
        raise DomainError("direct check implemented for integer tau")
    t = int(tau)
    for q in range(1, qmax + 1):
        r = (x.numerator * q) % x.denominator
        dist = Fraction(min(r, x.denominator - r), x.denominator)
        if dist * q ** t < gamma:
            return False
    return True


# ---------------------------------------------------------------------------
# The Fraction sieve, the linear measure and the clipped census loop, kept as
# they were before the library moved to one integer-keyed sieve.
# ---------------------------------------------------------------------------

def merge_open(items):
    """Merge open intervals on STRICT overlap only: a shared endpoint is not
    interior to either interval, so touching intervals stay separate."""
    merged = []
    for lo, hi in sorted((lo, hi) for lo, hi in items if hi > lo):
        if merged and lo < merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def open_union_complement_pairs(excluded, domain=(Fraction(0), Fraction(1))):
    """Complement of a union of OPEN intervals inside a closed domain, as
    a tuple of (lo, hi) pairs."""
    d_lo, d_hi = Fraction(domain[0]), Fraction(domain[1])
    pieces = []
    cur = d_lo
    for lo, hi in merge_open(excluded):
        if hi <= cur or hi < d_lo:
            continue
        if lo >= d_hi:
            break
        if lo >= cur:
            pieces.append((cur, min(lo, d_hi)))
        cur = hi
    if cur <= d_hi:
        pieces.append((cur, d_hi))
    return tuple(p for p in pieces if p[0] <= p[1])


def union_open_measure(excluded) -> Fraction:
    """Measure of a union of open intervals."""
    total = Fraction(0)
    for lo, hi in merge_open(excluded):
        total += hi - lo
    return total


def truncated_set_pairs(gamma, tau, qmax, bits=DEFAULT_PRECISION):
    """[0,1] minus every exclusion interval with denominator <= qmax, built
    from Fraction endpoints over the Farey sequence."""
    gamma, tau = Fraction(gamma), Fraction(tau)
    radii = {q: exclusion_radius(q, gamma, tau, "inner", bits)
             for q in range(1, qmax + 1)}
    excluded = []
    for p, q in farey_sequence(qmax):
        r = radii[q]
        center = Fraction(p, q)
        excluded.append((center - r, center + r))
    return open_union_complement_pairs(excluded)


def linear_measure(intervals) -> Fraction:
    """Sum of the interval lengths, one term at a time."""
    return sum((hi - lo for lo, hi in intervals), Fraction(0))


def clipped_excluded_measure(lo, hi, gamma, tau, qmax, bits=DEFAULT_PRECISION) -> Fraction:
    """Measure of the exclusion intervals with denominator <= qmax clipped to
    the window [lo, hi], radii rounded "outer"."""
    clipped = []
    for q in range(1, qmax + 1):
        r = exclusion_radius(q, gamma, tau, "outer", bits)
        p_start = -((-(lo - r).numerator * q) // (lo - r).denominator)  # ceil(q*(lo-r))
        p_end = ((hi + r).numerator * q) // (hi + r).denominator        # floor(q*(hi+r))
        for p in range(p_start, p_end + 1):
            if math.gcd(p, q) != 1:
                continue
            center = Fraction(p, q)
            a, b = center - r, center + r
            if a < hi and b > lo:
                clipped.append((max(a, lo), min(b, hi)))
    return union_open_measure(clipped)


# ---------------------------------------------------------------------------
# The quadratic expansion as it was before the alpha owned its states: a dict
# of every state up to the first repeat, and the cycle floors walked in
# ``Quad`` arithmetic.
# ---------------------------------------------------------------------------

def quad_cycle(p: int, d: int, q: int):
    """Integer expansion states of (p + sqrt(d))/q.

    Returns (preperiod, period, quotients, states, D) where `quotients` and
    `states` cover indices 0 .. preperiod+period-1 and states[n] = (P_n, Q_n)
    for the normalized radicand D, which is d or d*q^2 (states are for tail
    values (P_n + sqrt(D)) / Q_n).
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


def quad_quotient(alpha, n: int) -> int:
    start, period, quotients, _states, _d = quad_cycle(alpha.p, alpha.d, alpha.q)
    if n < len(quotients):
        return quotients[n]
    return quotients[start + (n - start) % period]


def quad_tail(alpha, n: int) -> Quad:
    start, period, _quotients, states, d = quad_cycle(alpha.p, alpha.d, alpha.q)
    if n < len(states):
        pp, qq = states[n]
    else:
        pp, qq = states[start + (n - start) % period]
    # sqrt(D) = c*sqrt(k) in alpha's own field, times |q| when D = d*q^2
    c, k = _square_free_split(alpha.d)
    if d != alpha.d:
        c *= abs(alpha.q)
    return Quad(Fraction(pp, qq), Fraction(c, qq), k)


def cycle_floors(alpha) -> tuple:
    """min of 1/(alpha_{n+1} + 1/a_n) over one period of n: over every
    n, over even n and over odd n, from one walk of the cycle."""
    start, period, _quotients, _states, _d = quad_cycle(alpha.p, alpha.d, alpha.q)
    floors: list = [None, None, None]
    for n in range(start, start + period):
        cand = 1 / (quad_tail(alpha, n + 1) + Fraction(1, quad_quotient(alpha, n)))
        for k in (0, 1 + n % 2):
            if floors[k] is None or cand < floors[k]:
                floors[k] = cand
    return tuple(floors)
