"""Independent oracles for the library's exact sieve, window enumeration,
census, gap conditions, quadratic expansions, row reduction and
brute-force scan, and helpers that only the tests use.

Each oracle checks a definition directly, by a scan over every denominator,
by the Farey successor walk the library no longer uses, or with plain
``Fraction`` and ``Quad`` arithmetic, with none of the library's integer
keys, sweep or recurrence machinery.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Iterator, Optional, Union

from dioph.arith import (
    DEFAULT_PRECISION,
    DomainError,
    Quad,
    Real,
    RealEnclosure,
    Value,
    _floor_quad_int,
    _surd_sign,
    enclose,
    exact_cmp,
    power_bounds,
    surd,
    weighted_cmp,
)
from dioph.contfrac import (
    AlphaSpec,
    QuadraticAlpha,
    RationalAlpha,
    _rational_quotients,
    convergents,
    tail_real,
)
from dioph.dioset import IntervalSet, _key_bits, _open_complement, exclusion_radius
from dioph.quality import (
    GammaResult,
    IsolationReport,
    MembershipVerdict,
    QualityRow,
    _check_unit_interval,
    _GammaRows,
)


# ---------------------------------------------------------------------------
# Helpers that only the tests use
# ---------------------------------------------------------------------------

def excluded_interval(p: int, q: int, gamma: Fraction, tau: Fraction,
                      rounding: str = "outer", bits: int = DEFAULT_PRECISION
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


def open_union_complement(excluded: Iterable[tuple[Fraction, Fraction]],
                          domain: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1)),
                          ) -> IntervalSet:
    """Complement of a union of OPEN intervals inside a closed domain, by the
    library's integer-keyed merge."""
    d_lo, d_hi = Fraction(domain[0]), Fraction(domain[1])
    ends = [(Fraction(a), Fraction(b)) for a, b in excluded if b > a]
    k = _key_bits([x.denominator for x in (d_lo, d_hi, *(x for pair in ends for x in pair))])
    items = [((a.numerator << k) // a.denominator, (b.numerator << k) // b.denominator,
              a.numerator, a.denominator, b.numerator, b.denominator) for a, b in ends]
    return _open_complement(items, d_lo, d_hi, k)


def stored_form(v):
    """What an exact value stores, where == reads only its value: its type
    and, for a Quad, its (a, b, d); a tuple item by item."""
    if isinstance(v, tuple):
        return tuple(map(stored_form, v))
    return (Quad, v.a, v.b, v.d) if isinstance(v, Quad) else (type(v), v)


@dataclass(frozen=True)
class TailValue:
    n: int
    enclosure: RealEnclosure
    exact: Optional[Union[Fraction, Quad]] = None


def tail(alpha: AlphaSpec, n: int, precision_bits: int) -> TailValue:
    r = tail_real(alpha, n)
    return TailValue(n=n, enclosure=enclose(r, precision_bits),
                     exact=None if isinstance(r, Real) else r)


# ---------------------------------------------------------------------------
# Farey / Stern-Brocot enumeration, as the library had it before it moved to
# one per-denominator scan
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


def fractions_in_interval_walk(lo: Fraction, hi: Fraction, max_den: int,
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


def census_c_n(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
               precision: int = DEFAULT_PRECISION) -> Optional[Fraction]:
    """c_n of the census by one radius per window fraction: the largest
    p/q + r_q over reduced lo <= p/q < hi with q < q_{n+2}."""
    table = convergents(alpha.quotients_to(n + 3))
    e1, e2 = table.fraction(n), table.fraction(n + 2)
    lo, hi = min(e1, e2), max(e1, e2)
    c_n = None
    for p, q in fractions_in_interval_walk(lo, hi, table.denom(n + 2) - 1, include_lo=True):
        cand = Fraction(p, q) + exclusion_radius(q, gamma, tau, "outer", precision)
        if c_n is None or cand > c_n:
            c_n = cand
    return c_n


def window_margin_rows(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
                       max_den: Optional[int] = None, precision: int = DEFAULT_PRECISION
                       ) -> list[tuple[int, int, Fraction]]:
    """window_margin_table over the Farey walk, one radius per fraction."""
    table = convergents(alpha.quotients_to(n + 3))
    q_n2 = table.denom(n + 2)
    cutoff = q_n2 - 1 if max_den is None else min(max_den, q_n2 - 1)
    e_near, e_far = table.fraction(n), table.fraction(n + 2)
    lo, hi = min(e_near, e_far), max(e_near, e_far)
    margin = (exclusion_radius(q_n2, gamma, tau, "outer", precision)
              + 2 * gamma / power_bounds(q_n2, tau - 1, precision)[0])
    rows = []
    for p, q in fractions_in_interval_walk(lo, hi, cutoff):
        r = exclusion_radius(q, gamma, tau, "outer", precision)
        if e_near <= e_far:
            slack = (hi - margin) - (Fraction(p, q) + r)
        else:
            slack = (Fraction(p, q) - r) - (lo + margin)
        rows.append((p, q, slack))
    return rows


def gap_from_definition(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
                        strict: bool) -> Optional[bool]:
    """The gap condition at n from its definition: with r(q) = gamma/q^(tau+1),
    does r(q_n) + r(q_{n+2}), plus 2*gamma/q_{n+2}^(tau-1) when strict, stay
    below the width |p_{n+2}/q_{n+2} - p_n/q_n|?  Powers come from
    ``power_bounds`` at 1024 bits; None when their bounds leave it open."""
    table = convergents(alpha.quotients_to(n + 3))
    width = abs(table.fraction(n + 2) - table.fraction(n))
    q_n, q_n2 = table.denom(n), table.denom(n + 2)
    powers = [power_bounds(q_n, tau + 1, 1024), power_bounds(q_n2, tau + 1, 1024)]
    if strict:
        powers.append(power_bounds(q_n2, tau - 1, 1024))
    weights = (1, 1, 2)
    # the low ends of the powers bound the left side from above, the high ends from below
    left_hi, left_lo = (sum(w * gamma / pw[end] for w, pw in zip(weights, powers))
                        for end in (0, 1))
    if left_hi < width:
        return True
    if left_lo >= width:
        return False
    return None


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
    # stored over D, the radicand of the states, as the library stores it
    return Quad(Fraction(pp, qq), Fraction(1, qq), d)


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


# ---------------------------------------------------------------------------
# The row reduction as it was before _GammaRows owned it: one reduction per
# caller, with a special case per caller for a finite expansion.
# ---------------------------------------------------------------------------

def _tail_lower(g: _GammaRows, parity: Optional[int]) -> Optional[Value]:
    """Strict lower bound (exact, or as a certified real) valid for every quality row
    deeper than g.depth (of the given parity, if any), or None when no such
    bound is provable."""
    floor = g.alpha.deep_row_floor(g.table, g.depth, parity)
    if floor is None:
        return None
    c, q = floor
    return Real.power(Fraction(q), g.tau - 1) * c


def _reduce_rows(rows: list[QualityRow], tail_bound: Optional[Value],
                 precision: int, depth_used: int) -> GammaResult:
    if all(r.exact is not None for r in rows):
        vmin = min((r.exact for r in rows), key=cmp_to_key(exact_cmp))
        argmin = tuple(r.n for r in rows if r.exact == vmin)
        enc = enclose(vmin, precision)
        min_lo, upper = enc.lo, enc.hi
    else:
        upper = min(r.enclosure.hi for r in rows)
        min_lo = min(r.enclosure.lo for r in rows)
        argmin = tuple(r.n for r in rows if r.enclosure.lo <= upper)
    bound_lo = None if tail_bound is None else enclose(tail_bound, precision).lo
    certified = bound_lo is not None and bound_lo >= 0
    if certified:
        lower = min(min_lo, bound_lo)
    else:
        lower = Fraction(0)
    lower = max(lower, Fraction(0))
    return GammaResult(lower=lower, upper=upper, argmin_candidates=argmin,
                       certified=certified, depth_used=depth_used)


def _bracket(g: _GammaRows) -> GammaResult:
    if g.alpha.terminates:
        return GammaResult(lower=Fraction(0), upper=Fraction(0),
                           argmin_candidates=(g.depth,), certified=True,
                           depth_used=g.depth)
    if g.depth < 1:
        raise DomainError("prefix too short for any quality row beyond n=0")
    return _reduce_rows(g.rows, _tail_lower(g, None), g.precision, g.depth)


def _parity_brackets(g: _GammaRows) -> tuple[GammaResult, GammaResult]:
    results = []
    for parity in (0, 1):
        sub = [r for r in g.rows if r.n % 2 == parity]
        if not sub:
            results.append(GammaResult(Fraction(0), Fraction(0), (), False, g.depth))
            continue
        if g.alpha.terminates:
            # finite expansion: no deeper rows exist, any nonnegative bound works
            tail_bound = sub[0].enclosure.hi
        else:
            tail_bound = _tail_lower(g, parity)
        results.append(_reduce_rows(sub, tail_bound, g.precision, g.depth))
    return results[0], results[1]


def reference_membership(alpha: AlphaSpec, gamma: Fraction, tau: Fraction,
                         depth_budget: int, precision: int
                         ) -> tuple[MembershipVerdict, _GammaRows]:
    gamma, tau = Fraction(gamma), Fraction(tau)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if depth_budget < 1:  # a usage error, like a depth below 1
        raise DomainError("depth budget must be >= 1")
    _check_unit_interval(alpha)
    g = _GammaRows(alpha, tau, alpha.depth_used(depth_budget), precision)
    depth = g.depth
    if alpha.terminates:
        return MembershipVerdict(kind="out", witness_q=g.table.denom(depth),
                                 witness_p=g.table.numer(depth), budget_spent=depth,
                                 lower=Fraction(0), upper=Fraction(0)), g
    for r in g.rows:
        if r.exact is not None:
            below = exact_cmp(r.exact, gamma) < 0
        else:
            below = r.enclosure.hi < gamma
        if below:
            return MembershipVerdict(kind="out", witness_q=r.q, witness_p=r.p,
                                     budget_spent=r.n), g
    result = _reduce_rows(g.rows, _tail_lower(g, None), precision, depth)
    if result.certified and result.lower >= gamma:
        return MembershipVerdict(kind="in", certified=True, budget_spent=depth,
                                 lower=result.lower, upper=result.upper), g
    return MembershipVerdict(kind="unknown", budget_spent=depth,
                             lower=result.lower, upper=result.upper), g


def reference_isolation(alpha: AlphaSpec, gamma: Fraction, tau: Fraction,
                        depth: int = 40, precision: int = DEFAULT_PRECISION
                        ) -> IsolationReport:
    gamma, tau = Fraction(gamma), Fraction(tau)
    verdict, g = reference_membership(alpha, gamma, tau, depth, precision)
    member = True if verdict.is_in else (False if verdict.is_out else None)
    rows = g.rows

    boundary = tuple(
        r.n for r in rows
        if r.exact is not None and exact_cmp(r.exact, gamma) == 0
    )

    all_exact = attained_known = all(r.exact is not None for r in rows)
    if attained_known:
        vmin = min((r.exact for r in rows), key=cmp_to_key(exact_cmp))
        if not alpha.terminates:  # a finite expansion's minimum is its infimum
            # deeper rows all exceed the bound strictly; the infimum is attained
            # among the computed rows when the minimum does not exceed the bound
            bound = _tail_lower(g, None)
            if isinstance(bound, Real):
                bound = bound.enclose(precision).lo
            attained_known = bound is not None and exact_cmp(vmin, bound) <= 0
    if not attained_known:
        if all_exact:  # the rows equal to the exact minimum
            unresolved = tuple(r.n for r in rows if exact_cmp(r.exact, vmin) == 0)
        else:
            upper = min(r.enclosure.hi for r in rows)
            unresolved = tuple(r.n for r in rows if r.enclosure.lo <= upper)
        return IsolationReport(member, None, (), (), boundary, unresolved)

    hits = [r.n for r in rows if exact_cmp(r.exact, vmin) == 0]
    evens = [n for n in hits if n % 2 == 0]
    odds = [n for n in hits if n % 2 == 1]
    ties = tuple((n, m) for n in evens for m in odds)
    attained = tuple(hits) if not ties else ()
    at_min = exact_cmp(vmin, gamma) == 0
    return IsolationReport(member, at_min, ties, attained, boundary, ())


# ---------------------------------------------------------------------------
# The brute-force scan that evaluates every q, without the pruning rule
# ---------------------------------------------------------------------------

def _bf_quadratic_int_tau(alpha: QuadraticAlpha, t: int, qmax: int,
                          precision: int) -> tuple[RealEnclosure, int, Quad]:
    v = alpha.value()
    x = v.a.numerator * v.b.denominator
    y = v.b.numerator * v.a.denominator
    z = v.a.denominator * v.b.denominator
    d = v.d
    best: Optional[tuple[int, int]] = None
    best_q = 0
    for q in range(1, qmax + 1):
        m = _nearest_int(q * x, q * y, z, d)
        num = q * x - m * z
        sb = q * y
        if _surd_sign(num, sb, d) < 0:
            num, sb = -num, -sb
        qt = q ** t
        cand = (qt * num, qt * sb)
        if best is None or _surd_sign(cand[0] - best[0], cand[1] - best[1], d) < 0:
            best, best_q = cand, q
    value = surd(Fraction(best[0], z), Fraction(best[1], z), d)
    assert isinstance(value, Quad)
    return value.enclose(precision), best_q, value


def _nearest_int(x: int, y: int, z: int, d: int) -> int:
    # nearest integer to (x + y*sqrt(d))/z  (z > 0); irrational, so no ties
    return _floor_quad_int(2 * x + z, 2 * y, 2 * z, d)


def _dist_interval(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Range of distance-to-nearest-integer over [lo, hi]."""
    if hi - lo >= 1:
        return Fraction(0), Fraction(1, 2)
    def dist(x: Fraction) -> Fraction:
        r = x - (x.numerator // x.denominator)
        return min(r, 1 - r)
    has_int = math.ceil(lo) <= math.floor(hi)
    dmin = Fraction(0) if has_int else min(dist(lo), dist(hi))
    lo2, hi2 = 2 * lo, 2 * hi
    k_lo, k_hi = math.ceil(lo2), math.floor(hi2)
    has_half = any(k % 2 != 0 for k in (k_lo, k_lo + 1) if k <= k_hi)
    dmax = Fraction(1, 2) if has_half else max(dist(lo), dist(hi))
    return dmin, dmax


def brute_force_gamma_reference(alpha: AlphaSpec, tau: Fraction, qmax: int,
                                precision: int = DEFAULT_PRECISION
                                ) -> tuple[RealEnclosure, int]:
    """Direct minimum of q^tau * ||q*alpha|| over q = 1..qmax, every q
    evaluated in full.  Returns (enclosure of the minimum, argmin q)."""
    tau = Fraction(tau)
    if qmax < 1:
        raise DomainError("Qmax must be >= 1")
    if isinstance(alpha, QuadraticAlpha) and tau.denominator == 1:
        enc, q, _v = _bf_quadratic_int_tau(alpha, int(tau), qmax, precision)
        return enc, q
    if isinstance(alpha, RationalAlpha):
        a, b = alpha.value.numerator, alpha.value.denominator
        best: Optional[Fraction] = None  # distance of the current best
        best_q = 0
        for q in range(1, qmax + 1):
            r = (q * a) % b
            dist = Fraction(min(r, b - r), b)
            if best is None or weighted_cmp(dist, q, best, best_q, tau) < 0:
                best, best_q = dist, q
            if best == 0:
                break
        value = Real.power(Fraction(best_q), tau) * best
        return enclose(value, precision), best_q
    # interval path (prefix alphas, fractional tau on quadratics)
    a_enc = enclose(alpha.real(), precision)
    best_hi: Optional[Fraction] = None
    per_q: list[tuple[Fraction, Fraction]] = []
    for q in range(1, qmax + 1):
        dmin, dmax = _dist_interval(q * a_enc.lo, q * a_enc.hi)
        pw_lo, pw_hi = power_bounds(q, tau, precision)
        vlo, vhi = pw_lo * dmin, pw_hi * dmax
        per_q.append((vlo, vhi))
        if best_hi is None or vhi < best_hi:
            best_hi = vhi
    best_lo = min(v[0] for v in per_q)
    argmin = next(q for q, v in enumerate(per_q, start=1) if v[0] <= best_hi)
    return RealEnclosure(best_lo, best_hi, precision), argmin
