"""Quality functionals of a real number against the approximation rate gamma/q^tau.

The n-th quality row is q_n^tau * |q_n*alpha - p_n| over the convergents
p_n/q_n of alpha; its infimum over n (equivalently over all positive q) is
the largest gamma for which alpha satisfies ||q*alpha|| >= gamma/q^tau for
every q.  Every row is computed along two independent routes — the direct
distance definition and the tail identity q_n^tau/(alpha_{n+1} q_n + q_{n-1})
— and the reported enclosure is their intersection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .arith import (
    DEFAULT_PRECISION,
    DomainError,
    InternalConsistencyError,
    Quad,
    Real,
    RealEnclosure,
    _surd_sign,
    enc_intersect,
    exact_cmp,
    exact_enclose,
    surd,
)
from .contfrac import (
    AlphaSpec,
    ConvergentTable,
    PrefixAlpha,
    QuadraticAlpha,
    RationalAlpha,
    _quad_cycle,
    _quad_quotient,
    _quad_tail,
    _rational_quotients,
    alpha_real,
    cf_length,
    convergents,
    tail_real,
)

ExactValue = Union[Fraction, Quad]


@dataclass(frozen=True)
class QualityRow:
    n: int
    q: int
    p: int
    enclosure: RealEnclosure
    exact: Optional[ExactValue] = None


@dataclass(frozen=True)
class GammaResult:
    """Certified bracket around inf_n of the quality rows.

    `certified` is True only when a proven lower bound on every row deeper
    than `depth_used` backs the bracket; otherwise lower is the trivial 0.
    """

    lower: Fraction
    upper: Fraction
    argmin_candidates: tuple[int, ...]
    certified: bool
    depth_used: int


@dataclass(frozen=True)
class MembershipVerdict:
    kind: str  # "in" | "out" | "unknown"
    certified: bool = False
    witness_q: Optional[int] = None
    witness_p: Optional[int] = None
    budget_spent: Optional[int] = None
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None

    @property
    def is_in(self):
        return self.kind == "in"

    @property
    def is_out(self):
        return self.kind == "out"

    @property
    def is_unknown(self):
        return self.kind == "unknown"


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------

def _quotients_to(alpha: AlphaSpec, depth: int) -> list[int]:
    """Quotients a_0..a_depth, truncated at the exact end for finite kinds."""
    length = cf_length(alpha)
    stop = depth + 1 if length is None else min(depth + 1, length)
    if isinstance(alpha, QuadraticAlpha):
        return [_quad_quotient(alpha, k) for k in range(stop)]
    if isinstance(alpha, RationalAlpha):
        return _rational_quotients(alpha.value)[:stop]
    return list(alpha.quotients[:stop])


def _row_reals(alpha: AlphaSpec, tau: Fraction, table: ConvergentTable, n: int
               ) -> tuple[Real, Optional[Real]]:
    """Direct-route and tail-route values of row n (tail route None at the
    final row of a terminating expansion)."""
    qn, pn = table.denom(n), table.numer(n)
    pow_tau = Real.power(Fraction(qn), tau)
    direct = pow_tau * abs(alpha_real(alpha) * qn - pn)
    length = cf_length(alpha)
    if length is not None and n + 1 >= length:
        return direct, None
    t_next = tail_real(alpha, n + 1)
    fond = pow_tau / (t_next * qn + table.denom(n - 1))
    return direct, fond


def _row(alpha: AlphaSpec, tau: Fraction, table: ConvergentTable, n: int,
         precision: int) -> QualityRow:
    direct, fond = _row_reals(alpha, tau, table, n)
    enc = direct.enclose(precision)
    exact = direct.exact
    if fond is not None:
        enc = enc_intersect(enc, fond.enclose(precision))
        if exact is None:
            exact = fond.exact
        elif fond.exact is not None and exact_cmp(exact, fond.exact) != 0:
            raise InternalConsistencyError(
                f"quality routes disagree at n={n}: {exact!r} vs {fond.exact!r}"
            )
    return QualityRow(n=n, q=table.denom(n), p=table.numer(n), enclosure=enc, exact=exact)


def gamma_n(alpha: AlphaSpec, tau: Fraction, n: int, precision: int = DEFAULT_PRECISION
            ) -> QualityRow:
    """Quality row n, intersected across both computation routes."""
    tau = Fraction(tau)
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if n < 0:
        raise DomainError("row index must be >= 0")
    quotients = _quotients_to(alpha, n)
    if len(quotients) <= n:
        raise DomainError(f"expansion has no convergent {n}")
    table = convergents(quotients)
    return _row(alpha, tau, table, n, precision)


def _rows_to(alpha: AlphaSpec, tau: Fraction, depth: int, precision: int
             ) -> tuple[ConvergentTable, list[QualityRow]]:
    quotients = _quotients_to(alpha, depth)
    table = convergents(quotients)
    rows = [_row(alpha, tau, table, n, precision) for n in range(len(quotients))]
    return table, rows


def _depth_used(alpha: AlphaSpec, depth: int) -> int:
    """Deepest row a bracket reads: the whole expansion of a rational, at
    least the preperiod of a quadratic, at most the stored prefix."""
    if isinstance(alpha, RationalAlpha):
        return len(_rational_quotients(alpha.value)) - 1
    if isinstance(alpha, QuadraticAlpha):
        start = _quad_cycle(alpha.p, alpha.d, alpha.q)[0]
        return max(depth, start, 1)
    return min(depth, len(alpha.quotients) - 1)


@dataclass(frozen=True)
class _GammaRows:
    """Rows 0..depth of one (alpha, tau) request, built once and reduced by
    gamma_of, gamma_parity and the CLI."""

    alpha: AlphaSpec
    tau: Fraction
    depth: int
    table: ConvergentTable
    rows: list[QualityRow]
    precision: int


def _gamma_rows(alpha: AlphaSpec, tau: Fraction, depth: int, precision: int
                ) -> _GammaRows:
    tau = Fraction(tau)
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    depth = _depth_used(alpha, depth)
    table, rows = _rows_to(alpha, tau, depth, precision)
    return _GammaRows(alpha, tau, depth, table, rows, precision)


# ---------------------------------------------------------------------------
# Tail lower bounds (certification)
# ---------------------------------------------------------------------------

def _quad_tail_lower(alpha: QuadraticAlpha, tau: Fraction, table: ConvergentTable,
                     depth: int, parity: Optional[int], precision: int
                     ) -> Optional[Real]:
    """Proven strict lower bound for every row n > depth (restricted to a
    parity if given).  Uses the exact cycle: each deep row satisfies
    gamma_n > q_n^(tau-1) / (alpha_{n+1} + 1/a_n), since q_{n-1}/q_n < 1/a_n
    holds strictly for n >= 2."""
    start, period = _quad_cycle(alpha.p, alpha.d, alpha.q)[:2]
    if depth < max(start, 1):
        return None
    positions = range(period)
    if parity is not None and period % 2 == 0:
        positions = [j for j in positions if (start + j) % 2 == parity]
        if not positions:  # parity never reached in the cycle
            return None
    bound: Optional[Union[Fraction, Quad]] = None
    for j in positions:
        idx = start + j
        a_idx = _quad_quotient(alpha, idx)
        t_next = _quad_tail(alpha, idx + 1)
        cand = 1 / (t_next + Fraction(1, a_idx))
        if bound is None or cand < bound:
            bound = cand
    # smallest denominator among uncomputed rows of the requested parity
    n1 = depth + 1
    if parity is not None and n1 % 2 != parity:
        n1 += 1
    q_n1 = _quad_denom(alpha, table, n1)
    return Real.power(Fraction(q_n1), tau - 1) * Real.from_exact(bound)


def _quad_denom(alpha: QuadraticAlpha, table: ConvergentTable, n: int) -> int:
    if n < len(table):
        return table.denom(n)
    q2, q1 = table.denom(len(table) - 2), table.denom(len(table) - 1)
    for k in range(len(table), n + 1):
        q2, q1 = q1, _quad_quotient(alpha, k) * q1 + q2
    return q1


def _prefix_tail_lower(alpha: PrefixAlpha, tau: Fraction, table: ConvergentTable,
                       depth: int, precision: int) -> Optional[Real]:
    """Bound for rows beyond a fully-computed prefix with a finite tail bound:
    gamma_n > q_n^(tau-1) / (tail_high + 1)."""
    if alpha.tail_high is None or depth < len(alpha.quotients) - 1:
        return None
    q_lb = table.denom(depth) + table.denom(depth - 1)
    return Real.power(Fraction(q_lb), tau - 1) * (1 / (alpha.tail_high + 1))


def _tail_lower(alpha: AlphaSpec, tau: Fraction, table: ConvergentTable,
                depth: int, parity: Optional[int], precision: int
                ) -> Optional[Real]:
    """Strict lower bound (as a certified real) valid for every quality row
    deeper than `depth`, or None when no such bound is provable."""
    if isinstance(alpha, QuadraticAlpha):
        return _quad_tail_lower(alpha, tau, table, depth, parity, precision)
    if isinstance(alpha, PrefixAlpha):
        return _prefix_tail_lower(alpha, tau, table, depth, precision)
    return None


# ---------------------------------------------------------------------------
# gamma_of and friends
# ---------------------------------------------------------------------------

def _reduce_rows(rows: list[QualityRow], tail_bound: Optional[Real],
                 precision: int, depth_used: int) -> GammaResult:
    if all(r.exact is not None for r in rows):
        vmin = rows[0].exact
        for r in rows[1:]:
            if exact_cmp(r.exact, vmin) < 0:
                vmin = r.exact
        argmin = tuple(r.n for r in rows if r.exact == vmin)
        enc = exact_enclose(vmin, precision)
        min_lo, upper = enc.lo, enc.hi
    else:
        upper = min(r.enclosure.hi for r in rows)
        min_lo = min(r.enclosure.lo for r in rows)
        argmin = tuple(r.n for r in rows if r.enclosure.lo <= upper)
    bound_lo = None if tail_bound is None else tail_bound.enclose(precision).lo
    certified = bound_lo is not None and bound_lo >= 0
    if certified:
        lower = min(min_lo, bound_lo)
    else:
        lower = Fraction(0)
    lower = max(lower, Fraction(0))
    return GammaResult(lower=lower, upper=upper, argmin_candidates=argmin,
                       certified=certified, depth_used=depth_used)


def _bracket(g: _GammaRows) -> GammaResult:
    alpha, depth = g.alpha, g.depth
    if isinstance(alpha, RationalAlpha):
        return GammaResult(lower=Fraction(0), upper=Fraction(0),
                           argmin_candidates=(depth,), certified=True,
                           depth_used=depth)
    if isinstance(alpha, PrefixAlpha) and depth < 1:
        raise DomainError("prefix too short for any quality row beyond n=0")
    tail_bound = _tail_lower(alpha, g.tau, g.table, depth, None, g.precision)
    return _reduce_rows(g.rows, tail_bound, g.precision, depth)


def _parity_brackets(g: _GammaRows) -> tuple[GammaResult, GammaResult]:
    results = []
    for parity in (0, 1):
        sub = [r for r in g.rows if r.n % 2 == parity]
        if not sub:
            results.append(GammaResult(Fraction(0), Fraction(0), (), False, g.depth))
            continue
        if isinstance(g.alpha, RationalAlpha):
            # finite expansion: no deeper rows exist, any nonnegative bound works
            results.append(_reduce_rows(sub, Real.from_exact(sub[0].enclosure.hi),
                                        g.precision, g.depth))
            continue
        tail_bound = _tail_lower(g.alpha, g.tau, g.table, g.depth, parity, g.precision)
        results.append(_reduce_rows(sub, tail_bound, g.precision, g.depth))
    return results[0], results[1]


def gamma_of(alpha: AlphaSpec, tau: Fraction, depth: int,
             precision: int = DEFAULT_PRECISION) -> GammaResult:
    """Bracket of inf_n gamma_n(alpha, tau) from rows 0..depth plus a proven
    deep-row bound where one is available (quadratic cycles; bounded-tail
    prefixes computed to their full length)."""
    return _bracket(_gamma_rows(alpha, tau, depth, precision))


def gamma_parity(alpha: AlphaSpec, tau: Fraction, depth: int,
                 precision: int = DEFAULT_PRECISION) -> tuple[GammaResult, GammaResult]:
    """(even-index bracket, odd-index bracket) of the quality infima."""
    return _parity_brackets(_gamma_rows(alpha, tau, depth, precision))


def _gamma_report(alpha: AlphaSpec, tau: Fraction, depth: int,
                 precision: int = DEFAULT_PRECISION
                 ) -> tuple[GammaResult, GammaResult, GammaResult, list[QualityRow]]:
    """(gamma_of, even bracket, odd bracket, rows 0..depth_used) from one
    build of the rows; each row equals gamma_n at its index."""
    g = _gamma_rows(alpha, tau, depth, precision)
    res = _bracket(g)
    even, odd = _parity_brackets(g)
    return res, even, odd, g.rows


# ---------------------------------------------------------------------------
# Brute force oracle
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
    from .arith import _floor_quad_int
    return _floor_quad_int(2 * x + z, 2 * y, 2 * z, d)


def _weighted_lt(d1: Fraction, q1: int, d2: Fraction, q2: int, tau: Fraction) -> bool:
    """Exact comparison d1*q1^tau < d2*q2^tau for nonnegative rational d."""
    if d1 == 0:
        return d2 != 0
    if d2 == 0:
        return False
    k, m = tau.denominator, tau.numerator
    return d1 ** k * Fraction(q1) ** m < d2 ** k * Fraction(q2) ** m


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


def brute_force_gamma(alpha: AlphaSpec, tau: Fraction, qmax: int,
                      precision: int = DEFAULT_PRECISION
                      ) -> tuple[RealEnclosure, int]:
    """Direct minimum of q^tau * ||q*alpha|| over q = 1..qmax, computed
    without convergents.  Returns (enclosure of the minimum, argmin q)."""
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
            if best is None or _weighted_lt(dist, q, best, best_q, tau):
                best, best_q = dist, q
            if best == 0:
                break
        value = Real.power(Fraction(best_q), tau) * best
        return value.enclose(precision), best_q
    # interval path (prefix alphas, fractional tau on quadratics)
    a_enc = alpha_real(alpha).enclose(precision)
    if a_enc.lo is None or a_enc.hi is None:
        raise DomainError("alpha enclosure must be bounded for brute force")
    best_hi: Optional[Fraction] = None
    per_q: list[tuple[Fraction, Fraction]] = []
    for q in range(1, qmax + 1):
        dmin, dmax = _dist_interval(q * a_enc.lo, q * a_enc.hi)
        pw = Real.power(Fraction(q), tau).enclose(precision)
        vlo, vhi = pw.lo * dmin, pw.hi * dmax
        per_q.append((vlo, vhi))
        if best_hi is None or vhi < best_hi:
            best_hi = vhi
    best_lo = min(v[0] for v in per_q)
    argmin = next(q for q, v in enumerate(per_q, start=1) if v[0] <= best_hi)
    return RealEnclosure(best_lo, best_hi, precision), argmin


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _check_unit_interval(alpha: AlphaSpec) -> None:
    r = alpha_real(alpha)
    if r.exact is not None:
        x = r.exact
        in_range = exact_cmp(x, Fraction(0)) > 0 and exact_cmp(x, Fraction(1)) < 0
    else:
        enc = r.enclose(128)
        in_range = enc.lo is not None and enc.hi is not None and \
            enc.lo > 0 and enc.hi < 1
    if not in_range:
        raise DomainError("alpha must lie in the open unit interval")


def membership(alpha: AlphaSpec, gamma: Fraction, tau: Fraction,
               depth_budget: int = 40, precision: int = DEFAULT_PRECISION
               ) -> MembershipVerdict:
    """Certified membership of alpha in the set {||q*alpha|| >= gamma/q^tau}.

    Out-witnesses are reported at the first violating convergent, which is
    sufficient because the infimum of q^tau*||q*alpha|| is realized along
    convergent denominators.
    """
    gamma, tau = Fraction(gamma), Fraction(tau)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if tau < 1:
        raise DomainError("tau must be >= 1")
    _check_unit_interval(alpha)
    if isinstance(alpha, RationalAlpha):
        qs = _rational_quotients(alpha.value)
        table = convergents(qs)
        n = len(qs) - 1
        return MembershipVerdict(kind="out", witness_q=table.denom(n),
                                 witness_p=table.numer(n), budget_spent=n,
                                 lower=Fraction(0), upper=Fraction(0))
    depth = _depth_used(alpha, depth_budget)
    table, rows = _rows_to(alpha, tau, depth, precision)
    for r in rows:
        if r.exact is not None:
            below = exact_cmp(r.exact, gamma) < 0
        else:
            below = r.enclosure.hi < gamma
        if below:
            return MembershipVerdict(kind="out", witness_q=r.q, witness_p=r.p,
                                     budget_spent=r.n)
    tail_bound = _tail_lower(alpha, tau, table, depth, None, precision)
    result = _reduce_rows(rows, tail_bound, precision, depth)
    if result.certified and result.lower >= gamma:
        return MembershipVerdict(kind="in", certified=True, budget_spent=depth,
                                 lower=result.lower, upper=result.upper)
    return MembershipVerdict(kind="unknown", budget_spent=depth,
                             lower=result.lower, upper=result.upper)


# ---------------------------------------------------------------------------
# Diophantine exponent bracket
# ---------------------------------------------------------------------------

def tau_bounds(alpha: AlphaSpec, depth: int) -> tuple[Fraction, Optional[Fraction]]:
    """Bracket on the Diophantine exponent from observed q_{n+1} vs q_n^t growth.

    Bounded partial quotients (quadratics, bounded-tail prefixes) give the
    exact (1, 1).  Unbounded prefixes return the largest observed exponent as
    a rational lower estimate and an unbounded upper end (None = infinity).
    """
    if depth < 2:
        raise DomainError("depth must be >= 2")
    if isinstance(alpha, RationalAlpha):
        raise DomainError("rational numbers have no Diophantine exponent "
                          "(the quality infimum vanishes for every tau)")
    if isinstance(alpha, QuadraticAlpha):
        return Fraction(1), Fraction(1)
    if alpha.tail_high is not None:
        return Fraction(1), Fraction(1)
    quotients = _quotients_to(alpha, depth)
    table = convergents(quotients)
    best = Fraction(1)
    resolution = 16
    for n in range(1, len(quotients) - 1):
        qn, qn1 = table.denom(n), table.denom(n + 1)
        if qn < 2:
            continue
        # largest u/resolution with qn^u <= qn1^resolution
        hi_pow = qn1 ** resolution
        u = 0
        step = 1 << 12
        while step:
            while qn ** (u + step) <= hi_pow:
                u += step
            step //= 2
        best = max(best, Fraction(u, resolution))
    return best, None
