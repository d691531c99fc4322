"""Quality functionals of a real number against the approximation rate gamma/q^tau.

The n-th quality row is q_n^tau * |q_n*alpha - p_n| over the convergents
p_n/q_n of alpha; its infimum over n (equivalently over all positive q) is
the largest gamma for which alpha satisfies ||q*alpha|| >= gamma/q^tau for
every q.  Every row is computed along two independent routes — the direct
distance definition and the tail identity q_n^tau/(alpha_{n+1} q_n + q_{n-1})
— and the reported enclosure is their intersection.  For a quadratic at
integer tau both routes are built on the integer states of its expansion and
compared by one integer identity (``_surd_row``).

The rows of one request are built once and reduced by one rule, which the
membership verdicts and isolation diagnostics read too: a bracket of their
infimum is certified by a proven lower end on every deeper row, and a finite
expansion, which has no deeper rows, takes its rows' own lower end.  Only
the rows whose enclosure reaches the least upper end are compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional

from .arith import (
    DEFAULT_PRECISION,
    DomainError,
    ExactValue,
    InternalConsistencyError,
    Quad,
    Real,
    RealEnclosure,
    _floor_quad_int,
    _surd_sign,
    enclose,
    integer_form,
    power_bounds,
)
from .contfrac import (
    AlphaSpec,
    ConvergentTable,
    InsufficientDataError,
    convergents,
    tail_real,
)


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

def _row(alpha: AlphaSpec, tau: Fraction, table: ConvergentTable, n: int,
         precision: int) -> QualityRow:
    qn, pn = table.denom(n), table.numer(n)
    here = alpha.tail_state(0) if tau.denominator == 1 else None
    if here is not None:
        exact = _surd_row(here, alpha.tail_state(n + 1), qn, pn, table.denom(n - 1),
                          tau.numerator)
        return QualityRow(n=n, q=qn, p=pn, enclosure=enclose(exact, precision), exact=exact)
    # both routes take q_n^tau from one power, so both are exact or both are Reals
    pow_tau = Real.power(Fraction(qn), tau)
    direct = pow_tau * abs(alpha.real() * qn - pn)
    enc = enclose(direct, precision)
    if alpha.length is None or n + 1 < alpha.length:  # no tail after a finite end
        fond = pow_tau / (tail_real(alpha, n + 1) * qn + table.denom(n - 1))
        enc = enc & enclose(fond, precision)
        if not isinstance(direct, Real) and direct != fond:
            raise InternalConsistencyError(
                f"quality routes disagree at n={n}: {direct!r} vs {fond!r}")
    exact = None if isinstance(direct, Real) else direct
    return QualityRow(n=n, q=qn, p=pn, enclosure=enc, exact=exact)


def _surd_row(here: tuple[int, int, int], after: tuple[int, int, int], q: int, p: int,
              q_prev: int, k: int) -> Quad:
    """Row q^k*|q*alpha - p| for alpha = (P0 + sqrt(D))/Q0 and its tail alpha_{n+1}
    = (P1 + sqrt(D))/Q1: directly q^k*s*(u + q*sqrt(D))/Q0 (u = q*P0 - p*Q0, s the
    sign of q*alpha - p), and by the tail q^k*Q1*(X - q*sqrt(D))/(X^2 - q^2*D)
    (X = q*P1 + Q1*q_prev).  They are equal exactly when X = -u and
    s*(X^2 - q^2*D) = -Q0*Q1."""
    (p0, q0, d), (p1, q1, _d) = here, after
    u, x = q * p0 - p * q0, q * p1 + q1 * q_prev
    s = _surd_sign(u, q, d) * (1 if q0 > 0 else -1)
    if x != -u or s * (x * x - q * q * d) != -q0 * q1:
        raise InternalConsistencyError(
            f"quality routes disagree at q={q}: u={u}, X={x}, Q0={q0}, Q1={q1}")
    c = s * q ** k
    return Quad(Fraction(c * u, q0), Fraction(c * q, q0), d)


def gamma_n(alpha: AlphaSpec, tau: Fraction, n: int, precision: int = DEFAULT_PRECISION
            ) -> QualityRow:
    """Quality row n, intersected across both computation routes."""
    tau = Fraction(tau)
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if n < 0:
        raise DomainError("row index must be >= 0")
    return _row(alpha, tau, _table_to(alpha, n), n, precision)


def _table_to(alpha: AlphaSpec, depth: int) -> ConvergentTable:
    """Convergents 0..depth; an error when the expansion ends sooner."""
    quotients = alpha.quotients_to(depth + 1)
    if len(quotients) <= depth:
        raise DomainError(f"expansion provides no convergent {depth}")
    return convergents(quotients)


@dataclass(frozen=True)
class _GammaRows:
    """Rows 0..depth of one (alpha, tau) request, built once on first use, and
    the one reduction of them that every reader uses.  A bracket is certified
    by a lower end on every deeper row; a finite expansion has no deeper rows,
    so the rows' own lower end serves and its brackets are certified."""

    alpha: AlphaSpec
    tau: Fraction
    depth: int
    precision: int

    @cached_property
    def table(self) -> ConvergentTable:
        return _table_to(self.alpha, self.depth)

    @cached_property
    def rows(self) -> list[QualityRow]:
        return [_row(self.alpha, self.tau, self.table, n, self.precision)
                for n in range(len(self.table))]

    def _of(self, parity: Optional[int]) -> list[QualityRow]:
        return [r for r in self.rows if parity is None or r.n % 2 == parity]

    def minimum(self, parity: Optional[int] = None
                ) -> tuple[Optional[ExactValue], Fraction, Fraction, tuple[int, ...]]:
        """(exact value, lower end, upper end, candidates) of the least row of
        that parity (of any when None).  Unless some row is inexact, the value
        is exact and the candidates are the rows equal to it."""
        rows = self._of(parity)
        upper = min(r.enclosure.hi for r in rows)
        # a row whose lower end lies above the least upper end is above the least row
        near = [r for r in rows if r.enclosure.lo <= upper]
        if any(r.exact is None for r in rows):
            return None, min(r.enclosure.lo for r in near), upper, tuple(r.n for r in near)
        vmin = min(r.exact for r in near)
        enc = enclose(vmin, self.precision)
        return vmin, enc.lo, enc.hi, tuple(r.n for r in near if r.exact == vmin)

    def tail_floor(self, parity: Optional[int] = None) -> Optional[ExactValue]:
        """A lower end on every row deeper than depth (of that parity), exact
        where it can be; None when no such bound is provable."""
        if self.alpha.terminates:
            return self.minimum(parity)[1]
        floor = self.alpha.deep_row_floor(self.table, self.depth, parity)
        if floor is None:
            return None
        c, q = floor
        bound = Real.power(Fraction(q), self.tau - 1) * c
        return bound.enclose(self.precision).lo if isinstance(bound, Real) else bound

    def bracket(self, parity: Optional[int] = None) -> GammaResult:
        """Bracket of the infimum of the rows of that parity (of every row
        when None), over the computed rows and the deeper ones."""
        if not self._of(parity):
            return GammaResult(Fraction(0), Fraction(0), (), False, self.depth)
        _vmin, lo, hi, argmin = self.minimum(parity)
        floor = self.tail_floor(parity)
        floor_lo = None if floor is None else enclose(floor, self.precision).lo
        certified = floor_lo is not None and floor_lo >= 0
        lower = max(min(lo, floor_lo), Fraction(0)) if certified else Fraction(0)
        return GammaResult(lower, hi, argmin, certified, self.depth)

    def attained(self) -> Optional[tuple[ExactValue, tuple[int, ...]]]:
        """(the exact least row, the rows equal to it) when no deeper row can
        fall below it, so that it is the infimum of every row; else None."""
        vmin, _lo, _hi, hits = self.minimum()
        floor = None if vmin is None else self.tail_floor()
        if floor is None or vmin > floor:
            return None
        return vmin, hits


def _gamma_rows(alpha: AlphaSpec, tau: Fraction, depth: int, precision: int) -> _GammaRows:
    tau = Fraction(tau)
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if depth < 1:
        raise DomainError("depth must be >= 1")
    return _GammaRows(alpha, tau, alpha.depth_used(depth), precision)


# ---------------------------------------------------------------------------
# gamma_of and friends
# ---------------------------------------------------------------------------

def gamma_of(alpha: AlphaSpec, tau: Fraction, depth: int,
             precision: int = DEFAULT_PRECISION) -> GammaResult:
    """Bracket of inf_n gamma_n(alpha, tau) from rows 0..depth plus a proven
    deep-row bound where one is available (quadratic cycles; bounded-tail
    prefixes computed to their full length)."""
    return _gamma_report(alpha, tau, depth, precision)[0]


def gamma_parity(alpha: AlphaSpec, tau: Fraction, depth: int,
                 precision: int = DEFAULT_PRECISION) -> tuple[GammaResult, GammaResult]:
    """(even-index bracket, odd-index bracket) of the quality infima."""
    g = _gamma_rows(alpha, tau, depth, precision)
    return g.bracket(0), g.bracket(1)


def _gamma_report(alpha: AlphaSpec, tau: Fraction, depth: int,
                 precision: int = DEFAULT_PRECISION
                 ) -> tuple[GammaResult, GammaResult, GammaResult, list[QualityRow]]:
    """(gamma_of, even bracket, odd bracket, rows 0..depth_used) from one
    build of the rows; each row equals gamma_n at its index."""
    g = _gamma_rows(alpha, tau, depth, precision)
    if g.depth < 1 and not alpha.terminates:
        raise DomainError("prefix too short for any quality row beyond n=0")
    return g.bracket(), g.bracket(0), g.bracket(1), g.rows


# ---------------------------------------------------------------------------
# Brute force oracle
# ---------------------------------------------------------------------------

class _Scan:
    """q = 1..qmax on integers over alpha's enclosure [lo, hi]: q*lo lies r/den
    above an integer and q*hi lies r_hi/den above it, den their common
    denominator.  Iterating yields (q, r, r_hi) for each q the one pruning
    rule keeps: a scan holds lim = floor(den * its best upper end), and q is
    skipped when q^floor(tau) * min(r, den - r_hi) > lim, as then q^tau *
    ||q*x|| is above the best for every x in [lo, hi]."""

    def __init__(self, enc: RealEnclosure, tau: Fraction, qmax: int):
        self.den = den = math.lcm(enc.lo.denominator, enc.hi.denominator)
        self.a = enc.lo.numerator * (den // enc.lo.denominator)
        self.w = enc.hi.numerator * (den // enc.hi.denominator) - self.a
        self.k, self.qmax = tau.numerator // tau.denominator, qmax
        self.lim = den  # above the bound of q = 1, which is at most den/2

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        # q^k <= power_bounds(q, tau, bits)[0] for every bits, so a skipped q is
        # above the best (test_power_bounds_lower_end_is_at_least_the_floor_power)
        den, a, w, k = self.den, self.a, self.w, self.k
        for q in range(1, self.qmax + 1):
            r = q * a % den
            r_hi = r + q * w
            # an integer between q*lo and q*hi makes the bound <= 0
            if q ** k * min(r, den - r_hi) <= self.lim:
                yield q, r, r_hi


def _distance_range(r: int, r_hi: int, den: int) -> tuple[Fraction, Fraction]:
    """Least and greatest distance to the nearest integer over [r/den,
    r_hi/den], for 0 <= r < den and r <= r_hi."""
    if r_hi - r >= den:
        return Fraction(0), Fraction(1, 2)
    dmin = Fraction(max(min(r, den - r_hi), 0), den)
    # the half-integers that r_hi < 2*den leaves are 1/2 and 3/2
    if 2 * r <= den <= 2 * r_hi or 3 * den <= 2 * r_hi:
        return dmin, Fraction(1, 2)
    h = r_hi % den
    return dmin, Fraction(max(min(r, den - r), min(h, den - h)), den)


def _exact_scan(v: ExactValue, tau: Fraction, scan: _Scan, precision: int
                ) -> tuple[RealEnclosure, int]:
    """The scan of v = (x + y*sqrt(d))/z at integer tau, or of a rational (y = 0,
    d unused) at any tau = f/e: a row is held as z^e * (q^tau * ||q*v||)^e in
    v's field (e = 1 unless y = 0), so rows compare exactly, as in weighted_cmp."""
    x, y, z, d = integer_form(v)
    f, e = tau.numerator, tau.denominator
    best: Optional[tuple[int, int]] = None
    best_q = best_m = 0
    for q, _r, _r_hi in scan:
        m = _floor_quad_int(2 * q * x + z, 2 * q * y, 2 * z, d)  # nearest integer to q*v
        num, sb = q * x - m * z, q * y  # z * (q*v - m) = num + sb*sqrt(d)
        if _surd_sign(num, sb, d) < 0:
            num, sb = -num, -sb
        qf = q ** f
        row = (num ** e * qf, sb * qf)
        if best is not None and _surd_sign(row[0] - best[0], row[1] - best[1], d) >= 0:
            continue
        best, best_q, best_m = row, q, m
        pw = power_bounds(q, tau, precision)[1]
        scan.lim = _floor_quad_int(pw.numerator * num * scan.den, pw.numerator * sb * scan.den,
                                   pw.denominator * z, d)
        if row == (0, 0):
            break
    value = Real.power(Fraction(best_q), tau) * abs(v * best_q - best_m)
    return enclose(value, precision), best_q


def brute_force_gamma(alpha: AlphaSpec, tau: Fraction, qmax: int,
                      precision: int = DEFAULT_PRECISION
                      ) -> tuple[RealEnclosure, int]:
    """Direct minimum of q^tau * ||q*alpha|| over q = 1..qmax, computed
    without convergents.  Returns (enclosure of the minimum, argmin q).

    An exact alpha at integer tau, and a rational at any tau, is scanned
    exactly; any other alpha (a prefix, a quadratic at fractional tau) is
    scanned over its enclosure at `precision`.  Both scans visit every q and
    skip its full evaluation only where the pruning rule of `_Scan` proves
    that q cannot change the result."""
    tau = Fraction(tau)
    if tau < 1:
        raise DomainError("tau must be >= 1")
    if qmax < 1:
        raise DomainError("Qmax must be >= 1")
    real = alpha.real()
    scan = _Scan(enclose(real, precision), tau, qmax)
    if not isinstance(real, Real) and (tau.denominator == 1 or isinstance(real, Fraction)):
        return _exact_scan(real, tau, scan, precision)
    best_hi: Optional[Fraction] = None
    per_q: list[tuple[int, Fraction]] = []  # (q, lower end of its value)
    for q, r, r_hi in scan:
        dmin, dmax = _distance_range(r, r_hi, scan.den)
        pw_lo, pw_hi = power_bounds(q, tau, precision)
        vlo, vhi = pw_lo * dmin, pw_hi * dmax
        per_q.append((q, vlo))
        if best_hi is None or vhi < best_hi:
            best_hi, scan.lim = vhi, math.floor(vhi * scan.den)
    best_lo = min(vlo for _q, vlo in per_q)
    argmin = next(q for q, vlo in per_q if vlo <= best_hi)
    return RealEnclosure(best_lo, best_hi, precision), argmin


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def _check_unit_interval(alpha: AlphaSpec) -> None:
    r = alpha.real()
    if isinstance(r, Real):
        r = r.enclose(128)
        in_range = r.lo > 0 and r.hi < 1
    else:
        in_range = 0 < r < 1
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
    return _membership(alpha, gamma, tau, depth_budget, precision)[0]


def _membership(alpha: AlphaSpec, gamma: Fraction, tau: Fraction,
                depth_budget: int, precision: int
                ) -> tuple[MembershipVerdict, _GammaRows]:
    """The membership verdict and the rows it reads (built on first use)."""
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if depth_budget < 1:
        raise DomainError("depth budget must be >= 1")
    g = _gamma_rows(alpha, tau, depth_budget, precision)
    _check_unit_interval(alpha)
    depth = g.depth
    if alpha.terminates:
        return MembershipVerdict(kind="out", witness_q=g.table.denom(depth),
                                 witness_p=g.table.numer(depth), budget_spent=depth,
                                 lower=Fraction(0), upper=Fraction(0)), g
    for r in g.rows:
        # the exact test only where the enclosure holds gamma
        if r.enclosure.hi < gamma or (r.exact is not None and r.enclosure.lo < gamma
                                      and r.exact < gamma):
            return MembershipVerdict(kind="out", witness_q=r.q, witness_p=r.p,
                                     budget_spent=r.n), g
    result = g.bracket()
    if result.certified and result.lower >= gamma:
        return MembershipVerdict(kind="in", certified=True, budget_spent=depth,
                                 lower=result.lower, upper=result.upper), g
    return MembershipVerdict(kind="unknown", budget_spent=depth,
                             lower=result.lower, upper=result.upper), g


# ---------------------------------------------------------------------------
# Isolation diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolationReport:
    """Exact tie structure of the quality rows at the level of their infimum.

    cross_parity_ties lists pairs (n, m) of opposite parity whose rows both
    attain the infimum exactly; attained_minima lists attaining rows when no
    cross-parity tie exists; boundary_flags lists rows whose distance to the
    convergent equals gamma/q_n^(tau+1) exactly.  Ties are only reported when
    provable from exact representations.
    """

    member: Optional[bool]
    at_min_level: Optional[bool]
    cross_parity_ties: tuple[tuple[int, int], ...]
    attained_minima: tuple[int, ...]
    boundary_flags: tuple[int, ...]
    unresolved: tuple[int, ...]


def detect_isolation(alpha: AlphaSpec, gamma: Fraction, tau: Fraction,
                     depth: int = 40, precision: int = DEFAULT_PRECISION
                     ) -> IsolationReport:
    gamma = Fraction(gamma)
    verdict, g = _membership(alpha, gamma, tau, depth, precision)
    member = True if verdict.is_in else (False if verdict.is_out else None)
    rows = g.rows

    boundary = tuple(r.n for r in rows if r.exact == gamma)

    least = g.attained()
    if least is None:
        return IsolationReport(member, None, (), (), boundary, g.minimum()[3])

    vmin, hits = least
    evens = [n for n in hits if n % 2 == 0]
    odds = [n for n in hits if n % 2 == 1]
    ties = tuple((n, m) for n in evens for m in odds)
    attained = hits if not ties else ()
    at_min = vmin == gamma
    return IsolationReport(member, at_min, ties, attained, boundary, ())


# ---------------------------------------------------------------------------
# Diophantine exponent bracket
# ---------------------------------------------------------------------------

def tau_bounds(alpha: AlphaSpec, depth: int) -> tuple[Fraction, Optional[Fraction]]:
    """Bracket on the Diophantine exponent from observed q_{n+1} vs q_n^t growth.

    Bounded partial quotients (quadratics, bounded-tail prefixes) give the
    exact (1, 1).  Unbounded prefixes, whose tail past the end is undefined,
    return the largest observed exponent as a rational lower estimate and an
    unbounded upper end (None = infinity).
    """
    if depth < 2:
        raise DomainError("depth must be >= 2")
    if alpha.terminates:
        raise DomainError("rational numbers have no Diophantine exponent "
                          "(the quality infimum vanishes for every tau)")
    # an infinite exact expansion is periodic; a prefix has bounded quotients
    # when it bounds its tails, so that its tail past the end is defined
    try:
        if alpha.length is not None:
            alpha.tail(alpha.length)
        return Fraction(1), Fraction(1)
    except InsufficientDataError:
        pass
    quotients = alpha.quotients_to(depth + 1)
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
