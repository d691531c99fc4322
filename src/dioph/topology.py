"""Gap conditions between same-parity convergent exclusion intervals and the
per-window census of surviving measure.

The basic gap condition at index n asks whether the exclusion intervals
around p_n/q_n and p_{n+2}/q_{n+2} are disjoint; the strengthened variant
demands an extra 2*gamma/q_{n+2}^(tau-1) of clearance on the q_{n+2} side.
Both are equivalent to an explicit threshold on the partial quotient a_{n+2},
which the exact integer path checks with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import (
    DEFAULT_PRECISION,
    PRECISION_CAP,
    DomainError,
    Real,
    RealEnclosure,
    cmp_certified,
    format_rat,
    power_bounds,
    power_sum_tail,
)
from .contfrac import AlphaSpec, ConvergentTable
from .dioset import exclusion_radius, fractions_in_interval, sieve_window
from .quality import _table_to

HOLDS = "holds"
FAILS = "fails"
UNRESOLVED = "unresolved"


def _radius_real(q: int, gamma: Fraction, tau: Fraction, shift: int = 1) -> Real:
    """gamma / q^(tau+shift) as a certified real (exact for integer tau)."""
    return Real.from_exact(gamma) / Real.power(Fraction(q), tau + shift)


# ---------------------------------------------------------------------------
# Gap conditions
# ---------------------------------------------------------------------------

def _gap_verdict(table: ConvergentTable, n: int, gamma: Fraction, tau: Fraction,
                 strict: bool, precision: int) -> str:
    """Compare the window width |p_{n+2}/q_{n+2} - p_n/q_n| with the
    clearance the exclusion intervals at n and n+2 need."""
    gamma, tau = Fraction(gamma), Fraction(tau)
    width = abs(table.fraction(n + 2) - table.fraction(n))
    q_n, q_n2 = table.denom(n), table.denom(n + 2)
    needed = _radius_real(q_n, gamma, tau) + _radius_real(q_n2, gamma, tau)
    if strict:
        needed = needed + _radius_real(q_n2, gamma, tau, shift=-1) * 2
    v = cmp_certified(needed, width, precision)
    if v.is_less:
        return HOLDS
    if v.is_greater or v.is_equal:
        return FAILS
    return UNRESOLVED


def check_gap(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
              precision: int = PRECISION_CAP) -> str:
    """Do the exclusion intervals at n and n+2 stay disjoint?"""
    return _gap_verdict(_table_to(alpha, n + 2), n, gamma, tau, False, precision)


def check_gap_strict(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
                     precision: int = PRECISION_CAP) -> str:
    """Gap condition with the extra 2*gamma/q_{n+2}^(tau-1) clearance."""
    return _gap_verdict(_table_to(alpha, n + 2), n, gamma, tau, True, precision)


def clearance(q: int, p: int, s: int, tau: Fraction, strict: bool) -> Real:
    """p/q^tau + q*p/s^(tau+1), plus 2*q*p/s^(tau-1) when strict, for
    (q, p, s) playing (q_n, q_{n+1}, q_{n+2}); exact for integer tau.

    1/gamma minus it is the bracket of the gap thresholds, and (1 - q/s) over
    it is an end of a gamma band.
    """
    c = (Real.from_exact(Fraction(p)) / Real.power(Fraction(q), tau)
         + Real.from_exact(Fraction(q * p)) / Real.power(Fraction(s), tau + 1))
    if strict:
        c = c + Real.from_exact(Fraction(2 * q * p)) / Real.power(Fraction(s), tau - 1)
    return c


def _threshold(q_n: int, q_n1: int, q_n2: int, gamma: Fraction, tau: Fraction,
               strict: bool, precision: int) -> RealEnclosure:
    gamma, tau = Fraction(gamma), Fraction(tau)
    if min(q_n, q_n1, q_n2) < 1:
        raise DomainError("denominators must be positive")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    bracket = Real.from_exact(1 / gamma) - clearance(q_n, q_n1, q_n2, tau, strict)
    sign = cmp_certified(bracket, Fraction(0), precision)
    if not sign.is_greater:
        raise DomainError(
            "threshold undefined: clearance bracket is not provably positive "
            "(outside the membership regime)")
    t = (Real.from_exact(Fraction(q_n, q_n1) / gamma) / bracket
         - Fraction(q_n, q_n1))
    return t.enclose(precision)


def gap_threshold(q_n: int, q_n1: int, q_n2: int, gamma: Fraction, tau: Fraction,
                  precision: int = DEFAULT_PRECISION) -> RealEnclosure:
    """Threshold T with: gap holds at n if and only if a_{n+2} > T
    (given the positive-clearance precondition).  Exact for integer tau."""
    return _threshold(q_n, q_n1, q_n2, gamma, tau, strict=False, precision=precision)


def gap_threshold_strict(q_n: int, q_n1: int, q_n2: int, gamma: Fraction,
                         tau: Fraction, precision: int = DEFAULT_PRECISION
                         ) -> RealEnclosure:
    """Threshold for the strengthened gap condition."""
    return _threshold(q_n, q_n1, q_n2, gamma, tau, strict=True, precision=precision)


@dataclass(frozen=True)
class GapReport:
    n: int
    a_actual: int
    gap: str
    gap_strict: str
    threshold: Optional[RealEnclosure]
    threshold_strict: Optional[RealEnclosure]


def gap_report(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
               precision: int = DEFAULT_PRECISION) -> GapReport:
    table = _table_to(alpha, n + 2)
    thr = thr_s = None
    try:
        thr = gap_threshold(table.denom(n), table.denom(n + 1), table.denom(n + 2),
                            gamma, tau, precision)
    except DomainError:
        pass
    try:
        thr_s = gap_threshold_strict(table.denom(n), table.denom(n + 1),
                                     table.denom(n + 2), gamma, tau, precision)
    except DomainError:
        pass
    return GapReport(
        n=n,
        a_actual=table.a(n + 2),
        gap=_gap_verdict(table, n, gamma, tau, False, precision),
        gap_strict=_gap_verdict(table, n, gamma, tau, True, precision),
        threshold=thr,
        threshold_strict=thr_s,
    )


# ---------------------------------------------------------------------------
# Window census
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusRecord:
    n: int
    window: tuple[Fraction, Fraction]
    window_measure: Fraction
    complement_measure_in_window: Fraction
    tail_bound: Fraction
    verdict: bool
    c_n: Optional[Fraction]


def census(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int, qmax: int,
           precision: int = DEFAULT_PRECISION) -> CensusRecord:
    """Exact measure audit of the window between convergents n and n+2.

    The excluded measure with denominator <= qmax inside the window is its
    width minus the measure of what the window sieve leaves.  Adds an
    analytic tail bound for larger denominators, and reports whether
    surviving measure provably remains.
    """
    gamma, tau = Fraction(gamma), Fraction(tau)
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if tau <= 1:
        raise DomainError("window tail bound requires tau > 1")
    table = _table_to(alpha, n + 2)
    q_n2 = table.denom(n + 2)
    if qmax < q_n2:
        raise DomainError(f"cutoff {qmax} is below q_(n+2) = {q_n2}")
    e1, e2 = table.fraction(n), table.fraction(n + 2)
    lo, hi = (e1, e2) if e1 <= e2 else (e2, e1)
    width = hi - lo

    radii = [exclusion_radius(q, gamma, tau, "outer", precision) for q in range(1, qmax + 1)]
    excluded_measure = width - sieve_window(radii, lo, hi).measure

    u1 = power_sum_tail(tau, qmax)
    u2 = power_sum_tail(tau + 1, qmax)
    u3 = power_sum_tail(2 * tau + 1, qmax)
    tail = 2 * gamma * (width * u1 + u2) + 4 * gamma * gamma * u3

    # c_n: max of p/q + r_q over reduced lo <= p/q < hi, q < q_{n+2}; per q, the top p
    cands = []
    for q in range(1, q_n2):
        p = -(-q * hi.numerator // hi.denominator) - 1  # ceil(q*hi) - 1
        while p * lo.denominator >= q * lo.numerator and math.gcd(p, q) != 1:
            p -= 1
        if p * lo.denominator >= q * lo.numerator:
            cands.append(Fraction(p, q) + radii[q - 1])
    c_n = max(cands, default=None)

    residual = width - excluded_measure - tail
    return CensusRecord(
        n=n,
        window=(lo, hi),
        window_measure=width,
        complement_measure_in_window=excluded_measure,
        tail_bound=tail,
        verdict=residual > 0,
        c_n=c_n,
    )


def window_margin_table(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
                        max_den: Optional[int] = None,
                        precision: int = DEFAULT_PRECISION
                        ) -> list[tuple[int, int, Fraction]]:
    """Per-fraction slack of the strengthened clearance inside the window.

    For each reduced p/q strictly inside the window with q below the cutoff
    (default q_{n+2} - 1), reports how far its exclusion edge stays from the
    strengthened q_{n+2}-side edge; negative slack rows flag small-index
    exceptions.  Rounded conservatively for fractional tau.
    """
    gamma, tau = Fraction(gamma), Fraction(tau)
    table = _table_to(alpha, n + 2)
    q_n2 = table.denom(n + 2)
    cutoff = q_n2 - 1 if max_den is None else min(max_den, q_n2 - 1)
    e_near, e_far = table.fraction(n), table.fraction(n + 2)
    lo, hi = (e_near, e_far) if e_near <= e_far else (e_far, e_near)
    margin = (exclusion_radius(q_n2, gamma, tau, "outer", precision)
              + 2 * gamma / power_bounds(q_n2, tau - 1, precision)[0])
    rows = []
    for p, q in fractions_in_interval(lo, hi, cutoff):
        r = exclusion_radius(q, gamma, tau, "outer", precision)
        if e_near <= e_far:
            slack = (hi - margin) - (Fraction(p, q) + r)
        else:
            slack = (Fraction(p, q) - r) - (lo + margin)
        rows.append((p, q, slack))
    return rows


def gap_report_obj(rep: GapReport) -> dict:
    """JSON-ready form of a gap report."""
    return {
        "n": rep.n,
        "a_next": rep.a_actual,
        "gap": rep.gap,
        "gap_strict": rep.gap_strict,
        "threshold": None if rep.threshold is None else rep.threshold.to_obj(),
        "threshold_strict": (None if rep.threshold_strict is None
                             else rep.threshold_strict.to_obj()),
    }


def census_obj(rec: CensusRecord) -> dict:
    return {
        "n": rec.n,
        "window": [format_rat(rec.window[0]), format_rat(rec.window[1])],
        "window_measure": format_rat(rec.window_measure),
        "complement_measure_in_window": format_rat(rec.complement_measure_in_window),
        "tail_bound": format_rat(rec.tail_bound),
        "verdict": rec.verdict,
        "c_n": None if rec.c_n is None else format_rat(rec.c_n),
    }


def quotient_growth_table(alpha: AlphaSpec, gamma: Fraction, tau: Fraction,
                          depth: int, eps: Fraction, c: Fraction = Fraction(1),
                          precision: int = DEFAULT_PRECISION
                          ) -> list[tuple[int, int, RealEnclosure, str]]:
    """Diagnostic rows (n, a_{n+2}, c*q_n^(2+eps), verdict) at indices where
    the gap condition fails: does a_{n+2} stay below the polynomial bound?"""
    gamma, tau, eps, c = Fraction(gamma), Fraction(tau), Fraction(eps), Fraction(c)
    table = _table_to(alpha, depth)
    rows = []
    for n in range(0, len(table) - 2):
        if _gap_verdict(table, n, gamma, tau, False, precision) != FAILS:
            continue
        bound = Real.power(Fraction(table.denom(n)), 2 + eps) * c
        enc = bound.enclose(precision)
        v = cmp_certified(Fraction(table.a(n + 2)), bound, precision)
        if v.is_less or v.is_equal:
            ok = HOLDS
        elif v.is_greater:
            ok = FAILS
        else:
            ok = UNRESOLVED
        rows.append((n, table.a(n + 2), enc, ok))
    return rows
