"""Gap conditions between same-parity convergent exclusion intervals and the
per-window census of surviving measure.

The basic gap condition at index n asks whether the exclusion intervals
around p_n/q_n and p_{n+2}/q_{n+2} are disjoint; the strengthened variant
demands an extra 2*gamma/q_{n+2}^(tau-1) of clearance on the q_{n+2} side.
Each is one inequality, gamma * clearance < 1 - q_n/q_{n+2}, decided exactly
for integer tau, and equivalent to a threshold on the partial quotient a_{n+2}.
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
    Value,
    cmp_certified,
    enclose,
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


# ---------------------------------------------------------------------------
# Gap conditions
# ---------------------------------------------------------------------------

def clearance(q: int, p: int, s: int, tau: Fraction, strict: bool) -> Value:
    """p/q^tau + q*p/s^(tau+1), plus 2*q*p/s^(tau-1) when strict, for
    (q, p, s) playing (q_n, q_{n+1}, q_{n+2}); exact for integer tau.

    The window between p_n/q_n and p_{n+2}/q_{n+2} has width
    a_{n+2}/(q_n*q_{n+2}) = (1 - q/s)/(q*p), so the gap holds exactly when
    gamma * clearance < 1 - q/s.  The verdict, the threshold on a_{n+2}
    (whose bracket is 1/gamma minus it) and the ends of a gamma band
    ((1 - q/s) over it) all read this one inequality.
    """
    c = p / Real.power(Fraction(q), tau) + q * p / Real.power(Fraction(s), tau + 1)
    if strict:
        c = c + 2 * q * p / Real.power(Fraction(s), tau - 1)
    return c


def _gap(triple: tuple[int, int, int], gamma: Fraction, tau: Fraction, strict: bool,
         precision: int, threshold: bool) -> tuple[str, Optional[RealEnclosure]]:
    """Verdict of gamma * clearance < 1 - q_n/q_{n+2} for the denominators
    (q_n, q_{n+1}, q_{n+2}) and, when `threshold` is set and
    1/gamma - clearance is proven positive, the enclosure of the T with: the
    gap holds if and only if a_{n+2} > T."""
    q_n, q_n1, q_n2 = triple
    gamma, tau = Fraction(gamma), Fraction(tau)
    if min(triple) < 1:
        raise DomainError("denominators must be positive")
    if gamma <= 0:
        raise DomainError("gamma must be positive")
    if tau < 1:
        raise DomainError("tau must be >= 1")
    c = clearance(q_n, q_n1, q_n2, tau, strict)
    sign = cmp_certified(c * gamma, 1 - Fraction(q_n, q_n2), precision)
    verdict = UNRESOLVED if sign is None else (HOLDS if sign < 0 else FAILS)
    if not threshold:
        return verdict, None
    bracket = 1 / gamma - c
    if cmp_certified(bracket, Fraction(0), precision) != 1:
        return verdict, None
    ratio = Fraction(q_n, q_n1)
    return verdict, enclose(ratio / gamma / bracket - ratio, precision)


def _triple(table: ConvergentTable, n: int) -> tuple[int, int, int]:
    return table.denom(n), table.denom(n + 1), table.denom(n + 2)


def check_gap(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
              precision: int = PRECISION_CAP) -> str:
    """Do the exclusion intervals at n and n+2 stay disjoint?"""
    return _gap(_triple(_table_to(alpha, n + 2), n), gamma, tau, False, precision, False)[0]


def check_gap_strict(alpha: AlphaSpec, gamma: Fraction, tau: Fraction, n: int,
                     precision: int = PRECISION_CAP) -> str:
    """Gap condition with the extra 2*gamma/q_{n+2}^(tau-1) clearance."""
    return _gap(_triple(_table_to(alpha, n + 2), n), gamma, tau, True, precision, False)[0]


def _threshold(triple: tuple[int, int, int], gamma: Fraction, tau: Fraction,
               strict: bool, precision: int) -> RealEnclosure:
    t = _gap(triple, gamma, tau, strict, precision, True)[1]
    if t is None:
        raise DomainError("threshold undefined: clearance bracket is not provably "
                          "positive (outside the membership regime)")
    return t


def gap_threshold(q_n: int, q_n1: int, q_n2: int, gamma: Fraction, tau: Fraction,
                  precision: int = DEFAULT_PRECISION) -> RealEnclosure:
    """Threshold T with: gap holds at n if and only if a_{n+2} > T
    (given the positive-clearance precondition).  Exact for integer tau."""
    return _threshold((q_n, q_n1, q_n2), gamma, tau, False, precision)


def gap_threshold_strict(q_n: int, q_n1: int, q_n2: int, gamma: Fraction,
                         tau: Fraction, precision: int = DEFAULT_PRECISION
                         ) -> RealEnclosure:
    """Threshold for the strengthened gap condition."""
    return _threshold((q_n, q_n1, q_n2), gamma, tau, True, precision)


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
    gap, thr = _gap(_triple(table, n), gamma, tau, False, precision, True)
    gap_s, thr_s = _gap(_triple(table, n), gamma, tau, True, precision, True)
    return GapReport(n=n, a_actual=table.a(n + 2), gap=gap, gap_strict=gap_s,
                     threshold=thr, threshold_strict=thr_s)


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
    if n < 0:
        raise DomainError(f"window index n must be >= 0, got {n}")
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
        if _gap(_triple(table, n), gamma, tau, False, precision, False)[0] != FAILS:
            continue
        bound = Real.power(Fraction(table.denom(n)), 2 + eps) * c
        enc = enclose(bound, precision)
        sign = cmp_certified(Fraction(table.a(n + 2)), bound, precision)
        ok = UNRESOLVED if sign is None else (HOLDS if sign <= 0 else FAILS)
        rows.append((n, table.a(n + 2), enc, ok))
    return rows
