"""Exceptional-gamma bands and the series exponents that control their total width.

A band is the interval of gamma values for which, at a triple
(q, p, N) = (q_n, q_{n+1}, a_{n+2}) with s = N*p + q playing q_{n+2}, the
plain gap condition holds while the strengthened one fails.  Summing certified
width bounds over the admissible triples gives an upper bound on the measure
of gamma values covered by any band with q in a chosen range; the sum behaves
like sum q^-(tau^2-3*tau-1), which converges exactly when tau exceeds the
positive root of tau^2-3*tau-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .arith import (
    DEFAULT_PRECISION,
    DomainError,
    Quad,
    Real,
    RealEnclosure,
    enclose,
    format_rat,
    power_bounds,
    power_sum_tail,
    surd,
    weighted_cmp,
)
from .topology import clearance

TauLike = Union[Fraction, int, Quad]


@dataclass(frozen=True)
class BandRecord:
    q: int
    p: int
    n_quot: int  # the partial quotient playing a_{n+2}
    lo: RealEnclosure
    hi: RealEnclosure
    width_bound: Fraction


@dataclass(frozen=True)
class SeriesReport:
    tau: TauLike
    band_exponent: TauLike      # tau^2 - 3*tau - 1
    pinch_exponent: TauLike     # 2*tau^2 - 2*tau - 3
    band_converges: bool
    pinch_converges: bool
    partial_sums: tuple[tuple[int, Fraction, Fraction], ...]  # (M, lo, hi)


def gamma_band(q: int, p: int, n_quot: int, tau: Fraction,
               precision: int = DEFAULT_PRECISION) -> BandRecord:
    """Band of gamma values pinned by the triple (q, p, N), s = N*p + q.

    lo = (1 - q/s) / (p/q^tau + q*p/s^(tau+1) + 2*q*p/s^(tau-1))
    hi = (1 - q/s) / (p/q^tau + q*p/s^(tau+1))

    The stored width_bound 2*q^(2*tau+1) / (p * s^(tau-1)) dominates hi - lo
    unconditionally (both denominators exceed p/q^tau).
    """
    tau = Fraction(tau)
    if min(q, p, n_quot) < 1:
        raise DomainError("q, p, N must be >= 1")
    if tau <= 1:
        raise DomainError("tau must exceed 1")
    s = n_quot * p + q
    one = 1 - Fraction(q, s)
    lo = one / clearance(q, p, s, tau, strict=True)
    hi = one / clearance(q, p, s, tau, strict=False)
    wb = 2 * Real.power(Fraction(q), 2 * tau + 1) / (p * Real.power(Fraction(s), tau - 1))
    return BandRecord(q=q, p=p, n_quot=n_quot,
                      lo=enclose(lo, precision), hi=enclose(hi, precision),
                      width_bound=enclose(wb, precision).hi)


def pinch_band(q: int, p: int, n_quot: int, tau: Fraction, c: Fraction,
               precision: int = DEFAULT_PRECISION, variant: str = "p"
               ) -> tuple[RealEnclosure, RealEnclosure, Fraction]:
    """Second band family: (center - c/q^(2*tau^2-tau-1), center] with
    center = q^tau / (p + N/q).

    variant="q" computes the literal alternative center q^tau / (q + N/q);
    the default follows the derivation, where p plays q_{n+1}.
    """
    tau = Fraction(tau)
    if min(q, p) < 1 or n_quot < 1:
        raise DomainError("q, p, N must be >= 1")
    if tau <= 1:
        raise DomainError("tau must exceed 1")
    c = Fraction(c)
    if c <= 0:
        raise DomainError(f"pinch constant c must be positive, got {format_rat(c)}")
    if variant not in ("p", "q"):
        raise DomainError("variant must be 'p' or 'q'")
    anchor = Fraction(p) if variant == "p" else Fraction(q)
    center = Real.power(Fraction(q), tau) / (anchor + Fraction(n_quot, q))
    e = 2 * tau * tau - tau - 1
    width = c / Real.power(Fraction(q), e)
    return (enclose(center - width, precision), enclose(center, precision),
            enclose(width, precision).hi)


def series_exponents(tau: TauLike) -> tuple[TauLike, TauLike]:
    """(tau^2 - 3*tau - 1, 2*tau^2 - 2*tau - 3), exact in the field of tau."""
    if isinstance(tau, int):
        tau = Fraction(tau)
    t2 = tau * tau
    band = t2 - 3 * tau - 1
    pinch = 2 * t2 - 2 * tau - 3
    return band, pinch


def exponents(tau: TauLike, checkpoints: Sequence[int] = (),
              precision: int = 64) -> SeriesReport:
    """Series report for the two controlling exponents at a given tau.

    For rational tau, optional checkpoints M >= 1 request enclosures of the
    partial sums sum_{q=2..M} q^(-band_exponent); quadratic-surd tau yields the exact
    exponents only (partial sums are omitted).
    """
    if checkpoints and min(checkpoints) < 1:
        raise DomainError(f"checkpoint must be >= 1, got {min(checkpoints)}")
    band, pinch = series_exponents(tau)
    sums: list[tuple[int, Fraction, Fraction]] = []
    if checkpoints and not isinstance(band, Quad):
        band_f = Fraction(band)
        # accumulate on a fixed dyadic grid so the exact sums stay compact
        scale = 1 << precision
        acc_lo, acc_hi = 0, 0
        prev = 1
        for m in sorted(checkpoints):
            for q in range(prev + 1, m + 1):
                lo, hi = power_bounds(q, band_f, precision)
                t_lo, t_hi = 1 / hi, 1 / lo
                acc_lo += (t_lo.numerator * scale) // t_lo.denominator
                acc_hi += -((-t_hi.numerator * scale) // t_hi.denominator)
            prev = m
            sums.append((m, Fraction(acc_lo, scale), Fraction(acc_hi, scale)))
    return SeriesReport(
        tau=tau if isinstance(tau, Quad) else Fraction(tau),
        band_exponent=band,
        pinch_exponent=pinch,
        band_converges=band > 1,
        pinch_converges=pinch > 1,
        partial_sums=tuple(sums),
    )


def critical_tau() -> Quad:
    """The threshold (3 + sqrt(17)) / 2 where the band exponent equals 1."""
    v = surd(Fraction(3, 2), Fraction(1, 2), 17)
    assert isinstance(v, Quad)
    return v


# ---------------------------------------------------------------------------
# Union measure bounds
# ---------------------------------------------------------------------------

def _n_sum_with_tail(tau: Fraction, n_max: int, precision: int) -> Fraction:
    """Upper bound for sum_{N>=1} N^-(tau-1): explicit terms to n_max plus
    the closed-form tail n_max^-(tau-2)/(tau-2), rounded outward."""
    if tau <= 2:
        raise DomainError("N-tail requires tau > 2")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    total = Fraction(0)
    for n in range(1, n_max + 1):
        total += 1 / power_bounds(n, tau - 1, precision)[0]
    return total + power_sum_tail(tau - 1, n_max, precision)


def _p_floor(q: int, tau: Fraction, c2: Fraction, precision: int) -> int:
    """floor(q^tau / c2), rounded down for fractional tau (outward for the
    p-tail bound)."""
    val = power_bounds(q, tau, precision)[0] / c2
    return val.numerator // val.denominator


def bands_union_measure(tau: Fraction, c1: Fraction, c2: Fraction, m: int,
                        q_max: int, n_max: int = 64,
                        precision: int = DEFAULT_PRECISION) -> Fraction:
    """Certified upper bound on the total width of all bands with
    q in (m, q_max], p > q^tau/c2, N >= 1.

    Per q the width is dominated by 2*q^(2*tau+1) * N^-(tau-1) * p^-tau; the
    p-sum is bounded by the integral tail from P0 = floor(q^tau/c2) (which
    also covers the finite range up to q^tau/c1), and the N-sum by explicit
    terms plus its closed-form tail.
    """
    tau, c1, c2 = Fraction(tau), Fraction(c1), Fraction(c2)
    if not (0 < c1 < c2 < Fraction(1, 2)):
        raise DomainError("need 0 < C1 < C2 < 1/2")
    if tau <= 2:
        raise DomainError("the N-tail requires tau > 2")
    if m < 1 or q_max < m:
        raise DomainError("need 1 <= M <= q_max")
    n_sum = _n_sum_with_tail(tau, n_max, precision)
    total = Fraction(0)
    for q in range(m + 1, q_max + 1):
        p0 = _p_floor(q, tau, c2, precision)
        if p0 < 1:
            raise DomainError("empty p-range; increase q or decrease C2")
        p_tail = power_sum_tail(tau, p0, precision)  # >= sum_{p > p0} p^-tau
        q_pow = power_bounds(q, 2 * tau + 1, precision)[1]
        total += 2 * q_pow * n_sum * p_tail
    return total


def bands_union_tail(tau: Fraction, c1: Fraction, c2: Fraction, q_max: int,
                     n_max: int = 64, precision: int = DEFAULT_PRECISION
                     ) -> Fraction:
    """Analytic bound on the contribution of all q > q_max to the band union
    (same per-q bound, summed by the integral tail in q).

    Requires the band exponent tau^2-3*tau-1 to exceed 1.
    """
    tau, c1, c2 = Fraction(tau), Fraction(c1), Fraction(c2)
    band_e = tau * tau - 3 * tau - 1
    if band_e <= 1:
        raise DomainError("band series diverges at this tau")
    if tau <= 2:
        raise DomainError("the N-tail requires tau > 2")
    n_sum = _n_sum_with_tail(tau, n_max, precision)
    # per-q bound: 2 * n_sum/(tau-1) * (2*c2)^(tau-1) * q^-(band exponent)
    c_pow = power_bounds(2 * c2, tau - 1, precision)[1]
    beta = 2 * n_sum * c_pow / (tau - 1)
    return beta * power_sum_tail(band_e, q_max, precision)


# ---------------------------------------------------------------------------
# Margin of 1/gamma against fractions p/q^tau
# ---------------------------------------------------------------------------

def power_approx_margin(gamma: Fraction, tau: Fraction, k: Fraction, qmax: int,
                        precision: int = DEFAULT_PRECISION
                        ) -> tuple[RealEnclosure, tuple[int, int]]:
    """min over q <= qmax of |1/gamma - p/q^tau| * q^k with the optimal p,
    i.e. the largest constant C with 1/gamma staying C/q^k away from every
    p/q^tau at denominators up to the cutoff.  Returns (enclosure, (q, p)).

    Only the integers adjacent to q^tau/gamma need checking at each q, since
    |1/gamma - p/q^tau| grows with |p - q^tau/gamma|.
    """
    gamma, tau, k = Fraction(gamma), Fraction(tau), Fraction(k)
    if not (0 < gamma < Fraction(1, 2)):
        raise DomainError("gamma must lie in (0, 1/2)")
    if k <= tau + 1:
        raise DomainError("k must exceed tau + 1")
    if qmax < 1:
        raise DomainError("Qmax must be >= 1")
    if tau.denominator != 1:
        raise DomainError("margin scan implemented for integer tau")
    t = int(tau)
    inv = 1 / gamma
    best_v: Optional[Fraction] = None
    best = (0, 0)
    for q in range(1, qmax + 1):
        target = inv * q ** t
        p_lo = target.numerator // target.denominator
        for p in (p_lo, p_lo + 1):
            if p < 0:
                continue
            v = abs(inv - Fraction(p, q ** t))
            if best_v is None or weighted_cmp(v, q, best_v, best[0], k) < 0:
                best_v, best = v, (q, p)
        if best_v == 0:
            break
    value = Real.power(Fraction(best[0]), k) * best_v
    return enclose(value, precision), best
