import random
from fractions import Fraction as F

import pytest

from dioph.arith import DomainError, Quad
from dioph.bands import (
    bands_union_measure,
    bands_union_tail,
    critical_tau,
    exponents,
    gamma_band,
    pinch_band,
    power_approx_margin,
    series_exponents,
)


def test_series_exponents_values():
    assert series_exponents(F(4)) == (F(3), F(21))
    assert series_exponents(F(3)) == (F(-1), F(9))
    band, pinch = series_exponents(F(7, 2))
    assert band == F(3, 4)


def test_series_exponent_critical_tau_exact():
    ct = critical_tau()
    band, pinch = series_exponents(ct)
    assert band == F(1)
    assert isinstance(pinch, Quad)  # 2*tau^2-2*tau-3 stays irrational there


def test_exponents_report_flags():
    r = exponents(F(4))
    assert (r.band_converges, r.pinch_converges) == (True, True)
    r = exponents(F(3))
    assert (r.band_converges, r.pinch_converges) == (False, True)
    r = exponents(critical_tau())
    assert r.band_converges is False  # boundary: exponent exactly 1
    assert r.partial_sums == ()


def test_partial_sums_monotone_and_divergent_trend():
    r = exponents(F(7, 2), checkpoints=[100, 1000, 10000])
    sums = r.partial_sums
    assert [m for m, _, _ in sums] == [100, 1000, 10000]
    assert sums[0][1] < sums[1][1] < sums[2][1]
    # exponent 3/4 < 1: no saturation across decades
    assert sums[1][1] / sums[0][1] > F(3, 2)
    assert sums[2][1] / sums[1][1] > F(3, 2)
    # enclosures stay tight
    for _, lo, hi in sums:
        assert hi - lo < F(1, 10**6) * hi


def test_partial_sums_converging_exponent_saturates():
    r = exponents(F(4), checkpoints=[100, 1000])
    s1, s2 = r.partial_sums
    assert s2[1] - s1[1] < F(1, 10**4)


def test_gamma_band_exact_instance():
    b = gamma_band(2, 16, 1, F(4))
    s = 18
    one = 1 - F(2, s)
    base = F(16, 16) + F(2 * 16, s**5)
    extra = F(2 * 2 * 16, s**3)
    assert b.lo.lo == one / (base + extra)
    assert b.hi.hi == one / base
    assert b.lo.hi < b.hi.lo  # strictly ordered


def test_gamma_band_width_bound_and_limit():
    rng = random.Random(5)
    for _ in range(50):
        q = rng.randint(1, 20)
        p = rng.randint(1, 400)
        n = rng.randint(1, 50)
        b = gamma_band(q, p, n, F(4))
        assert b.hi.hi - b.lo.lo <= b.width_bound
    # N -> infinity: both endpoints approach q^tau/p
    b = gamma_band(2, 16, 10**6, F(4))
    target = F(16, 16)
    assert abs(b.hi.hi - target) < F(1, 10**5)
    assert abs(b.lo.lo - target) < F(1, 10**5)


def test_gamma_band_regime_width_inequality():
    # inside the regime q^tau/C2 < p < q^tau/C1 the width obeys
    # 2*q*C2^2 / (N^(tau-1) * p^(tau-2))
    q, tau, c2 = 2, 4, F(9, 20)
    for p in (40, 100, 200):
        assert F(q**tau) / c2 < p
        for n in (1, 2, 5):
            b = gamma_band(q, p, n, F(tau))
            rhs = 2 * q * c2**2 / (F(n) ** (tau - 1) * F(p) ** (tau - 2))
            assert b.hi.hi - b.lo.lo < rhs


def test_pinch_band_variants_and_width():
    lo, hi, wb = pinch_band(2, 16, 1, F(4), F(1))
    assert hi.hi - lo.lo >= 0
    assert wb == F(1, 2**27)
    assert hi.lo == F(16) / (16 + F(1, 2))
    lo_q, hi_q, _ = pinch_band(2, 16, 1, F(4), F(1), variant="q")
    assert hi_q.lo == F(16) / (2 + F(1, 2))
    with pytest.raises(DomainError):
        pinch_band(2, 16, 0, F(4), F(1))


@pytest.mark.parametrize("tau", [F(1), F(1, 2), F(0)])
def test_pinch_band_rejects_tau_at_most_one(tau):
    # below tau = 1 the exponent 2*tau^2 - tau - 1 is negative, and the band
    # would sit at negative gamma; tau = 1 is rejected as gamma_band does
    with pytest.raises(DomainError, match="^tau must exceed 1$"):
        pinch_band(2, 3, 4, tau, F(1))
    with pytest.raises(DomainError, match="^tau must exceed 1$"):
        gamma_band(2, 3, 4, tau)


def test_pinch_band_width_shrinks_in_q():
    widths = []
    for q in (2, 3, 5, 8):
        lo, hi, wb = pinch_band(q, q**4 * 3, 1, F(4), F(1))
        widths.append(wb)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_bands_union_measure_monotone():
    kwargs = dict(tau=F(4), c1=F(1, 20), c2=F(9, 20))
    bounds = [bands_union_measure(m=m, q_max=30, **kwargs) for m in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    assert all(b > 0 for b in bounds)
    # non-decreasing in q_max
    assert bands_union_measure(m=2, q_max=60, **kwargs) >= bounds[0]


def test_bands_union_qmax_stability_below_tail():
    kwargs = dict(tau=F(4), c1=F(1, 20), c2=F(9, 20))
    u30 = bands_union_measure(m=2, q_max=30, **kwargs)
    u60 = bands_union_measure(m=2, q_max=60, **kwargs)
    tail = bands_union_tail(F(4), F(1, 20), F(9, 20), 30)
    assert u60 - u30 <= tail


def test_bands_union_validation():
    with pytest.raises(DomainError):
        bands_union_measure(F(4), F(9, 20), F(1, 20), 2, 30)
    with pytest.raises(DomainError):
        bands_union_measure(F(2), F(1, 20), F(9, 20), 2, 30)
    with pytest.raises(DomainError):
        bands_union_tail(F(3), F(1, 20), F(9, 20), 30)  # divergent series


def test_power_approx_margin_exact_hits():
    # 1/gamma = 3 is hit exactly at q = 1, p = 3: the margin is zero
    enc, arg = power_approx_margin(F(1, 3), F(4), F(11, 2), 50)
    assert enc.lo == enc.hi == 0
    assert arg == (1, 3)
    # reciprocal hit: gamma = 5/16, 1/gamma = 2000/5^4 at q = 5
    enc, arg = power_approx_margin(F(5, 16), F(4), F(11, 2), 50)
    assert enc.lo == 0 and arg == (5, 2000)


def test_power_approx_margin_positive_case():
    enc, arg = power_approx_margin(F(53, 120), F(4), F(11, 2), 50)
    assert enc.lo > 0
    assert arg[0] >= 1


def test_power_approx_margin_monotone_in_qmax():
    prev = None
    for qmax in (10, 20, 40, 80):
        enc, _ = power_approx_margin(F(53, 120), F(4), F(11, 2), qmax)
        if prev is not None:
            assert enc.hi <= prev.hi or enc.lo <= prev.hi
        prev = enc


def test_power_approx_margin_against_double_loop():
    gamma, tau, k, qmax = F(53, 120), F(2), F(4), 50
    enc, arg = power_approx_margin(gamma, tau, k, qmax)
    inv = 1 / gamma
    best = None
    best_arg = None
    for q in range(1, qmax + 1):
        for p in range(0, int(inv * q**2) + 2):
            v = abs(inv - F(p, q**2)) * F(q) ** 4
            if best is None or v < best:
                best, best_arg = v, (q, p)
    assert enc.lo == best == enc.hi  # integer k: exact value
    assert arg == best_arg


def test_power_approx_margin_validation():
    with pytest.raises(DomainError):
        power_approx_margin(F(2, 3), F(4), F(11, 2), 10)  # gamma >= 1/2
    with pytest.raises(DomainError):
        power_approx_margin(F(1, 3), F(4), F(4), 10)  # k <= tau + 1
