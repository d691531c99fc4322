"""`arith.power_bounds`, the one rounded power, against an mpmath oracle.

mpmath is a test-only dependency: it evaluates base**exponent in binary
floating point at four times the working precision, independently of the
integer-root construction in ``Real.power``.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dioph.arith import DomainError, power_bounds
from dioph.bands import bands_union_tail
from dioph.dioset import exclusion_radius

mpmath = pytest.importorskip("mpmath")

bases = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6))
integer_exponents = st.integers(-12, 12).map(F)
fractional_exponents = st.builds(F, st.integers(-60, 60), st.integers(2, 12)).filter(
    lambda e: e.denominator != 1)
exponents = st.one_of(integer_exponents, fractional_exponents)
precisions = st.sampled_from([16, 64, 256])


def _oracle(base: F, exponent: F, bits: int):
    with mpmath.workprec(4 * bits):
        return mpmath.power(mpmath.mpf(base.numerator) / base.denominator,
                            mpmath.mpf(exponent.numerator) / exponent.denominator)


@given(bases, exponents, precisions)
def test_power_bounds_enclose_the_power(base, exponent, bits):
    lo, hi = power_bounds(base, exponent, bits)
    assert isinstance(lo, F) and isinstance(hi, F)
    if exponent.denominator == 1:
        assert lo == hi == base ** exponent
        return
    v = _oracle(base, exponent, bits)
    with mpmath.workprec(4 * bits):
        # lo and hi are dyadic with about bits+4 significant bits: exact here
        assert mpmath.mpf(lo.numerator) / lo.denominator <= v
        assert v <= mpmath.mpf(hi.numerator) / hi.denominator
    assert 0 < lo <= hi
    assert hi - lo <= hi / 2 ** (bits - 1)


@given(st.integers(1, 10**5), exponents.filter(lambda e: e >= 1),
       st.sampled_from([1, 8, 64, 256]))
def test_power_bounds_lower_end_is_at_least_the_floor_power(q, tau, bits):
    # the lemma under the brute-force scan's pruning rule: q^floor(tau) <= q^tau
    # holds for the rounded-down end too, at every precision
    assert power_bounds(q, tau, bits)[0] >= q ** (tau.numerator // tau.denominator)


@given(st.integers(1, 500), bases.filter(lambda g: g < 1),
       st.one_of(st.integers(1, 8).map(F),
                 st.builds(F, st.integers(2, 60), st.integers(2, 9))
                 .filter(lambda t: t >= 1)))
def test_inner_radius_never_exceeds_outer(q, gamma, tau):
    inner = exclusion_radius(q, gamma, tau, "inner")
    outer = exclusion_radius(q, gamma, tau, "outer")
    assert inner <= outer
    if tau.denominator == 1:  # equal too when q^(tau+1) happens to be rational, as 4^(3/2)
        assert inner == outer == gamma / q ** (tau + 1)
    with pytest.raises(DomainError):  # "exact" is no rounding, at any tau
        exclusion_radius(q, gamma, tau, "exact")


@pytest.mark.parametrize("base", [F(0), F(-1, 2), -3])
@pytest.mark.parametrize("exponent", [F(2), F(3, 2)])
def test_power_bounds_reject_a_nonpositive_base(base, exponent):
    with pytest.raises(DomainError):
        power_bounds(base, exponent, 64)


def test_band_tail_rejects_a_nonpositive_c2():
    # (2*c2)^(tau-1) is a power of a nonpositive base: no bound exists
    for c2 in (F(0), F(-1, 4)):
        with pytest.raises(DomainError):
            bands_union_tail(F(5), F(1, 20), c2, 30)
