"""The integer-keyed window sieve and the measure by denominator, checked
against the Fraction sieve, the linear measure and the clipped census loop
kept in tests/oracles.py, and against the defining inequality."""

import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dioph.arith import DomainError, format_rat, parse_rat
from dioph.contfrac import PrefixAlpha, convergents
from dioph import dioset
from dioph.dioset import (
    IntervalSet,
    exclusion_radius,
    set_bracket,
    sieve_window,
    truncated_set,
)
from dioph.topology import census
from tests.oracles import (
    clipped_excluded_measure,
    direct_member,
    farey_sequence,
    linear_measure,
    open_union_complement,
    open_union_complement_pairs,
    truncated_set_pairs,
)

gammas = st.builds(F, st.integers(1, 60), st.integers(2, 400))
integer_taus = st.integers(1, 5).map(F)
fractional_taus = st.builds(F, st.integers(7, 25), st.sampled_from([2, 3, 4])).filter(
    lambda t: t.denominator != 1)
taus = st.one_of(integer_taus, fractional_taus)
# points of [-1/2, 3/2] on a grid fine enough to fall between Farey fractions
points = st.builds(F, st.integers(-500, 1500), st.just(1000))


def outer_radii(gamma, tau, qmax):
    """The radii the census sieves with, rounded up, one per q <= qmax."""
    return [exclusion_radius(q, gamma, tau, "outer", 256) for q in range(1, qmax + 1)]


@settings(max_examples=60)
@given(gamma=gammas, tau=taus, qmax=st.integers(1, 60))
def test_sieve_matches_fraction_sieve(gamma, tau, qmax):
    s = truncated_set(gamma, tau, qmax)
    assert s.intervals == truncated_set_pairs(gamma, tau, qmax)
    assert s.measure == linear_measure(s.intervals)


@settings(max_examples=60)
@given(gamma=gammas, tau=taus, qmax=st.integers(1, 60), a=points, b=points)
def test_window_sieve_matches_clipped_loop(gamma, tau, qmax, a, b):
    lo, hi = min(a, b), max(a, b)
    s = sieve_window(outer_radii(gamma, tau, qmax), lo, hi)
    excluded = clipped_excluded_measure(lo, hi, gamma, tau, qmax)
    assert (hi - lo) - s.measure == excluded
    assert s.measure == linear_measure(s.intervals)
    # the same complement from the Fraction merge over every interval
    centers = [(p, q) for q in range(1, qmax + 1)
               for p in range(math.floor(q * lo) - 1, math.ceil(q * hi) + 2)
               if math.gcd(p, q) == 1]
    radii = {q: exclusion_radius(q, gamma, tau, "outer") for q in range(1, qmax + 1)}
    pairs = [(F(p, q) - radii[q], F(p, q) + radii[q]) for p, q in centers]
    assert s.intervals == open_union_complement_pairs(pairs, (lo, hi))


@settings(max_examples=25)
@given(quotients=st.lists(st.integers(1, 6), min_size=3, max_size=5),
       n=st.integers(0, 1), gamma=gammas, tau=taus.filter(lambda t: t > 1),
       extra=st.integers(0, 30))
def test_census_matches_clipped_loop(quotients, n, gamma, tau, extra):
    alpha = PrefixAlpha((0, *quotients))
    table = convergents((0, *quotients))
    qmax = table.denom(n + 2) + extra
    rec = census(alpha, gamma, tau, n, qmax)
    lo, hi = rec.window
    assert rec.complement_measure_in_window == \
        clipped_excluded_measure(lo, hi, gamma, tau, qmax)


@pytest.mark.parametrize("tau", [F(1), F(7, 2)])
def test_huge_gamma_enumerates_only_the_centers_next_to_the_window(monkeypatch, tau):
    # every radius reaches far past the window, yet per q only the centers
    # from the last one at or below it to the first one at or above it count
    counts = []
    merge = dioset._open_complement
    monkeypatch.setattr(dioset, "_open_complement",
                        lambda items, *rest: counts.append(len(items)) or merge(items, *rest))
    gamma, qmax, lo, hi = F(10**9), 5, F(2, 7), F(5, 17)
    assert truncated_set(gamma, tau, qmax).intervals == truncated_set_pairs(gamma, tau, qmax)
    assert sieve_window(outer_radii(gamma, tau, qmax), lo, hi).is_empty
    near = [(p, q) for q in range(1, qmax + 1)
            for p in range(math.floor(q * lo), math.ceil(q * hi) + 1) if math.gcd(p, q) == 1]
    assert counts == [len(list(farey_sequence(qmax))), len(near)]


@settings(max_examples=30)
@given(gamma=gammas, tau=integer_taus, qmax=st.integers(1, 40),
       xs=st.lists(st.builds(F, st.integers(0, 997), st.just(997)), max_size=20))
def test_membership_matches_the_definition(gamma, tau, qmax, xs):
    s = truncated_set(gamma, tau, qmax)
    boundary = [F(p, q) + sign * exclusion_radius(q, gamma, tau, "outer")
                for q in range(1, qmax + 1) for p in range(q + 1)
                if math.gcd(p, q) == 1 for sign in (-1, 1)]
    for x in xs + [x for x in boundary if 0 <= x <= 1]:
        assert (x in s) == direct_member(x, gamma, tau, qmax), x


@settings(max_examples=20)
@given(gamma=gammas, tau=st.one_of(st.integers(3, 5).map(F),
                                   fractional_taus.filter(lambda t: t > 2)),
       qmax=st.integers(1, 30), more=st.integers(1, 30))
def test_set_bracket_is_sound(gamma, tau, qmax, more):
    br = set_bracket(gamma, tau, qmax)
    deeper = truncated_set(gamma, tau, qmax + more)
    assert deeper.subset_of(br.outer)
    # the exact set lies inside every deeper truncated set
    assert br.outer.measure - br.tail_measure_bound <= deeper.measure
    # radii rounded up leave less than the exact truncated set at qmax
    rounded_up = sieve_window(outer_radii(gamma, tau, qmax), F(0), F(1))
    assert br.outer.measure - rounded_up.measure <= br.tail_measure_bound


@settings(max_examples=40)
@given(gamma=gammas, tau=taus, qmax=st.integers(1, 40), a=points, b=points)
def test_interval_set_algebra_keeps_the_measure(gamma, tau, qmax, a, b):
    s = truncated_set(gamma, tau, qmax)
    lo, hi = min(a, b), max(a, b)
    inside = s.restrict((lo, hi))
    outside = s.complement_within(lo, hi)
    assert inside.measure + outside.measure == hi - lo
    for t in (inside, outside, s.reflect(), s.complement_within(F(0), F(1))):
        assert t.measure == linear_measure(t.intervals)
    assert s.measure + s.complement_within(F(0), F(1)).measure == 1


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(-4, 16), st.integers(0, 6), st.integers(1, 4)),
                max_size=12),
       st.integers(-2, 6), st.integers(0, 12))
def test_open_union_complement_matches_fraction_merge(raw, d_lo, d_len):
    # small denominators make touching and nested intervals common
    excluded = [(F(a, 4 * d), F(a + w, 4 * d)) for a, w, d in raw]
    domain = (F(d_lo, 4), F(d_lo + d_len, 4))
    got = open_union_complement(excluded, domain)
    assert got.intervals == open_union_complement_pairs(excluded, domain)


def test_measure_sums_by_denominator_exactly():
    s = IntervalSet(((F(0), F(1, 3**11000)), (F(1, 2), F(1, 2) + F(1, 7**6000))))
    assert s.measure == F(1, 3**11000) + F(1, 7**6000)
    assert s.measure == linear_measure(s.intervals)
    assert IntervalSet(()).measure == 0


def test_large_measure_formats_and_round_trips():
    m = IntervalSet(((F(0), F(1, 3**11000)), (F(1, 2), F(1, 2) + F(1, 7**6000)))).measure
    assert m.denominator > 10**5000
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = format_rat(m)
        assert parse_rat(text) == m
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("tau", [F(4), F(7, 2)])
def test_exclusion_radius_rejects_a_misspelt_rounding(tau):
    with pytest.raises(DomainError):
        exclusion_radius(3, F(1, 10), tau, "bogus")


def test_complement_within_joins_the_gaps_around_an_isolated_point():
    # gamma = 1/2 at Q = 1 leaves the single point 1/2
    s = truncated_set(F(1, 2), F(1), 1)
    assert s.intervals == ((F(1, 2), F(1, 2)),)
    assert s.complement_within(F(0), F(1)).intervals == ((F(0), F(1)),)
