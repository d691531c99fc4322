from fractions import Fraction as F

import pytest

from dioph.arith import DomainError
from dioph.dioset import (
    IntervalSet,
    exclusion_radius,
    fractions_in_interval,
    set_bracket,
    truncated_set,
)
from tests.conftest import random_rational
from tests.oracles import (
    direct_member,
    excluded_interval,
    farey_sequence,
    fractions_in_interval_bruteforce,
    fractions_in_interval_walk,
    open_union_complement,
)


def test_excluded_interval_examples():
    assert excluded_interval(0, 1, F(1, 10), F(4)) == (F(-1, 10), F(1, 10))
    assert excluded_interval(1, 2, F(1, 10), F(4)) == \
        (F(1, 2) - F(1, 320), F(1, 2) + F(1, 320))
    # mirror symmetry about 1/2
    lo, hi = excluded_interval(2, 7, F(1, 10), F(4))
    lo2, hi2 = excluded_interval(5, 7, F(1, 10), F(4))
    assert (lo2, hi2) == (1 - hi, 1 - lo)
    with pytest.raises(DomainError):
        excluded_interval(2, 4, F(1, 10), F(4))  # not reduced
    with pytest.raises(DomainError):
        excluded_interval(1, 2, F(0), F(4))


def test_truncated_set_small_exact():
    s1 = truncated_set(F(1, 10), F(4), 1)
    assert s1.intervals == ((F(1, 10), F(9, 10)),)
    assert s1.measure == F(4, 5)
    s2 = truncated_set(F(1, 10), F(4), 2)
    assert s2.intervals == ((F(1, 10), F(159, 320)), (F(161, 320), F(9, 10)))
    assert s2.measure == F(127, 160)
    assert truncated_set(F(1, 2), F(4), 3).is_empty
    assert truncated_set(F(3, 5), F(4), 3).is_empty


def test_truncated_set_nesting_and_symmetry():
    prev = None
    for q in (1, 2, 3, 5, 8, 13):
        s = truncated_set(F(1, 10), F(4), q)
        assert s.reflect() == s
        if prev is not None:
            assert s.subset_of(prev)
        prev = s
    a = truncated_set(F(1, 20), F(4), 10)
    b = truncated_set(F(1, 10), F(4), 10)
    c = truncated_set(F(1, 5), F(4), 10)
    assert c.subset_of(b) and b.subset_of(a)


def test_point_set_agreement(rng):
    gamma, tau, qmax = F(1, 10), F(4), 30
    s = truncated_set(gamma, tau, qmax)
    for _ in range(400):
        x = random_rational(rng, 3000)
        assert (x in s) == direct_member(x, gamma, tau, qmax)


def test_endpoints_have_exclusion_form():
    gamma, tau, qmax = F(1, 10), F(4), 12
    s = truncated_set(gamma, tau, qmax)
    radii = {q: exclusion_radius(q, gamma, tau, "outer") for q in range(1, qmax + 1)}
    endpoints = {e for iv in s.intervals for e in iv}
    centers = {(p, q) for p, q in farey_sequence(qmax)}
    for e in endpoints:
        assert any(
            e == F(p, q) + r or e == F(p, q) - r
            for (p, q) in centers
            for r in (radii[q],)
        )


def test_rationals_are_excluded():
    gamma, tau, qmax = F(1, 10), F(4), 15
    s = truncated_set(gamma, tau, qmax)
    for p, q in farey_sequence(qmax):
        assert F(p, q) not in s


def test_measure_complement_sums_to_one():
    for gamma in (F(1, 10), F(1, 5)):
        s = truncated_set(gamma, F(4), 8)
        comp = s.complement_within(F(0), F(1))
        assert s.measure + comp.measure == 1


def test_restrict_examples():
    s = truncated_set(F(1, 10), F(4), 5)
    assert s.restrict((F(0), F(1))) == s
    assert s.restrict((F(1, 2), F(1, 4))).is_empty
    halved = s.restrict((F(0), F(1, 2)))
    assert halved.measure == s.measure / 2  # reflection symmetry about 1/2


def test_touching_exclusions_leave_a_point():
    comp = open_union_complement([(F(0), F(1, 2)), (F(1, 2), F(1))])
    assert comp.intervals == ((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(1)))
    assert comp.measure == 0
    # overlap swallows the interior point
    comp2 = open_union_complement([(F(0), F(1, 2)), (F(1, 3), F(1))])
    assert comp2.intervals == ((F(0), F(0)), (F(1), F(1)))
    # an interval covering the domain edge removes it
    comp3 = open_union_complement([(F(-1, 2), F(1, 4)), (F(3, 4), F(2))])
    assert comp3.intervals == ((F(1, 4), F(3, 4)),)


def test_set_bracket_bounds():
    br = set_bracket(F(1, 10), F(4), 10)
    assert 0 < br.tail_measure_bound < F(1, 1000)
    assert br.outer == truncated_set(F(1, 10), F(4), 10)
    assert set_bracket(F(1, 10), F(4), 20).tail_measure_bound < br.tail_measure_bound
    # certified positive lower bound on the true set measure
    assert br.outer.measure - br.tail_measure_bound > 0
    with pytest.raises(DomainError):
        set_bracket(F(1, 10), F(2), 10)


def test_fractional_tau_outer_superset(rng):
    gamma, qmax = F(1, 10), 12
    outer = truncated_set(gamma, F(7, 2), qmax)
    # every point passing the exact defining inequality lies in the outer set
    for _ in range(300):
        x = random_rational(rng, 500)
        ok = all(
            _dist(x, q) ** 2 * q**7 >= gamma**2
            for q in range(1, qmax + 1)
        )
        if ok:
            assert x in outer
        if x not in outer:
            assert not ok


def _dist(x: F, q: int) -> F:
    r = (x.numerator * q) % x.denominator
    return F(min(r, x.denominator - r), x.denominator)


def test_fractional_tau_bracket_accounts_rounding():
    br = set_bracket(F(1, 10), F(7, 2), 10)
    assert br.tail_measure_bound > 0
    assert br.outer.measure - br.tail_measure_bound > 0


def test_farey_sequence_small():
    assert list(farey_sequence(5)) == [
        (0, 1), (1, 5), (1, 4), (1, 3), (2, 5), (1, 2),
        (3, 5), (2, 3), (3, 4), (4, 5), (1, 1),
    ]
    assert len(list(farey_sequence(200))) == 12233


def test_fractions_in_interval_matches_bruteforce(rng):
    # two references: the scan over every denominator and the Farey walk
    cases = []
    for _ in range(400):
        lo = F(rng.randint(0, 300), 301)
        hi = lo + F(rng.randint(0, 200), 507)
        cases.append((lo, hi, rng.randint(1, 35), rng.random() < 0.5, rng.random() < 0.5))
    # half of them moved below 0 or across it
    cases += [(lo - rng.randint(1, 2), hi - 1, min(n, 25), il, ih)
              for lo, hi, n, il, ih in cases[:200]]
    flags = [(il, ih) for il in (False, True) for ih in (False, True)]
    cases += [(F(1, 3), F(2, 3), 0, il, ih) for il, ih in flags]      # max_den 0
    cases += [(F(2, 3), F(1, 3), 9, il, ih) for il, ih in flags]      # hi < lo
    cases += [(x, x, n, il, ih) for il, ih in flags                   # lo == hi
              for x in (F(0), F(2, 5), F(1), F(3, 2), F(1, 7)) for n in (1, 5, 7)]
    for lo, hi, n, il, ih in cases:
        got = list(fractions_in_interval(lo, hi, n, il, ih))
        assert got == fractions_in_interval_bruteforce(lo, hi, n, il, ih), (lo, hi, n, il, ih)
        if lo >= 0:  # the walk enumerates from 0 upward
            assert got == list(fractions_in_interval_walk(lo, hi, n, il, ih)), (lo, hi, n, il, ih)
    assert list(fractions_in_interval(F(2, 5), F(2, 5), 5, True, True)) == [(2, 5)]


def test_interval_set_json_round_trip():
    s = truncated_set(F(1, 10), F(4), 7)
    assert IntervalSet.from_obj(s.to_obj()) == s


def test_interval_set_rejects_inverted_overlapping_and_touching_intervals():
    big = 10**40
    for bad in [
        ((F(1, 2), F(1, 3)),),  # inverted
        ((F(0), F(1, 2)), (F(1, 3), F(1))),  # overlapping
        ((F(0), F(1, 2)), (F(1, 2), F(1))),  # touching
        ((F(1, 2), F(1)), (F(0), F(1, 4))),  # out of order
        ((F(0), F(1, 2) + F(1, big)), (F(1, 2), F(1))),  # overlapping by 1/10^40
        ((F(-1), F(-1, 2)), (F(-2, 3), F(0))),  # overlapping below 0
    ]:
        with pytest.raises(DomainError):
            IntervalSet(bad)
    point = IntervalSet(((F(1, 3), F(1, 3)),))
    assert F(1, 3) in point and point.measure == 0
    near = IntervalSet(((F(-1), F(-1, 2)), (F(0), F(1, 2) - F(1, big)), (F(1, 2), F(1))))
    assert near.measure == F(3, 2) - F(1, big)
