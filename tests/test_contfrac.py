from fractions import Fraction as F

import pytest

from dioph.arith import DomainError, surd
from dioph.contfrac import (
    InsufficientDataError,
    PrefixAlpha,
    QuadraticAlpha,
    RationalAlpha,
    UndefinedTailError,
    _quad_cycle,
    alpha_real,
    cf_cycle,
    cf_expand,
    convergents,
    format_alpha,
    one_minus,
    parse_alpha,
    quadratic_from_periodic,
    tail,
    value_of,
)
from tests.conftest import random_quadratic

GOLDEN = QuadraticAlpha(-1, 5, 2)   # (sqrt5 - 1)/2
SQRT2 = QuadraticAlpha(0, 2, 1)
SQRT2_UNIT = QuadraticAlpha(-1, 2, 1)  # sqrt(2) - 1 = [0; 2, 2, ...]


def test_cf_expand_rational():
    assert cf_expand(RationalAlpha(F(7, 10)), 10) == [0, 1, 2, 3]
    assert cf_expand(RationalAlpha(F(1, 2)), 5) == [0, 2]
    assert cf_expand(RationalAlpha(F(5)), 3) == [5]
    with pytest.raises(DomainError):
        cf_expand(RationalAlpha(F(1, 2)), 0)


def test_rational_expansion_unique_convention(rng):
    # last quotient >= 2 whenever the expansion has more than one term
    for _ in range(200):
        den = rng.randint(2, 5000)
        num = rng.randint(1, den)
        qs = cf_expand(RationalAlpha(F(num, den)), 100)
        if len(qs) > 1:
            assert qs[-1] >= 2


def test_cf_expand_quadratic():
    assert cf_expand(GOLDEN, 6) == [0, 1, 1, 1, 1, 1]
    assert cf_expand(SQRT2, 5) == [1, 2, 2, 2, 2]
    assert cf_cycle(GOLDEN) == (1, 1)
    assert cf_cycle(SQRT2) == (1, 1)
    # sqrt(7) = [2; 1,1,1,4 repeating]
    assert cf_expand(QuadraticAlpha(0, 7, 1), 9) == [2, 1, 1, 1, 4, 1, 1, 1, 4]


def test_cf_expand_prefix_errors_beyond_data():
    a = PrefixAlpha((0, 2, 2))
    assert cf_expand(a, 3) == [0, 2, 2]
    with pytest.raises(InsufficientDataError):
        cf_expand(a, 4)


def test_convergents_recurrence_and_determinant(rng):
    for _ in range(100):
        qs = [rng.randint(0, 5)] + [rng.randint(1, 9) for _ in range(rng.randint(1, 12))]
        t = convergents(qs)
        for n in range(len(qs)):
            assert t.numer(n) == qs[n] * t.numer(n - 1) + t.numer(n - 2)
            assert t.denom(n) == qs[n] * t.denom(n - 1) + t.denom(n - 2)
            det = t.numer(n) * t.denom(n - 1) - t.numer(n - 1) * t.denom(n)
            assert det == (-1) ** (n - 1)
        dens = [t.denom(n) for n in range(len(qs))]
        assert all(b > a or (a, b) == (1, 1) for a, b in zip(dens, dens[1:]))


def test_convergents_examples():
    t = convergents([0, 1, 1, 1, 1, 1])
    assert [t.denom(n) for n in range(6)] == [1, 1, 2, 3, 5, 8]
    t = convergents([7])
    assert (t.numer(0), t.denom(0)) == (7, 1)
    assert convergents([0, 1, 2, 3]).fraction(3) == F(7, 10)
    with pytest.raises(DomainError):
        convergents([])


def test_value_of_round_trip(rng):
    assert value_of([0, 1, 2, 3]) == F(7, 10)
    assert value_of([5]) == F(5)
    assert value_of([0, 2]) == F(1, 2)
    for _ in range(200):
        den = rng.randint(1, 2000)
        num = rng.randint(1, den)
        x = F(num, den)
        assert value_of(cf_expand(RationalAlpha(x), 1000)) == x


def test_tails_quadratic_exact():
    t = tail(GOLDEN, 1, 64)
    assert t.exact == surd(F(1, 2), F(1, 2), 5)  # golden ratio
    t = tail(SQRT2, 1, 64)
    assert t.exact == surd(F(1), F(1), 2)  # 1 + sqrt(2)
    pre, per = cf_cycle(QuadraticAlpha(0, 7, 1))
    for n in range(pre, pre + 6):
        assert tail(QuadraticAlpha(0, 7, 1), n, 32).exact == \
            tail(QuadraticAlpha(0, 7, 1), n + per, 32).exact


def test_tail_prefix_bounds():
    a = PrefixAlpha((0, 2, 2))
    t = tail(a, 3, 64)
    assert t.enclosure.lo == F(1) and t.enclosure.hi is None
    b = PrefixAlpha((0, 2, 2), tail_low=F(1), tail_high=F(3))
    t = tail(b, 5, 64)
    assert (t.enclosure.lo, t.enclosure.hi) == (F(1), F(3))
    # within the prefix the tail interval comes from the bounded mobius image
    t1 = tail(b, 1, 64)
    assert F(2) < t1.enclosure.lo <= t1.enclosure.hi < F(3)


def test_tail_rational_errors():
    a = RationalAlpha(F(7, 10))
    assert tail(a, 3, 32).exact == F(3)
    with pytest.raises(UndefinedTailError):
        tail(a, 4, 32)


def test_best_approximation_sandwich(rng):
    for _ in range(20):
        alpha = random_quadratic(rng)
        v = alpha.value()
        qs = cf_expand(alpha, 12)
        t = convergents(qs)
        for n in range(1, 11):
            qn, qn1 = t.denom(n), t.denom(n + 1)
            err = abs(v - t.fraction(n))
            assert F(1, qn * (qn1 + qn)) < err
            assert err < F(1, qn * qn1)


def test_parse_format_alpha():
    for text in ("rat:7/10", "quad:-1,5,2", "cf:[0;1,2,3]", "cf:[3]"):
        assert format_alpha(parse_alpha(text)) == text
    assert parse_alpha("rat:0.25") == RationalAlpha(F(1, 4))
    for bad in ("x:1", "quad:1,2", "cf:[0;1,]", "cf:0;1", "rat:a"):
        with pytest.raises(DomainError):
            parse_alpha(bad)
    with pytest.raises(DomainError):
        QuadraticAlpha(1, 9, 2)  # square radicand
    with pytest.raises(DomainError):
        QuadraticAlpha(1, 5, 0)
    with pytest.raises(DomainError):
        PrefixAlpha((0, 0, 2))


def test_quadratic_from_periodic_matches_expansion(rng):
    for _ in range(40):
        prefix = [0] + [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        cycle = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        alpha = quadratic_from_periodic(prefix, cycle)
        want = prefix + cycle * 4
        got = cf_expand(alpha, len(want))
        # the expansion matches up to the usual tail ambiguity at the seam;
        # compare the resulting convergent values instead of raw quotients
        assert got[:len(prefix)] == prefix or value_of(got) == value_of(want)
        assert got == want


def test_one_minus_quadratic_and_prefix():
    g1 = one_minus(GOLDEN)
    assert alpha_real(g1).exact + alpha_real(GOLDEN).exact == 1
    assert cf_expand(g1, 7) == [0, 2, 1, 1, 1, 1, 1]
    a = PrefixAlpha((0, 2, 3, 4))
    b = one_minus(a)
    assert b.quotients == (0, 1, 1, 3, 4)
    c = one_minus(PrefixAlpha((0, 1, 5, 2)))
    assert c.quotients == (0, 6, 2)
    # reflection shifts the denominator sequence by one index (swapping the
    # parity classes): here alpha = [0;1,...] so q_n(1-alpha) = q_{n+1}(alpha)
    ta = convergents(cf_expand(GOLDEN, 10))
    tb = convergents(cf_expand(g1, 9))
    for n in range(1, 9):
        assert tb.denom(n) == ta.denom(n + 1)
    # and for a leading quotient >= 2 the shift goes the other way
    s2 = one_minus(SQRT2_UNIT)
    ts = convergents(cf_expand(SQRT2_UNIT, 9))
    t2 = convergents(cf_expand(s2, 10))
    for n in range(1, 9):
        assert t2.denom(n + 1) == ts.denom(n)


def test_alpha_real_prefix_interval():
    a = PrefixAlpha((0, 2, 2))
    enc = alpha_real(a).enclose(64)
    assert (enc.lo, enc.hi) == (F(2, 5), F(3, 7))


def test_tail_and_value_match_surd_routing(rng):
    # the field is reduced once per alpha; every tail must still be the Quad
    # surd() builds from the normalised radicand D
    for _ in range(60):
        alpha = random_quadratic(rng)
        assert alpha.value() == surd(F(alpha.p, alpha.q), F(1, alpha.q), alpha.d)
        _start, _period, _quotients, states, d = _quad_cycle(alpha.p, alpha.d, alpha.q)
        for n, (pp, qq) in enumerate(states[:12]):
            assert tail(alpha, n, 64).exact == surd(F(pp, qq), F(1, qq), d)


def test_quad_cycle_cache_is_bounded():
    maxsize = _quad_cycle.cache_info().maxsize
    assert maxsize is not None and maxsize <= 256
