import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dioph.arith import (
    DomainError,
    InternalConsistencyError,
    Quad,
    Real,
    RealEnclosure,
    cmp_certified,
    enclose,
    exact_cmp,
    format_rat,
    iroot,
    parse_rat,
    power_bounds,
    power_sum_tail,
    rat_sum_tail_bound,
    surd,
)
from tests.oracles import stored_form


def test_parse_format_rat():
    assert parse_rat("-3/7") == F(-3, 7)
    assert parse_rat("0.1") == F(1, 10)
    assert parse_rat("4") == F(4)
    assert format_rat(F(-3, 7)) == "-3/7"
    assert format_rat(F(8, 2)) == "4"
    with pytest.raises(DomainError):
        parse_rat("1/0")
    with pytest.raises(DomainError):
        parse_rat("zebra")


def test_format_rat_huge_integers_round_trip():
    # exact window measures can exceed the interpreter's default int->str
    # conversion guard; serialization must still work
    x = F(3**11000 + 1, 2**17000)
    text = format_rat(x)
    assert parse_rat(text) == x


def test_iroot_exact():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(0, 10**30)
        k = rng.randint(1, 9)
        r = iroot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_pow_real_integer_exponent_exact():
    assert power_bounds(F(2), F(4), 64) == (F(16), F(16))
    assert power_bounds(F(3, 2), F(-2), 64) == (F(4, 9), F(4, 9))


def test_pow_real_half_integer_against_isqrt_oracle():
    # oracle: 2^(7/2) = 8*sqrt(2); sqrt(2) bracketed by scaled isqrt
    lo, hi = power_bounds(F(2), F(7, 2), 64)
    scale = 10**30
    s = math.isqrt(2 * scale * scale)
    lo_oracle = F(8 * s, scale)
    hi_oracle = F(8 * (s + 1), scale)
    assert lo <= hi_oracle and lo_oracle <= hi
    assert hi - lo <= F(2) ** (1 - 64) * hi


def test_pow_real_base_one_and_perfect_powers():
    assert power_bounds(F(1), F(355, 113), 64) == (F(1), F(1))
    assert power_bounds(F(4), F(1, 2), 64) == (F(2), F(2))
    assert power_bounds(F(27, 8), F(2, 3), 64) == (F(9, 4), F(9, 4))


def test_pow_real_domain_errors():
    with pytest.raises(DomainError):
        power_bounds(F(0), F(1, 2), 64)
    with pytest.raises(DomainError):
        power_bounds(F(-2), F(2), 64)


def test_enclosure_monotone_refinement():
    rng = random.Random(7)
    for _ in range(50):
        base = F(rng.randint(1, 500), rng.randint(1, 500))
        exp = F(rng.randint(-12, 12), rng.randint(1, 6))
        if base == 0:
            continue
        r = Real.power(base, exp)
        prev = enclose(r, 32)
        for bits in (64, 128, 256):
            cur = enclose(r, bits)
            assert prev.lo <= cur.lo <= cur.hi <= prev.hi
            prev = cur


def test_cmp_certified_examples():
    assert cmp_certified(Real.power(F(2), F(7, 2)), F(11), 128) == 1
    assert cmp_certified(F(3, 7), F(3, 7), 64) == 0
    assert cmp_certified(Real.power(F(2), F(1, 2)), F(3, 2), 16) == -1


def test_cmp_certified_soundness_at_higher_precision():
    rng = random.Random(3)
    for _ in range(60):
        a = Real.power(F(rng.randint(2, 50)), F(rng.randint(1, 7), rng.randint(2, 5)))
        b = Real.power(F(rng.randint(2, 50)), F(rng.randint(1, 7), rng.randint(2, 5)))
        v = cmp_certified(a, b, 256)
        if v is not None:
            ea, eb = enclose(a, 1024), enclose(b, 1024)
            if v < 0:
                assert ea.hi < eb.lo
            else:
                assert eb.hi < ea.lo


def test_cmp_certified_unresolved_on_equal_producers():
    # 2^(1/2) and 8^(1/6) are the same number through different producers:
    # enclosures can never separate them and equality is never proven
    assert cmp_certified(Real.power(F(2), F(1, 2)), Real.power(F(8), F(1, 6)), 512) is None


def test_rat_sum_tail_bound_examples():
    u = rat_sum_tail_bound(F(4), 10)
    assert F(0) < u <= F(1, 1000)
    partial = sum(F(q + 1, q**5) for q in range(11, 4000))
    assert partial <= u
    assert rat_sum_tail_bound(F(4), 20) < rat_sum_tail_bound(F(4), 10)
    assert rat_sum_tail_bound(F(4), 40) < rat_sum_tail_bound(F(4), 20)
    u3 = rat_sum_tail_bound(F(3), 1)
    assert u3 >= sum(F(q + 1, q**4) for q in range(2, 101))
    with pytest.raises(DomainError):
        rat_sum_tail_bound(F(2), 5)


def test_power_sum_tail_fractional():
    u = power_sum_tail(F(7, 2), 10)
    assert u > 0
    # the bound dominates a long numeric partial sum of the tail
    approx = sum(1.0 / q**3.5 for q in range(11, 100000))
    assert approx <= float(u)


def test_quad_arithmetic_identities():
    g = surd(F(-1, 2), F(1, 2), 5)  # (sqrt5 - 1)/2
    assert isinstance(g, Quad)
    assert g * g + g - 1 == 0
    assert g.floor() == 0
    assert (1 / g) == g + 1
    assert abs(-g) == g
    r8 = surd(F(0), F(1), 8)  # equals 2*sqrt(2)
    assert isinstance(r8, Quad) and r8 == Quad(F(0), F(2), 2)
    assert surd(F(3), F(1), 9) == F(6)  # perfect square collapses


def test_quad_sign_and_order():
    r2 = surd(F(0), F(1), 2)
    assert (r2 - F(3, 2)).sign() < 0
    assert (r2 - F(7, 5)).sign() > 0
    assert r2 < F(3, 2)
    assert F(7, 5) < r2
    # cross-field comparison falls back to enclosures
    r3 = surd(F(0), F(1), 3)
    assert cmp_certified(r2, r3, 128) == -1


# surd() keeps the radicand 2*100003^2 as given (100003 is prime), so the
# field of sqrt(2) must be recognised without factoring
BIG_PRIME = 100003


def test_same_field_recognised_without_factoring():
    a = surd(F(0), F(BIG_PRIME), 2)
    b = surd(F(0), F(1), 2 * BIG_PRIME**2)
    assert cmp_certified(a, b) == 0
    assert a - b == 0 and b - a == 0
    assert a + b == surd(F(0), F(2 * BIG_PRIME), 2)
    assert exact_cmp(a, b) == 0
    assert exact_cmp(a + F(1, 10**9), b) == 1 and exact_cmp(b, a + 1) == -1
    assert a / b == 1 and b * b == 2 * BIG_PRIME**2


def _rand_rat(rng):
    return F(rng.randint(-12, 12), rng.randint(1, 9))


def test_exact_cmp_matches_enclosures_and_orders_distinct_fields(rng):
    for _ in range(200):
        d = rng.choice([2, 3, 5, 8, 12])
        x = surd(_rand_rat(rng), _rand_rat(rng), d)
        y = rng.choice([_rand_rat(rng), surd(_rand_rat(rng), _rand_rat(rng), d)])
        c = exact_cmp(x, y)
        assert c == cmp_certified(x, y)
        assert exact_cmp(y, x) == -c
    assert exact_cmp(surd(F(0), F(1), 2), surd(F(0), F(1), 3)) == -1


small_rats = st.builds(F, st.integers(-40, 40), st.integers(1, 12))
nonzero_rats = small_rats.filter(bool)
# distinct square-free kernels: their product is never a square
kernel_pairs = st.lists(st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13, 4099]),
                        min_size=2, max_size=2, unique=True)


@given(kernel_pairs, st.sampled_from([1, 3, BIG_PRIME]), small_rats, nonzero_rats,
       nonzero_rats, st.integers(0, 60))
def test_exact_cmp_orders_distinct_fields_by_refinement(ds, k, a, b, e, shift):
    """y = c + e*sqrt(d2) is placed within about 2^-shift of x, so a larger
    shift needs a deeper refinement; x may carry an unreduced radicand."""
    d1, d2 = ds
    x = Quad(a, b, d1 * k * k)
    c = x.enclose(shift).lo - Quad(F(0), e, d2).enclose(shift).lo
    y = surd(c, e, d2)
    bits = 8
    while True:
        ex, ey = x.enclose(bits), y.enclose(bits)
        if ex.hi < ey.lo or ey.hi < ex.lo:
            want = -1 if ex.hi < ey.lo else 1
            break
        bits *= 2
    assert exact_cmp(x, y) == want == -exact_cmp(y, x)
    assert cmp_certified(x, y) == want


# a product of two large primes: one value is stored over P and over 4*P
P = 1000000007 * 998244353


def test_surd_keeps_the_radicand_it_is_built_with():
    for d in (2, 3, 8, 12, 50, 2 * BIG_PRIME**2, P):
        assert stored_form(surd(F(1, 3), F(-2), d)) == (Quad, F(1, 3), F(-2), d)
    r8, twice_r2 = surd(F(0), F(1), 8), 2 * surd(F(0), F(1), 2)
    assert r8 == twice_r2 and hash(r8) == hash(twice_r2) and repr(r8) == repr(twice_r2)
    assert stored_form(surd(F(3), F(1), 9)) == (F, F(6))


def test_one_value_over_two_radicands_is_one_quad():
    x = Quad(F(1), F(1), 4 * P) + Quad(F(0), F(3), P)
    y = Quad(F(0), F(3), P) + Quad(F(1), F(1), 4 * P)
    assert (x.d, y.d) == (4 * P, P) and exact_cmp(x, y) == 0
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert repr(x) == repr(y) == "(1 + sqrt(24956108999692761775))"


def test_an_unreduced_radicand_equals_its_reduction():
    # 3*1000003^2 is kept as given, over the field of sqrt(3)
    assert Quad(F(0), F(1), 3 * 1000003**2) == surd(F(0), F(1000003), 3)


def _wrapped(v):
    """An exact value as a Real, known to the Real only by its enclosures."""
    return Real(lambda bits: enclose(v, bits))


def test_values_of_two_fields_are_ordered_by_operators():
    r2, r3 = surd(F(0), F(1), 2), surd(F(0), F(1), 3)
    assert r2 < r3 and r2 <= r3 and r3 > r2 and r3 >= r2 and r2 != r3
    assert min(r3, F(3, 2), r2) == r2 and max(r2, F(3, 2), r3) == r3
    # anything but int, Fraction and Quad is not an exact value
    assert r2 != _wrapped(r2) and r2 != 1.5
    with pytest.raises(TypeError):
        r2 < _wrapped(r3)


@st.composite
def exact_values(draw):
    """Fractions, and Quads built directly over two or three fields, each
    radicand scaled by a random square (of a large prime in
    some draws) and its coefficient divided by the root, so that one value
    recurs over several radicands."""
    kernels = draw(st.lists(st.sampled_from([2, 3, 5, 6, 7, 4099]),
                            min_size=2, max_size=3, unique=True))
    coefs = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    values = []
    for _ in range(draw(st.integers(2, 8))):
        a = draw(coefs)
        if draw(st.integers(0, 3)) == 0:
            values.append(a)
            continue
        k = draw(st.sampled_from([1, 2, 3, 10, BIG_PRIME, 1000003, 2**61 - 1]))
        b = draw(coefs.filter(bool))
        values.append(Quad(a, b / k, draw(st.sampled_from(kernels)) * k * k))
    return values


@given(exact_values())
def test_operators_hash_and_repr_agree_with_exact_cmp(values):
    for x in values:
        for y in values:
            c = exact_cmp(x, y)
            assert (x == y, x != y, x < y, x <= y, x > y, x >= y) == (
                c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0)
            assert (repr(x) == repr(y)) == (c == 0)
            if c == 0:
                assert hash(x) == hash(y)
    classes = {repr(x) for x in values}
    assert len(set(values)) == len(classes)


# radicands grouped by the square-free kernel of their field
FIELD_GROUPS = {
    2: [2, 8, 50, 2 * BIG_PRIME**2],
    3: [3, 12, 27, 3 * BIG_PRIME**2],
    5: [5, 20, 45],
    7: [7, 28, 4 * 7 * 9],
}


def _ref_binop(x, yab, op):
    """Result of op routed through surd(), from components over sqrt(x.d)."""
    a1, b1, a2, b2, d = x.a, x.b, yab[0], yab[1], x.d
    if op == "add":
        return surd(a1 + a2, b1 + b2, d)
    if op == "sub":
        return surd(a1 - a2, b1 - b2, d)
    if op == "rsub":
        return surd(a2 - a1, b2 - b1, d)
    if op == "mul":
        return surd(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, d)
    norm = a2 * a2 - b2 * b2 * d
    return surd((a1 * a2 - b1 * b2 * d) / norm, (b1 * a2 - a1 * b2) / norm, d)


def _same(z, ref):
    assert z == ref and stored_form(z) == stored_form(ref)  # the very same (a, b, d)


def test_in_field_arithmetic_equals_surd_routing(rng):
    ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "rsub": lambda x, y: y - x, "mul": lambda x, y: x * y,
           "div": lambda x, y: x / y}
    for _ in range(300):
        kernel = rng.choice(sorted(FIELD_GROUPS))
        d1, d2 = rng.choice(FIELD_GROUPS[kernel]), rng.choice(FIELD_GROUPS[kernel])
        x = surd(_rand_rat(rng), _rand_rat(rng) or F(1), d1)
        # sqrt(x.d) = sx*sqrt(kernel) and sqrt(d2) = s2*sqrt(kernel)
        sx, s2 = math.isqrt(x.d // kernel), math.isqrt(d2 // kernel)
        if rng.random() < 0.2:  # the same value written over another radicand
            y = surd(x.a, x.b * F(sx, s2), d2)
        else:
            y = surd(_rand_rat(rng), _rand_rat(rng), d2)
        r = _rand_rat(rng) or F(1)
        if isinstance(y, Quad):  # components of y over sqrt(x.d)
            t = F(math.isqrt(y.d // kernel), sx)
            yab = (y.a, y.b * t)
        else:
            yab = (y, F(0))

        results = {op: fn(x, y) for op, fn in ops.items() if op != "div" or y != 0}
        scalar = [x + r, r + x, x - r, r - x, x * r, r * x, x / r, r / x]
        unary = [-x, x.inverse()]
        for op, z in results.items():
            if op == "rsub" and isinstance(y, Quad):  # y.__sub__ answers in y's field
                ref = _ref_binop(y, (x.a, x.b / t), "sub")
            else:
                ref = _ref_binop(x, yab, op)
            _same(z, ref)
        norm = x.a * x.a - x.b * x.b * x.d
        inv = surd(x.a / norm, -x.b / norm, x.d)
        rab = (r, F(0))
        refs = [_ref_binop(x, rab, "add")] * 2 + [
            _ref_binop(x, rab, "sub"), _ref_binop(x, rab, "rsub")] + [
            _ref_binop(x, rab, "mul")] * 2 + [
            _ref_binop(x, rab, "div"), surd(r * inv.a, r * inv.b, x.d)]
        for z, ref in zip(scalar, refs):
            _same(z, ref)
        for z, ref in zip(unary, [surd(-x.a, -x.b, x.d), inv]):
            _same(z, ref)


def test_quad_enclosure_contains_and_narrows():
    r2 = surd(F(0), F(1), 2)
    e64, e128 = r2.enclose(64), r2.enclose(128)
    assert e128.lo >= e64.lo and e128.hi <= e64.hi
    # the true value is irrational: strict containment both sides
    assert e64.lo < e128.hi
    s = math.isqrt(2 * 10**40)
    assert e64.lo <= F(s + 1, 10**20) and F(s, 10**20) <= e64.hi


def _random_leaf(rng):
    # exact leaves are wrapped, as two fields do not combine exactly
    kind = rng.randrange(3)
    if kind == 0:
        return _wrapped(F(rng.randint(-50, 50), rng.randint(1, 50)))
    if kind == 1:
        d = rng.choice([2, 3, 5, 7, 11, 13])
        return _wrapped(surd(F(rng.randint(-10, 10), rng.randint(1, 10)),
                             F(rng.randint(1, 10), rng.randint(1, 10)), d))
    return Real.power(F(rng.randint(1, 40), rng.randint(1, 40)),
                      F(rng.randint(1, 9), rng.randint(1, 4)))


def _random_tree(rng, depth):
    if depth == 0:
        return _random_leaf(rng)
    a = _random_tree(rng, depth - 1)
    b = _random_tree(rng, depth - 1)
    op = rng.randrange(4)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return abs(a) + 1


def test_expression_tree_refinement_fuzz(rng):
    # enclosures of composite expressions must narrow, never invert
    for _ in range(150):
        t = _random_tree(rng, rng.randint(1, 4))
        coarse, fine = enclose(t, 64), enclose(t, 512)
        assert fine.lo >= coarse.lo
        assert fine.hi <= coarse.hi
        assert fine.lo <= fine.hi


def test_enclosure_intersection_detects_disagreement():
    a = RealEnclosure(F(0), F(1), 64)
    b = RealEnclosure(F(2), F(3), 64)
    with pytest.raises(InternalConsistencyError):
        a & b


def test_dividing_by_an_enclosure_containing_zero_raises():
    one = RealEnclosure(F(1), F(1), 64)
    with pytest.raises(DomainError, match=r"containing 0 at 64 bits: \[-1/2, 1\]"):
        one / RealEnclosure(F(-1, 2), F(1), 64)
    assert one / RealEnclosure(F(-2), F(-1, 2), 8) == RealEnclosure(F(-2), F(-1, 2), 8)


@st.composite
def enclosures(draw):
    """A closed interval between two small rationals, at 1 to 300 bits."""
    a, b = draw(small_rats), draw(small_rats)
    return RealEnclosure(min(a, b), max(a, b), draw(st.integers(1, 300)))


def _hull(values, bits):
    return RealEnclosure(min(values), max(values), bits)


@given(enclosures(), enclosures())
def test_enclosure_operators_are_the_hull_of_the_endpoint_results(x, y):
    """Each operator is monotone in each operand between the points where it
    changes sign, so the set it maps two intervals onto is the hull of its
    values at their ends (and at 0 for abs)."""
    ends = [(a, b) for a in (x.lo, x.hi) for b in (y.lo, y.hi)]
    bits = min(x.bits, y.bits)
    assert -x == _hull([-x.lo, -x.hi], x.bits)
    assert abs(x) == _hull([abs(x.lo), abs(x.hi)] + [F(0)] * x.contains(F(0)), x.bits)
    assert x + y == _hull([a + b for a, b in ends], bits)
    assert x - y == _hull([a - b for a, b in ends], bits)
    assert x * y == _hull([a * b for a, b in ends], bits)
    if y.lo <= 0 <= y.hi:
        with pytest.raises(DomainError, match="division by an enclosure containing 0"):
            x / y
    else:
        assert x / y == _hull([a / b for a, b in ends], bits)
    # the points in both: none when one ends before the other starts
    if x.hi < y.lo or y.hi < x.lo:
        with pytest.raises(InternalConsistencyError, match="disjoint enclosures"):
            x & y
    else:
        assert x & y == RealEnclosure(max(x.lo, y.lo), min(x.hi, y.hi), max(x.bits, y.bits))


def _integer_root(n: int, k: int):
    """The k-th root of n >= 0 when it is an integer, by bisection."""
    lo, hi = 0, n + 1  # lo^k <= n < hi^k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= n else (lo, mid)
    return lo if lo ** k == n else None


def test_power_is_a_fraction_exactly_when_rational():
    for b in (F(1), F(2), F(4), F(8), F(9, 4), F(27, 8), F(3, 5), F(16, 81)):
        for e in (F(0), F(2), F(-3), F(1, 2), F(-1, 2), F(2, 3), F(3, 4), F(5, 2)):
            x = b ** e.numerator
            rn = _integer_root(x.numerator, e.denominator)
            rd = _integer_root(x.denominator, e.denominator)
            v = Real.power(b, e)
            if rn is not None and rd is not None:
                assert type(v) is F and v == F(rn, rd)
            else:
                assert type(v) is Real
                enc = v.enclose(64)
                assert enc.lo ** e.denominator < x < enc.hi ** e.denominator
