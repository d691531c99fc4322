import functools
import math
import random
from fractions import Fraction as F

import pytest

import dioph.arith as arith
from dioph.arith import (
    DomainError,
    InternalConsistencyError,
    Quad,
    Real,
    cmp_certified,
    enc_intersect,
    exact_cmp,
    format_rat,
    iroot,
    parse_rat,
    pow_real,
    power_sum_tail,
    rat_sum_tail_bound,
    surd,
)


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
    e = pow_real(F(2), F(4), 64)
    assert (e.lo, e.hi) == (F(16), F(16))
    e = pow_real(F(3, 2), F(-2), 64)
    assert e.lo == e.hi == F(4, 9)


def test_pow_real_half_integer_against_isqrt_oracle():
    # oracle: 2^(7/2) = 8*sqrt(2); sqrt(2) bracketed by scaled isqrt
    e = pow_real(F(2), F(7, 2), 64)
    scale = 10**30
    s = math.isqrt(2 * scale * scale)
    lo_oracle = F(8 * s, scale)
    hi_oracle = F(8 * (s + 1), scale)
    assert e.lo <= hi_oracle and lo_oracle <= e.hi
    assert e.width <= F(2) ** (1 - 64) * e.hi


def test_pow_real_base_one_and_perfect_powers():
    e = pow_real(F(1), F(355, 113), 64)
    assert (e.lo, e.hi) == (F(1), F(1))
    e = pow_real(F(4), F(1, 2), 64)
    assert (e.lo, e.hi) == (F(2), F(2))
    e = pow_real(F(27, 8), F(2, 3), 64)
    assert (e.lo, e.hi) == (F(9, 4), F(9, 4))


def test_pow_real_domain_errors():
    with pytest.raises(DomainError):
        pow_real(F(0), F(1, 2), 64)
    with pytest.raises(DomainError):
        pow_real(F(-2), F(2), 64)
    with pytest.raises(DomainError):
        pow_real(F(2), F(1, 2), 4)


def test_enclosure_monotone_refinement():
    rng = random.Random(7)
    for _ in range(50):
        base = F(rng.randint(1, 500), rng.randint(1, 500))
        exp = F(rng.randint(-12, 12), rng.randint(1, 6))
        if base == 0:
            continue
        r = Real.power(base, exp)
        prev = r.enclose(32)
        for bits in (64, 128, 256):
            cur = r.enclose(bits)
            assert prev.lo <= cur.lo <= cur.hi <= prev.hi
            prev = cur


def test_cmp_certified_examples():
    assert cmp_certified(Real.power(F(2), F(7, 2)), F(11), 128).is_greater
    assert cmp_certified(F(3, 7), F(3, 7), 64).is_equal
    assert cmp_certified(Real.power(F(2), F(1, 2)), F(3, 2), 16).is_less


def test_cmp_certified_soundness_at_higher_precision():
    rng = random.Random(3)
    for _ in range(60):
        a = Real.power(F(rng.randint(2, 50)), F(rng.randint(1, 7), rng.randint(2, 5)))
        b = Real.power(F(rng.randint(2, 50)), F(rng.randint(1, 7), rng.randint(2, 5)))
        v = cmp_certified(a, b, 256)
        if v.is_less or v.is_greater:
            ea, eb = a.enclose(1024), b.enclose(1024)
            if v.is_less:
                assert ea.hi < eb.lo
            else:
                assert eb.hi < ea.lo


def test_cmp_certified_unresolved_on_equal_producers():
    # 2^(1/2) and 8^(1/6) are the same number through different producers:
    # enclosures can never separate them and equality is never proven
    v = cmp_certified(Real.power(F(2), F(1, 2)), Real.power(F(8), F(1, 6)), 512)
    assert v.is_unresolved
    assert v.precision_reached == 512


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
    r8 = surd(F(0), F(1), 8)  # collapses to 2*sqrt(2)
    assert isinstance(r8, Quad) and r8.d == 2 and r8.b == 2
    assert surd(F(3), F(1), 9) == F(6)  # perfect square collapses


def test_quad_sign_and_order():
    r2 = surd(F(0), F(1), 2)
    assert (r2 - F(3, 2)).sign() < 0
    assert (r2 - F(7, 5)).sign() > 0
    assert r2 < F(3, 2)
    assert F(7, 5) < r2
    # cross-field comparison falls back to enclosures
    r3 = surd(F(0), F(1), 3)
    assert cmp_certified(r2, r3, 128).is_less


# 100003 is a prime above the trial-division bound of the radicand split, so
# surd() cannot reduce 2*100003^2 to 2; the field must be recognised exactly
BIG_PRIME = 100003


def test_same_field_recognised_without_factoring():
    a = surd(F(0), F(BIG_PRIME), 2)
    b = surd(F(0), F(1), 2 * BIG_PRIME**2)
    assert cmp_certified(a, b).is_equal
    assert a - b == 0 and b - a == 0
    assert a + b == surd(F(0), F(2 * BIG_PRIME), 2)
    assert exact_cmp(a, b) == 0
    assert exact_cmp(a + F(1, 10**9), b) == 1 and exact_cmp(b, a + 1) == -1
    assert a / b == 1 and b * b == 2 * BIG_PRIME**2


def _rand_rat(rng):
    return F(rng.randint(-12, 12), rng.randint(1, 9))


def test_exact_cmp_matches_enclosures_and_rejects_distinct_fields(rng):
    for _ in range(200):
        d = rng.choice([2, 3, 5, 8, 12])
        x = surd(_rand_rat(rng), _rand_rat(rng), d)
        y = rng.choice([_rand_rat(rng), surd(_rand_rat(rng), _rand_rat(rng), d)])
        c = exact_cmp(x, y)
        assert c == {"less": -1, "equal": 0, "greater": 1}[cmp_certified(x, y).kind]
        assert exact_cmp(y, x) == -c
    with pytest.raises(InternalConsistencyError):
        exact_cmp(surd(F(0), F(1), 2), surd(F(0), F(1), 3))


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
    assert type(z) is type(ref)
    assert z == ref  # dataclass equality: the very same (a, b, d)


def test_in_field_arithmetic_equals_surd_routing(rng, monkeypatch):
    ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "rsub": lambda x, y: y - x, "mul": lambda x, y: x * y,
           "div": lambda x, y: x / y}

    def no_split(_d):
        raise AssertionError("radicand split inside a field")

    # the references route through surd(); memoise its split of the few radicands
    split = functools.lru_cache(arith._square_free_split)
    monkeypatch.setattr(arith, "_square_free_split", split)
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

        with monkeypatch.context() as mp:
            mp.setattr(arith, "_square_free_split", no_split)
            results = {op: fn(x, y) for op, fn in ops.items() if op != "div" or y != 0}
            scalar = [x + r, r + x, x - r, r - x, x * r, r * x, x / r, r / x]
            unary = [-x, x.conjugate(), x.inverse(), x ** 2, x ** -2]
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
        for z, ref in zip(unary, [surd(-x.a, -x.b, x.d), surd(x.a, -x.b, x.d), inv,
                                  _ref_binop(x, (x.a, x.b), "mul"),
                                  _ref_binop(inv, (inv.a, inv.b), "mul")]):
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
    kind = rng.randrange(3)
    if kind == 0:
        return Real.from_exact(F(rng.randint(-50, 50), rng.randint(1, 50)))
    if kind == 1:
        d = rng.choice([2, 3, 5, 7, 11, 13])
        return Real.from_exact(surd(F(rng.randint(-10, 10), rng.randint(1, 10)),
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
        coarse, fine = t.enclose(64), t.enclose(512)
        if coarse.lo is not None and fine.lo is not None:
            assert fine.lo >= coarse.lo
        if coarse.hi is not None and fine.hi is not None:
            assert fine.hi <= coarse.hi
        if fine.lo is not None and fine.hi is not None:
            assert fine.lo <= fine.hi


def test_enclosure_intersection_detects_disagreement():
    from dioph.arith import InternalConsistencyError, RealEnclosure

    a = RealEnclosure(F(0), F(1), 64)
    b = RealEnclosure(F(2), F(3), 64)
    with pytest.raises(InternalConsistencyError):
        enc_intersect(a, b)
