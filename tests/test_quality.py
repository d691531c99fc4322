import math
from fractions import Fraction as F
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dioph.arith import DomainError, Quad, enclose, exact_cmp, surd
from dioph.contfrac import (
    PrefixAlpha,
    QuadraticAlpha,
    RationalAlpha,
    cf_expand,
    convergents,
    quadratic_from_periodic,
    value_of,
)
from dioph.quality import (
    _distance_range,
    _gamma_rows,
    brute_force_gamma,
    detect_isolation,
    gamma_n,
    gamma_of,
    gamma_parity,
    membership,
    tau_bounds,
)
from tests import oracles
from tests.conftest import random_quadratic
from tests.oracles import tail

GOLDEN = QuadraticAlpha(-1, 5, 2)       # (sqrt5 - 1)/2 = [0; 1, 1, 1, ...]
SQRT2_UNIT = QuadraticAlpha(-1, 2, 1)   # sqrt(2) - 1 = [0; 2, 2, ...]

GOLDEN_ROW3 = surd(F(21, 2), F(-9, 2), 5)   # value of row 3 at tau = 1
GOLDEN_MIN = surd(F(3, 2), F(-1, 2), 5)     # (3 - sqrt5)/2, attained at n = 1


def _depth_for_qmax(alpha, qmax: int, hard_cap: int = 60) -> int:
    qs = cf_expand(alpha, hard_cap)
    t = convergents(qs)
    n = 0
    while n + 1 < len(qs) and t.denom(n + 1) <= qmax:
        n += 1
    return max(n, 1)


def test_gamma_row0_is_fractional_part(rng):
    for _ in range(10):
        alpha = random_quadratic(rng)
        row = gamma_n(alpha, F(1), 0)
        assert row.exact == alpha.value()
        row4 = gamma_n(alpha, F(4), 0)
        assert row4.exact == alpha.value()  # independent of tau at n = 0


def test_gamma_row3_golden_closed_form():
    row = gamma_n(GOLDEN, F(1), 3)
    assert row.q == 3
    assert row.exact == GOLDEN_ROW3
    # cross-check against 3 * ||3*alpha||
    v = GOLDEN.value()
    assert row.exact == 3 * abs(3 * v - 2)


def test_gamma_rows_approach_hurwitz_limit():
    # row values at tau=1 approach 1/sqrt(5) = sqrt(5)/5 from both sides
    limit = surd(F(0), F(1, 5), 5)
    lo22 = gamma_n(GOLDEN, F(1), 22).exact
    hi23 = gamma_n(GOLDEN, F(1), 23).exact
    assert abs(lo22 - limit).enclose(64).hi < F(1, 10**8) \
        if isinstance(abs(lo22 - limit), Quad) else True
    diff = lo22 - limit
    assert abs(diff) < F(1, 10**6)
    assert abs(hi23 - limit) < F(1, 10**6)


def test_reciprocal_identity_exact(rng):
    # 1/row_n = q_{n+1}/q_n^tau + 1/(alpha_{n+2} q_n^(tau-1)) exactly
    for _ in range(10):
        alpha = random_quadratic(rng)
        qs = cf_expand(alpha, 8)
        t = convergents(qs)
        for tau in (F(1), F(4)):
            for n in range(0, 6):
                row = gamma_n(alpha, tau, n)
                a_n2 = tail(alpha, n + 2, 64).exact
                qn = t.denom(n)
                rhs = F(t.denom(n + 1)) / F(qn) ** int(tau) \
                    + 1 / (a_n2 * F(qn) ** (int(tau) - 1))
                assert 1 / row.exact == rhs


def test_dual_route_enclosures_intersect_prefix():
    # both routes stay consistent even with wide tail intervals
    a = PrefixAlpha((0, 3, 1, 4, 2))
    for n in range(4):
        row = gamma_n(a, F(7, 2), n, 128)
        assert row.enclosure.lo <= row.enclosure.hi


def test_gamma_of_golden_certified_exact():
    res = gamma_of(GOLDEN, F(1), 30)
    assert res.certified
    assert res.argmin_candidates == (1,)
    assert res.upper - res.lower <= F(1, 10**12)
    enc = enclose(GOLDEN_MIN, 300)
    assert res.lower <= enc.lo and enc.hi <= res.upper + F(1, 2**200)


def test_gamma_of_matches_brute_force_sqrt2():
    enc, argq = brute_force_gamma(SQRT2_UNIT, F(1), 10**4)
    res = gamma_of(SQRT2_UNIT, F(1), _depth_for_qmax(SQRT2_UNIT, 10**4))
    assert res.certified
    assert res.lower <= enc.hi and enc.lo <= res.upper
    assert argq == 2  # row n=1 with value 6 - 4*sqrt(2)
    assert res.argmin_candidates == (1,)
    assert enc.lo <= surd(F(6), F(-4), 2) <= enc.hi


def test_gamma_of_rational_is_zero():
    res = gamma_of(RationalAlpha(F(7, 10)), F(4), 10)
    assert (res.lower, res.upper) == (F(0), F(0))
    assert res.certified
    assert res.argmin_candidates == (3,)


def test_gamma_parity_structure_golden():
    even, odd = gamma_parity(GOLDEN, F(1), 30)
    # odd side attains (3-sqrt5)/2 at n=1
    assert odd.certified and odd.argmin_candidates == (1,)
    assert odd.upper - odd.lower <= F(1, 10**12)
    # even side decreases toward 1/sqrt(5), never attained: honest wide bracket
    hurwitz = enclose(surd(F(0), F(1, 5), 5), 128)
    assert even.lower <= hurwitz.lo and hurwitz.hi <= even.upper
    assert even.certified


def test_gamma_parity_swaps_under_reflection():
    # row values of 1-alpha coincide with the parity-swapped rows of alpha
    g1 = GOLDEN.reflect()
    for n in range(1, 8):
        assert gamma_n(g1, F(1), n).exact == gamma_n(GOLDEN, F(1), n + 1).exact


def test_gamma_parity_rational():
    even, odd = gamma_parity(RationalAlpha(F(1, 3)), F(1), 10)
    # expansion [0; 3]: the zero row sits at odd index 1
    assert odd.upper == 0 and odd.certified
    assert even.lower > 0 or even.upper > 0


def test_brute_force_qmax_one(rng):
    for _ in range(10):
        alpha = random_quadratic(rng)
        enc, argq = brute_force_gamma(alpha, F(1), 1)
        assert argq == 1
        v = alpha.value()
        dist = min(abs(v), abs(1 - v))
        assert enc.lo <= dist <= enc.hi


def test_brute_force_agreement_random_quadratics(rng):
    for _ in range(12):
        alpha = random_quadratic(rng)
        for tau in (F(1), F(4)):
            depth = _depth_for_qmax(alpha, 2000)
            res = gamma_of(alpha, tau, depth)
            enc, argq = brute_force_gamma(alpha, tau, 2000)
            assert res.certified
            assert res.lower <= enc.hi and enc.lo <= res.upper
            t = convergents(cf_expand(alpha, depth + 1))
            assert min(t.denom(n) for n in res.argmin_candidates) == argq


@st.composite
def bf_requests(draw):
    """(alpha, tau, qmax, precision): rationals (of denominators up to 600,
    so that ||q*alpha|| = 0 inside the range too), quadratics and prefixes
    with bounded and unbounded tails, at integer and fractional tau."""
    kind = draw(st.sampled_from(["rat", "quad", "prefix", "bounded"]))
    word = [0] + draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    if kind == "rat":
        den = draw(st.integers(2, 600))
        alpha = RationalAlpha(F(draw(st.integers(1, den - 1)), den))
    elif kind == "quad":
        period = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        alpha = quadratic_from_periodic(word[:4], period)
    else:
        tail_high = F(draw(st.integers(1, 12))) if kind == "bounded" else None
        alpha = PrefixAlpha(tuple(word), F(1), tail_high)
    tau = draw(st.sampled_from([F(1), F(3, 2), F(2), F(5, 2), F(3), F(7, 2), F(4),
                                F(11, 3)]))
    return alpha, tau, draw(st.integers(1, 400)), draw(st.sampled_from([8, 64, 256]))


@settings(max_examples=100)
@given(bf_requests())
@example((RationalAlpha(F(3, 7)), F(5, 2), 400, 64))  # ||7*alpha|| = 0 in range
def test_brute_force_matches_the_scan_of_every_q(request):
    """The pruned scan returns the enclosure and argmin of the scan that
    evaluates every q in full."""
    alpha, tau, qmax, precision = request
    enc, q = brute_force_gamma(alpha, tau, qmax, precision)
    ref, ref_q = oracles.brute_force_gamma_reference(alpha, tau, qmax, precision)
    assert (enc.lo, enc.hi, q) == (ref.lo, ref.hi, ref_q)


# alpha = [0; 2, 127, 127, ...], about 0.498: its 8-bit enclosure holds 1/2
NEAR_HALF = quadratic_from_periodic([0, 2], [127])


@pytest.mark.parametrize("alpha, tau, qmax, precision, expected", [
    # the exact scan: q*alpha = 1/2 and 3/2 (at q = 1 and 5), rows that tie
    # (the least q is kept), ||7*alpha|| = 0 ending the scan at integer and
    # at fractional tau, a quadratic at integer tau, and Qmax = 1
    (RationalAlpha(F(1, 2)), F(1), 1, 64, (F(1, 2), F(1, 2), 1)),
    (RationalAlpha(F(3, 10)), F(1), 3, 64, (F(3, 10), F(3, 10), 1)),   # ties with q = 3
    (RationalAlpha(F(8, 33)), F(3, 2), 4, 64, (F(8, 33), F(8, 33), 1)),  # ties with q = 4
    (RationalAlpha(F(3, 10)), F(3, 2), 9, 64, None),
    (RationalAlpha(F(3, 7)), F(2), 600, 64, (F(0), F(0), 7)),
    (RationalAlpha(F(3, 7)), F(7, 2), 600, 8, (F(0), F(0), 7)),
    (RationalAlpha(F(2, 5)), F(1), 1, 64, (F(2, 5), F(2, 5), 1)),
    (GOLDEN, F(3), 600, 64, None),
    (GOLDEN, F(1), 1, 64, None),
    # the enclosure scan: Qmax = 1, enclosures that hold 1/2, 3/2 or span
    # at least 1 once scaled (precision 8, q >= 256), and prefixes
    (GOLDEN, F(5, 2), 1, 64, None),
    (NEAR_HALF, F(5, 2), 1, 8, None),
    (GOLDEN, F(5, 2), 600, 8, None),
    (NEAR_HALF, F(7, 2), 600, 8, None),
    (PrefixAlpha((0, 2, 3)), F(2), 1, 64, None),
    (PrefixAlpha((0, 1, 4, 2), F(1), F(3)), F(3), 600, 32, None),
])
def test_brute_force_reaches_every_branch_of_both_scans(alpha, tau, qmax, precision, expected):
    enc, q = brute_force_gamma(alpha, tau, qmax, precision)
    ref, ref_q = oracles.brute_force_gamma_reference(alpha, tau, qmax, precision)
    assert (enc.lo, enc.hi, enc.bits, q) == (ref.lo, ref.hi, ref.bits, ref_q)
    if expected is not None:
        assert (enc.lo, enc.hi, q) == expected
    if qmax == 1:
        assert q == 1


@settings(max_examples=300)
@given(st.fractions(-3, 3, max_denominator=300), st.fractions(0, 2, max_denominator=300),
       st.integers(1, 40))
@example(F(1, 2), F(0), 1)         # a half-integer end
@example(F(7, 10), F(9, 10), 1)   # an integer and 3/2 inside
@example(F(-1, 3), F(1), 1)       # a span of 1
@example(F(2), F(0), 3)           # an integer point
def test_distance_range_matches_the_fraction_distances(lo, width, q):
    """The integer distances of the brute-force scans equal the range of
    ||x|| over [q*lo, q*hi] computed on Fractions."""
    hi = lo + width
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    r = q * a % den
    r_hi = r + q * (hi.numerator * (den // hi.denominator) - a)
    assert _distance_range(r, r_hi, den) == oracles._dist_interval(q * lo, q * hi)


def test_brute_force_rejects_tau_below_one():
    with pytest.raises(DomainError, match="tau must be >= 1"):
        brute_force_gamma(GOLDEN, F(1, 2), 10)


def test_membership_golden_oracle_values():
    # gamma(alpha, 1) = (3 - sqrt5)/2 ~ 0.3819660; witnesses live at q = 1
    out = membership(GOLDEN, F(2, 5), F(1))
    assert out.is_out and (out.witness_q, out.witness_p) == (1, 1)
    out = membership(GOLDEN, F(11, 25), F(1))
    assert out.is_out and out.witness_q == 1
    inn = membership(GOLDEN, F(3, 8), F(1))
    assert inn.is_in and inn.certified
    inn = membership(GOLDEN, F(38196, 10**5), F(1))
    assert inn.is_in  # just below the infimum
    out = membership(GOLDEN, F(38197, 10**5), F(1))
    assert out.is_out and out.witness_q == 1


def test_membership_rational_and_domain():
    v = membership(RationalAlpha(F(1, 3)), F(1, 10), F(1))
    assert v.is_out and (v.witness_q, v.witness_p) == (3, 1)
    with pytest.raises(DomainError):
        membership(RationalAlpha(F(3, 2)), F(1, 10), F(1))
    with pytest.raises(DomainError):
        membership(GOLDEN, F(0), F(1))


def test_membership_symmetry_under_reflection(rng):
    for _ in range(8):
        alpha = random_quadratic(rng)
        mirrored = alpha.reflect()
        for gamma in (F(1, 10), F(1, 4), F(2, 5)):
            a = membership(alpha, gamma, F(1), 25)
            b = membership(mirrored, gamma, F(1), 25)
            assert a.kind == b.kind


def test_membership_unknown_on_unbounded_prefix():
    a = PrefixAlpha((0, 2, 2, 2))
    v = membership(a, F(1, 4), F(1), 3)
    assert v.is_unknown
    assert v.lower == 0  # honest uncertified bracket


def test_monotone_in_tau(rng):
    for _ in range(10):
        alpha = random_quadratic(rng)
        for n in range(0, 6):
            r1 = gamma_n(alpha, F(1), n).exact
            r4 = gamma_n(alpha, F(4), n).exact
            assert r4 >= r1 or r4 == r1


def test_upper_bounded_by_min_distance_to_ends(rng):
    # the infimum never exceeds min(alpha, 1 - alpha)
    for _ in range(10):
        alpha = random_quadratic(rng)
        res = gamma_of(alpha, F(1), 20)
        v = alpha.value()
        bound = enclose(v if v < 1 - v else 1 - v, 128)
        assert res.upper <= bound.hi + F(1, 2**100)


def test_tau_bounds():
    assert tau_bounds(GOLDEN, 10) == (F(1), F(1))
    assert tau_bounds(PrefixAlpha((0, 2, 2), tail_high=F(3)), 5) == (F(1), F(1))
    lo, hi = tau_bounds(PrefixAlpha((0, 2)), 2)
    assert (lo, hi) == (F(1), None)
    with pytest.raises(DomainError):
        tau_bounds(RationalAlpha(F(1, 3)), 5)
    # prefix engineered with a_{n+1} ~ q_n^(tau-1) for tau = 7/2
    qs = [0, 2]
    t = convergents(qs)
    while len(qs) < 7:
        qn = t.denom(len(qs) - 1)
        a = max(1, round(qn ** 2.5))
        qs.append(a)
        t = convergents(qs)
    lo, hi = tau_bounds(PrefixAlpha(tuple(qs)), len(qs) - 1)
    assert hi is None
    assert lo >= F(3)  # observed exponent approaches the design value 7/2


@st.composite
def row_requests(draw):
    """(alpha, tau, gamma, depth): rational, quadratic and prefix alphas in
    (0, 1), prefixes with bounded and unbounded tails and of one quotient too,
    at integer and fractional tau."""
    word = [0] + draw(st.lists(st.integers(1, 6), max_size=7))
    kind = draw(st.sampled_from(["rat", "quad", "prefix", "bounded"]))
    if kind == "rat":
        alpha = RationalAlpha(value_of(word + [2]))
    elif kind == "quad":
        period = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
        alpha = quadratic_from_periodic(word[:3], period)
    else:
        tail_high = F(draw(st.integers(1, 8))) if kind == "bounded" else None
        alpha = PrefixAlpha(tuple(word), F(1), tail_high)
    tau = draw(st.sampled_from([F(1), F(2), F(4), F(5, 2), F(7, 2)]))
    gamma = draw(st.sampled_from([F(1, 100), F(1, 10), F(1, 3), F(2, 5), F(1, 2)]))
    return alpha, tau, gamma, draw(st.integers(0, 9))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=80)
@given(row_requests())
@example((RationalAlpha(F(3, 8)), F(1), F(1, 10), 3))  # [0; 2, 1, 2]: rows 0 and 2 tie
@example((RationalAlpha(F(3, 7)), F(7, 2), F(1, 10), 3))
@example((PrefixAlpha((0,)), F(2), F(1, 10), 3))
@example((PrefixAlpha((0,), F(1), F(3)), F(5, 2), F(1, 10), 2))
def test_row_reduction_matches_the_reference(request):
    """The one reduction on _GammaRows gives what each caller's own
    reduction gave, finite expansions included."""
    alpha, tau, gamma, depth = request

    def rows():
        return _gamma_rows(alpha, tau, depth, 256)

    assert _outcome(gamma_of, alpha, tau, depth) == _outcome(lambda: oracles._bracket(rows()))
    assert (_outcome(gamma_parity, alpha, tau, depth)
            == _outcome(lambda: oracles._parity_brackets(rows())))
    for budget in (0, depth):
        assert (_outcome(membership, alpha, gamma, tau, budget)
                == _outcome(lambda: oracles.reference_membership(alpha, gamma, tau, budget,
                                                                 256)[0]))
    assert (_outcome(detect_isolation, alpha, gamma, tau, depth)
            == _outcome(oracles.reference_isolation, alpha, gamma, tau, depth))


def _least_row_by_full_scan(rows, precision):
    """minimum()'s tuple from every row: the exact least row and the rows
    equal to it, or the enclosure minimum when a row is inexact."""
    upper = min(r.enclosure.hi for r in rows)
    if any(r.exact is None for r in rows):
        return (None, min(r.enclosure.lo for r in rows), upper,
                tuple(r.n for r in rows if r.enclosure.lo <= upper))
    vmin = min((r.exact for r in rows), key=cmp_to_key(exact_cmp))
    enc = enclose(vmin, precision)
    return vmin, enc.lo, enc.hi, tuple(r.n for r in rows if exact_cmp(r.exact, vmin) == 0)


@settings(max_examples=150)
@given(row_requests(), st.integers(1, 30), st.sampled_from([1, 2, 8, 256]))
# rows 0 and 1 of 2/5 tie across parities, as rows 1 and 4 and rows 2 and 3 of
# 8/13 do, above the least row; rows 0 and 2 of 3/8 tie as the least even row
@example((RationalAlpha(F(2, 5)), F(1), F(2, 5), 0), 3, 1)
@example((RationalAlpha(F(8, 13)), F(1), F(5, 13), 0), 5, 1)
@example((RationalAlpha(F(3, 8)), F(1), F(1, 10), 0), 3, 2)
@example((GOLDEN, F(1), F(3, 8), 0), 25, 1)
@example((quadratic_from_periodic([0, 3, 1, 4], [1, 2, 3]), F(2), F(1, 100), 0), 30, 1)
def test_least_row_by_enclosures_first_is_the_full_scan(request, depth, precision):
    """minimum(parity), which compares exactly only the rows whose enclosure
    reaches the least upper end, gives the value, ends and candidates of an
    exact scan of every row; membership and isolation, which read it and
    prefilter on enclosures too, give the reference verdicts."""
    alpha, tau, gamma, _depth = request
    g = _gamma_rows(alpha, tau, depth, precision)
    for parity in (None, 0, 1):
        rows = [r for r in g.rows if parity is None or r.n % 2 == parity]
        if rows:
            assert g.minimum(parity) == _least_row_by_full_scan(rows, precision)
    assert (_outcome(membership, alpha, gamma, tau, depth, precision)
            == _outcome(lambda: oracles.reference_membership(alpha, gamma, tau, depth,
                                                             precision)[0]))
    assert (_outcome(detect_isolation, alpha, gamma, tau, depth, precision)
            == _outcome(oracles.reference_isolation, alpha, gamma, tau, depth, precision))
