from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dioph.arith import DomainError, is_square
from dioph.bands import gamma_band
from dioph import dioset, quality, topology
from dioph.contfrac import (
    PrefixAlpha,
    QuadraticAlpha,
    RationalAlpha,
    cf_cycle,
    cf_expand,
    convergents,
    parse_alpha,
    quadratic_from_periodic,
)
from dioph.dioset import truncated_set
from dioph.quality import detect_isolation, gamma_of
from dioph.topology import (
    FAILS,
    HOLDS,
    census,
    check_gap,
    check_gap_strict,
    gap_report,
    gap_threshold,
    gap_threshold_strict,
    quotient_growth_table,
    window_margin_table,
)
from tests.conftest import random_quadratic
from tests.oracles import census_c_n, gap_from_definition, window_margin_rows

GOLDEN = QuadraticAlpha(-1, 5, 2)

# exact quadratic with expansion [0; 2, 1, 12, 1, 23, 1, 23, 1, ...]:
# at n = 3 the strengthened gap holds and q_{n+2} = 981
WINDOW_ALPHA = quadratic_from_periodic([0, 2, 1, 12, 1], [23, 1])
WINDOW_N = 3


def test_check_gap_huge_quotient_holds():
    a = PrefixAlpha((0, 2, 3, 10**6))
    assert check_gap(a, F(1, 10), F(4), 1) == HOLDS


def test_check_gap_tight_regime_fails():
    # q_{n+1} close to q_n^tau/gamma with a_{n+2} = 1 forces an overlap
    a = PrefixAlpha((0, 2, 80, 1, 1))
    assert check_gap(a, F(1, 10), F(4), 1) == FAILS


def test_check_gap_matches_direct_comparison_golden():
    table = convergents(cf_expand(GOLDEN, 5))
    gamma, tau = F(2, 5), F(1)
    lhs = table.fraction(2) + gamma / table.denom(2) ** 2
    rhs = table.fraction(4) - gamma / table.denom(4) ** 2
    want = HOLDS if lhs < rhs else FAILS
    assert check_gap(GOLDEN, gamma, tau, 2) == want


def test_threshold_iff_property(rng):
    agree = 0
    for _ in range(400):
        k = rng.randint(3, 9)
        qs = [0] + [rng.randint(1, 30) for _ in range(k)]
        alpha = PrefixAlpha(tuple(qs))
        n = rng.randint(0, k - 3)
        tau = F(rng.choice([4, 5]))
        gamma = F(rng.randint(1, 499), 1000)
        t = convergents(qs[: n + 3])
        verdict = check_gap(alpha, gamma, tau, n)
        try:
            thr = gap_threshold(t.denom(n), t.denom(n + 1), t.denom(n + 2), gamma, tau)
        except DomainError:
            # clearance bracket not positive: the gap must fail
            assert verdict == FAILS
            continue
        assert thr.lo == thr.hi  # exact for integer tau
        predicted = HOLDS if F(t.a(n + 2)) > thr.lo else FAILS
        assert predicted == verdict
        agree += 1
    assert agree > 250


def test_threshold_small_gamma_gap_always_holds():
    # as gamma shrinks the threshold drops below 1, so any quotient passes
    thr = gap_threshold(3, 7, 24, F(1, 10**6), F(4))
    assert thr.hi < 1
    a = PrefixAlpha((0, 3, 2, 3))
    assert check_gap(a, F(1, 10**6), F(4), 0) == HOLDS


def test_threshold_near_critical_ratio_is_large():
    # q_{n+1} just below q_n^tau/gamma leaves a razor-thin clearance
    thr = gap_threshold(2, 159, 480, F(1, 10), F(4))
    assert thr.lo > 1


def _half_integer_gap_oracle(qs, n, gamma, tau2):
    """Exact gap verdict for tau = tau2/2 (tau2 odd) via isqrt bracketing,
    independent of the certified-comparison path."""
    import math

    t = convergents(qs[: n + 3])
    width = abs(t.fraction(n + 2) - t.fraction(n))
    e_int = (tau2 + 2) // 2  # q^(tau+1) = q^e_int * sqrt(q)

    def radius_bounds(q):
        s = 10**25
        r = math.isqrt(q * s * s)
        return (gamma / (F(q) ** e_int * F(r + 1, s)),
                gamma / (F(q) ** e_int * F(r, s)))

    lo1, hi1 = radius_bounds(t.denom(n))
    lo2, hi2 = radius_bounds(t.denom(n + 2))
    if width > hi1 + hi2:
        return HOLDS
    if width < lo1 + lo2:
        return FAILS
    return None


def test_check_gap_fractional_tau_against_isqrt_oracle(rng):
    checked = 0
    for _ in range(150):
        k = rng.randint(3, 7)
        qs = [0] + [rng.randint(1, 25) for _ in range(k)]
        n = rng.randint(0, k - 3)
        gamma = F(rng.randint(1, 499), 1000)
        tau2 = rng.choice([7, 9])
        want = _half_integer_gap_oracle(qs, n, gamma, tau2)
        if want is None:
            continue
        got = check_gap(PrefixAlpha(tuple(qs)), gamma, F(tau2, 2), n)
        assert got == want, (qs, n, gamma, tau2)
        checked += 1
    assert checked > 100


def test_strict_implies_plain(rng):
    for _ in range(200):
        k = rng.randint(3, 8)
        qs = [0] + [rng.randint(1, 40) for _ in range(k)]
        alpha = PrefixAlpha(tuple(qs))
        n = rng.randint(0, k - 3)
        gamma = F(rng.randint(1, 499), 1000)
        if check_gap_strict(alpha, gamma, F(4), n) == HOLDS:
            assert check_gap(alpha, gamma, F(4), n) == HOLDS


def test_band_instance_separates_plain_from_strict():
    # pick gamma inside the band pinned by (q, p, N) = (2, 159, 3): the plain
    # gap holds while the strengthened one fails at a_{n+2} = 3
    band = gamma_band(2, 159, 3, F(4))
    gamma = (band.lo.hi + band.hi.lo) / 2
    alpha = PrefixAlpha((0, 2, 79, 3, 1))
    t = convergents([0, 2, 79, 3])
    assert (t.denom(1), t.denom(2), t.denom(3)) == (2, 159, 479)
    assert check_gap(alpha, gamma, F(4), 1) == HOLDS
    assert check_gap_strict(alpha, gamma, F(4), 1) == FAILS
    # threshold ordering at that gamma: T_plain < a <= T_strict
    thr = gap_threshold(2, 159, 479, gamma, F(4))
    thr_s = gap_threshold_strict(2, 159, 479, gamma, F(4))
    assert thr.hi < 3 <= thr_s.lo


def test_thresholds_converge_as_margin_vanishes():
    gamma, tau = F(1, 10), F(4)
    prev_gap = None
    for scale in (1, 4, 16):
        q_n, q_n1 = 3 * scale, 7 * scale
        q_n2 = 24 * scale
        t1 = gap_threshold(q_n, q_n1, q_n2, gamma, tau)
        t2 = gap_threshold_strict(q_n, q_n1, q_n2, gamma, tau)
        gap = t2.hi - t1.lo
        assert gap >= 0
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


@settings(max_examples=150)
@given(quotients=st.lists(st.integers(1, 60), min_size=3, max_size=8), pick=st.integers(0, 5),
       gamma=st.builds(F, st.integers(1, 60), st.integers(2, 400)),
       tau=st.sampled_from([F(1), F(2), F(3), F(4), F(5, 2), F(7, 2)]),
       on_boundary=st.booleans())
def test_gap_report_matches_the_definition(quotients, pick, gamma, tau, on_boundary):
    alpha = PrefixAlpha((0, *quotients))
    n = pick % (len(quotients) - 1)
    if on_boundary and tau.denominator == 1:
        # the gamma at which the plain radii exactly fill the window: the open
        # intervals touch there, and the plain gap fails
        t = convergents((0, *quotients))
        width = abs(t.fraction(n + 2) - t.fraction(n))
        gamma = width / (F(1, t.denom(n)) ** (tau + 1) + F(1, t.denom(n + 2)) ** (tau + 1))
    rep = gap_report(alpha, gamma, tau, n)
    for got, strict in ((rep.gap, False), (rep.gap_strict, True)):
        want = gap_from_definition(alpha, gamma, tau, n, strict)
        if want is not None:
            assert got == (HOLDS if want else FAILS), (strict, got)


@pytest.mark.parametrize("gamma", [F(0), F(-1, 10)])
def test_gap_checks_reject_gamma_at_most_zero(gamma):
    with pytest.raises(DomainError, match="gamma must be positive"):
        gap_report(GOLDEN, gamma, F(4), 1)
    with pytest.raises(DomainError, match="gamma must be positive"):
        check_gap(GOLDEN, gamma, F(4), 1)


def test_gap_report_shape():
    rep = gap_report(GOLDEN, F(1, 10), F(1), 2)
    assert rep.n == 2 and rep.a_actual == 1
    assert rep.gap in (HOLDS, FAILS)
    assert rep.gap_strict in (HOLDS, FAILS)


# ---------------------------------------------------------------------------
# Isolation
# ---------------------------------------------------------------------------

def test_detect_isolation_golden():
    rep = detect_isolation(GOLDEN, F(3, 8), F(1), depth=25)
    assert rep.member is True
    assert rep.at_min_level is False  # the infimum (3-sqrt5)/2 is irrational
    assert rep.cross_parity_ties == ()
    assert rep.attained_minima == (1,)
    assert rep.boundary_flags == ()


def test_detect_isolation_boundary_construction():
    # alpha = 1/2 + gamma/2^(tau+1) sits exactly on the exclusion boundary
    gamma, tau = F(1, 10), F(4)
    alpha = RationalAlpha(F(1, 2) + gamma / F(2) ** 5)
    assert alpha.value == F(161, 320)
    rep = detect_isolation(alpha, gamma, tau, depth=20)
    assert rep.member is False  # rationals never belong
    qs = cf_expand(alpha, 20)
    t = convergents(qs)
    half_index = next(n for n in range(len(qs)) if t.fraction(n) == F(1, 2))
    assert half_index in rep.boundary_flags


def test_detect_isolation_rational_empty_ties():
    rep = detect_isolation(RationalAlpha(F(2, 7)), F(1, 10), F(4), depth=10)
    assert rep.member is False
    assert rep.cross_parity_ties == ()


def test_detect_isolation_rational_reads_the_whole_expansion():
    # 7/10 = [0; 1, 2, 3]: the infimum 0 sits at row 3, below the depth asked
    alpha, gamma, tau = RationalAlpha(F(7, 10)), F(3, 10), F(1)
    assert gamma_of(alpha, tau, 1).argmin_candidates == (3,)
    rep = detect_isolation(alpha, gamma, tau, depth=1)
    assert rep.member is False
    assert rep.at_min_level is False
    assert rep.attained_minima == (3,)
    assert rep == detect_isolation(alpha, gamma, tau, depth=40)


def test_detect_isolation_quadratic_below_preperiod():
    # the rows membership reads reach the preperiod whatever depth is asked
    start = cf_cycle(WINDOW_ALPHA)[0]
    assert start > 1
    gamma, tau = F(1, 1000), F(2)
    rep = detect_isolation(WINDOW_ALPHA, gamma, tau, depth=1)
    assert rep == detect_isolation(WINDOW_ALPHA, gamma, tau, depth=start)
    assert rep.unresolved == () and rep.at_min_level is False


def test_detect_isolation_unresolved_reads_the_exact_minimum():
    # every row is exact, but the floor proven for deeper rows lies below the
    # least of them: exact comparison finds one least row, where 256-bit
    # enclosures leave 44 candidates
    alpha = quadratic_from_periodic([0, 1], [1, 3])
    rep = detect_isolation(alpha, F(1, 100), F(1), depth=200)
    assert rep.at_min_level is None
    assert rep.unresolved == (200,)


def test_detect_isolation_builds_each_row_once(monkeypatch):
    calls = []
    original = quality._row

    def counted(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(quality, "_row", counted)
    detect_isolation(GOLDEN, F(3, 8), F(1), depth=12)
    assert sorted(calls) == list(range(13))


def test_gap_report_builds_its_table_once(monkeypatch):
    calls = []
    original = topology._table_to

    def counted(alpha, depth):
        calls.append(depth)
        return original(alpha, depth)

    monkeypatch.setattr(topology, "_table_to", counted)
    rep = gap_report(WINDOW_ALPHA, F(1, 10), F(2), WINDOW_N)
    assert calls == [WINDOW_N + 2]
    assert rep.gap == check_gap(WINDOW_ALPHA, F(1, 10), F(2), WINDOW_N)
    assert rep.gap_strict == check_gap_strict(WINDOW_ALPHA, F(1, 10), F(2), WINDOW_N)


def test_gap_report_compares_at_its_precision(monkeypatch):
    seen = []
    original = topology.cmp_certified

    def spy(a, b, max_precision_bits):
        seen.append(max_precision_bits)
        return original(a, b, max_precision_bits)

    monkeypatch.setattr(topology, "cmp_certified", spy)
    gap_report(WINDOW_ALPHA, F(1, 10), F(7, 2), WINDOW_N, precision=64)
    assert seen and max(seen) <= 64


def test_detect_isolation_reflection_parity(rng):
    # reflection swaps the parity classes: the golden minimum moves from the
    # odd row 1 (value 1 - alpha) to the even row 0 (value {1 - alpha})
    rep_a = detect_isolation(GOLDEN, F(3, 8), F(1), depth=20)
    rep_b = detect_isolation(GOLDEN.reflect(), F(3, 8), F(1), depth=20)
    assert rep_b.member is True
    assert rep_a.attained_minima == (1,)
    assert rep_b.attained_minima == (0,)
    assert rep_a.attained_minima[0] % 2 != rep_b.attained_minima[0] % 2


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def test_census_constructed_instance():
    gamma, tau = F(1, 10), F(4)
    assert check_gap_strict(WINDOW_ALPHA, gamma, tau, WINDOW_N) == HOLDS
    t = convergents(cf_expand(WINDOW_ALPHA, WINDOW_N + 3))
    assert t.denom(WINDOW_N + 2) == 981 <= 1000
    rec = census(WINDOW_ALPHA, gamma, tau, WINDOW_N, 2000)
    assert rec.verdict is True
    assert rec.complement_measure_in_window < rec.window_measure
    assert rec.c_n is not None
    assert rec.window[0] < rec.c_n < rec.window[1] + 1


def test_census_insufficient_cutoff():
    with pytest.raises(DomainError):
        census(WINDOW_ALPHA, F(1, 10), F(4), WINDOW_N, 500)


def test_census_matches_global_truncated_set():
    # excluded measure inside the window equals the global sieve restricted
    gamma, tau, qmax = F(1, 10), F(4), 1000
    rec = census(WINDOW_ALPHA, gamma, tau, WINDOW_N, qmax)
    s = truncated_set(gamma, tau, qmax)
    lo, hi = rec.window
    inside = s.restrict((lo, hi)).measure
    assert rec.window_measure - inside == rec.complement_measure_in_window


def test_census_farey_and_legendre_oracles():
    from dioph.dioset import fractions_in_interval

    gamma, tau = F(1, 10), F(4)
    t = convergents(cf_expand(WINDOW_ALPHA, WINDOW_N + 3))
    e1, e2 = t.fraction(WINDOW_N), t.fraction(WINDOW_N + 2)
    lo, hi = min(e1, e2), max(e1, e2)
    v = WINDOW_ALPHA.value()
    convergent_fracs = {t.fraction(n) for n in range(len(t))}
    q_n1 = t.denom(WINDOW_N + 1)
    count = 0
    for p, q in fractions_in_interval(lo, hi, 1000):
        count += 1
        assert q > q_n1  # interior fractions exceed the middle denominator
        if F(p, q) not in convergent_fracs:
            assert abs(v - F(p, q)) > F(1, 2 * q * q)
    assert count > 0


@st.composite
def alpha_specs(draw):
    """quad:, rat: and cf: specs of numbers in (0, 1)."""
    kind = draw(st.sampled_from(["quad", "rat", "cf"]))
    if kind == "quad":
        d = draw(st.integers(2, 500).filter(lambda d: not is_square(d)))
        q = draw(st.sampled_from([1, 2, 3, 4, 5, -1, -2, -3]))
        p = draw(st.integers(-30, 30))
        p -= QuadraticAlpha(p, d, q).value().floor() * q
        return f"quad:{p},{d},{q}"
    if kind == "rat":
        den = draw(st.integers(2, 400))
        return f"rat:{draw(st.integers(1, den - 1))}/{den}"
    quotients = draw(st.lists(st.integers(1, 20), min_size=2, max_size=8))
    return f"cf:[0;{','.join(map(str, quotients))}]"


@settings(max_examples=80)
@given(spec=alpha_specs(), pick=st.integers(0, 5),
       gamma=st.builds(F, st.integers(1, 60), st.integers(2, 400)),
       tau=st.sampled_from([F(3), F(4), F(5, 2), F(7, 2)]),
       extra=st.integers(0, 400), max_den=st.none() | st.integers(1, 400))
def test_census_c_n_and_margins_match_the_per_fraction_scan(spec, pick, gamma, tau, extra,
                                                            max_den):
    alpha = parse_alpha(spec)
    qs = alpha.quotients_to(8)
    table = convergents(qs)
    windows = [n for n in range(len(qs) - 2) if table.denom(n + 2) <= 400]
    assume(windows)
    n = windows[pick % len(windows)]
    qmax = min(table.denom(n + 2) + extra, 400)
    assert census(alpha, gamma, tau, n, qmax).c_n == census_c_n(alpha, gamma, tau, n)
    assert window_margin_table(alpha, gamma, tau, n, max_den) == \
        window_margin_rows(alpha, gamma, tau, n, max_den)


def test_census_commutes_with_integer_shifts(rng):
    # p/q -> p/q - k maps the reduced fractions and their radii onto
    # themselves, so census(alpha - k) is census(alpha) moved by -k, also for
    # windows below 0
    gamma = F(1, 10)
    for _ in range(4):
        alpha = random_quadratic(rng)
        table = convergents(cf_expand(alpha, 6))
        windows = [n for n in range(4) if table.denom(n + 2) <= 200]  # kept small for speed
        for k in (1, 2, 5):
            shifted = QuadraticAlpha(alpha.p - k * alpha.q, alpha.d, alpha.q)
            for tau in (F(4), F(7, 2)):
                for n in windows:
                    qmax = table.denom(n + 2) + 10
                    a = census(alpha, gamma, tau, n, qmax)
                    b = census(shifted, gamma, tau, n, qmax)
                    assert b.window == (a.window[0] - k, a.window[1] - k)
                    assert b.c_n == (None if a.c_n is None else a.c_n - k)
                    assert (b.window_measure, b.complement_measure_in_window,
                            b.tail_bound, b.verdict) == \
                        (a.window_measure, a.complement_measure_in_window,
                         a.tail_bound, a.verdict)


def test_census_computes_one_radius_per_denominator(monkeypatch):
    # the window sieve and c_n share one radius per q; a second radius per
    # window fraction with q < q_{n+2} would show as extra calls
    calls = []
    bounds = dioset.power_bounds
    monkeypatch.setattr(dioset, "power_bounds",
                        lambda q, *rest: calls.append(q) or bounds(q, *rest))
    qmax = 1200
    rec = census(WINDOW_ALPHA, F(1, 10), F(4), WINDOW_N, qmax)
    assert rec.c_n is not None
    assert sorted(calls) == list(range(1, qmax + 1))


def test_window_margin_table_positive_on_large_instance():
    rows = window_margin_table(WINDOW_ALPHA, F(1, 10), F(4), WINDOW_N)
    assert rows and all(slack > 0 for _, _, slack in rows)


def test_window_margin_table_small_instance_may_go_negative():
    # tiny windows with fat radii legitimately report negative slack
    a = PrefixAlpha((0, 1, 1, 1, 1))
    rows = window_margin_table(a, F(2, 5), F(4), 0)
    assert isinstance(rows, list)  # rows reported, not errored
    a2 = PrefixAlpha((0, 2, 1, 1))
    rows2 = window_margin_table(a2, F(2, 5), F(4), 0)
    assert all(isinstance(s, F) for _, _, s in rows2)


def test_window_margin_empty_below_cutoff():
    # q_{n+2} <= 3 leaves no interior fraction below the cutoff
    a = PrefixAlpha((0, 1, 1, 1))
    assert window_margin_table(a, F(1, 10), F(4), 0) == []


def test_report_serialization_helpers():
    import json

    from dioph.topology import census_obj, gap_report_obj

    rep = gap_report(WINDOW_ALPHA, F(1, 10), F(4), WINDOW_N)
    obj = gap_report_obj(rep)
    assert json.dumps(obj)
    assert obj["gap"] == HOLDS
    rec = census(WINDOW_ALPHA, F(1, 10), F(4), WINDOW_N, 1200)
    assert json.dumps(census_obj(rec))


def test_quotient_growth_table():
    alpha = PrefixAlpha((0, 2, 80, 1, 2, 1, 90, 1))
    gamma, tau = F(1, 10), F(4)
    rows = quotient_growth_table(alpha, gamma, tau, 7, F(1, 2), F(1))
    assert rows, "gap must fail somewhere in the tight regime"
    for n, a_next, bound, ok in rows:
        assert check_gap(alpha, gamma, tau, n) == FAILS
        assert ok in (HOLDS, FAILS)
        within = F(a_next) <= bound.hi
        assert within == (ok == HOLDS)


@pytest.mark.parametrize("tau", [F(0), F(-3), F(1, 2)])
def test_gap_conditions_reject_tau_below_one(tau):
    gamma = F(1, 10)
    calls = [
        lambda: check_gap(GOLDEN, gamma, tau, 0),
        lambda: check_gap_strict(GOLDEN, gamma, tau, 0),
        lambda: gap_threshold(1, 2, 3, gamma, tau),
        lambda: gap_threshold_strict(1, 2, 3, gamma, tau),
        lambda: gap_report(GOLDEN, gamma, tau, 0),
        lambda: quotient_growth_table(GOLDEN, gamma, tau, 6, F(1, 2)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"^tau must be >= 1$"):
            call()
