"""Acceptance suite: one test per criterion, each printing a pass line.

Expected values carry their provenance: closed forms are verified against the
independent brute-force scan oracle (direct minimum over q without
convergents), truncated-set examples against direct membership checks, and
exact identities with zero tolerance.
"""

import random
import time
from fractions import Fraction as F

from dioph.arith import enclose, surd
from dioph.bands import (
    bands_union_measure,
    bands_union_tail,
    critical_tau,
    exponents,
)
from dioph.cli import run
from dioph.contfrac import (
    PrefixAlpha,
    QuadraticAlpha,
    cf_expand,
    convergents,
    quadratic_from_periodic,
)
from dioph.dioset import (
    fractions_in_interval,
    truncated_set,
)
from dioph.quality import brute_force_gamma, gamma_n, gamma_of
from dioph.topology import HOLDS, census, check_gap, check_gap_strict, gap_threshold
from tests.conftest import random_quadratic, random_rational
from tests.oracles import direct_member

GOLDEN = QuadraticAlpha(-1, 5, 2)

# constructed window instance: expansion [0;2,1,12,1,23,1,23,...],
# q_3 = 38, q_5 = 981 <= 10^3, strengthened gap holds at n = 3
WINDOW_ALPHA = quadratic_from_periodic([0, 2, 1, 12, 1], [23, 1])
WINDOW_N = 3


def _report(num: int, label: str, elapsed: float | None = None):
    suffix = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS criterion {num}: {label}{suffix}")


def _depth_for_qmax(alpha, qmax: int, hard_cap: int = 80) -> int:
    qs = cf_expand(alpha, hard_cap)
    t = convergents(qs)
    n = 0
    while n + 1 < len(qs) and t.denom(n + 1) <= qmax:
        n += 1
    return max(n, 1)


def test_criterion_1_oracle_agreement():
    start = time.monotonic()
    rng = random.Random(101)
    qmax = 10**4
    for i in range(50):
        alpha = random_quadratic(rng)
        for tau in (F(1), F(4)):
            depth = _depth_for_qmax(alpha, qmax)
            res = gamma_of(alpha, tau, depth)
            bf_enc, bf_q = brute_force_gamma(alpha, tau, qmax)
            assert res.certified, (alpha, tau)
            # bracket containment is exact: the oracle enclosure must overlap
            assert res.lower <= bf_enc.hi and bf_enc.lo <= res.upper, (alpha, tau)
            table = convergents(cf_expand(alpha, depth + 1))
            cand_q = min(table.denom(n) for n in res.argmin_candidates)
            assert cand_q == bf_q, (alpha, tau)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, "gamma_of brackets contain the q<=1e4 brute-force oracle with "
               "matching argmin denominators on 50 random quadratics", elapsed)


def test_criterion_2_golden_ratio_closed_form():
    start = time.monotonic()
    res = gamma_of(GOLDEN, F(1), 40)
    bf_enc, bf_q = brute_force_gamma(GOLDEN, F(1), 10**4)
    assert res.certified
    assert res.upper - res.lower <= F(1, 10**12)
    # oracle-derived closed form: the infimum is (3 - sqrt5)/2, attained at
    # q = 1 (the spec sheet's (21 - 9*sqrt5)/2 is the value of row 3, which
    # the definition-level oracle rules out as the infimum; see the row test)
    closed_form = surd(F(3, 2), F(-1, 2), 5)
    enc = enclose(closed_form, 256)
    assert res.lower <= enc.lo and enc.hi <= res.upper + F(1, 2**200)
    assert bf_enc.lo <= enc.hi and enc.lo <= bf_enc.hi
    assert bf_q == 1
    assert min(res.argmin_candidates) == 1
    # the quoted row-3 value is itself exact: 3*(2 - 3*alpha) = (21-9*sqrt5)/2
    row3 = gamma_n(GOLDEN, F(1), 3)
    assert row3.exact == surd(F(21, 2), F(-9, 2), 5)
    elapsed = time.monotonic() - start
    assert elapsed < 1
    _report(2, "golden-ratio bracket width <= 1e-12 around the oracle value "
               "(3-sqrt5)/2 with matching argmin; row 3 equals (21-9*sqrt5)/2",
            elapsed)


def test_criterion_3_truncated_set_exactness():
    start = time.monotonic()
    s2 = truncated_set(F(1, 10), F(4), 2)
    assert s2.intervals == ((F(1, 10), F(159, 320)), (F(161, 320), F(9, 10)))
    assert s2.measure == F(127, 160)
    rng = random.Random(202)
    mismatches = 0
    for qmax in (10, 50, 200):
        s = truncated_set(F(1, 10), F(4), qmax)
        for _ in range(1000):
            x = random_rational(rng, 10**4)
            if (x in s) != direct_member(x, F(1, 10), F(4), qmax):
                mismatches += 1
    assert mismatches == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(3, "truncated set exact at Qmax=2 and 3x1000 random probes agree "
               "with the direct membership oracle", elapsed)


def test_criterion_4_gap_threshold_iff():
    start = time.monotonic()
    rng = random.Random(303)
    disagreements = 0
    checked = 0
    while checked < 1000:
        k = rng.randint(3, 9)
        qs = [0] + [rng.randint(1, 40) for _ in range(k)]
        alpha = PrefixAlpha(tuple(qs))
        n = rng.randint(0, k - 3)
        tau = F(rng.choice([4, 5]))
        gamma = F(rng.randint(1, 499), 1000)
        t = convergents(qs[: n + 3])
        verdict = check_gap(alpha, gamma, tau, n)
        try:
            thr = gap_threshold(t.denom(n), t.denom(n + 1), t.denom(n + 2),
                                gamma, tau)
        except Exception:
            if verdict != "fails":  # negative clearance forces failure
                disagreements += 1
            checked += 1
            continue
        assert thr.lo == thr.hi  # exact arithmetic, zero tolerance
        predicted = "holds" if F(t.a(n + 2)) > thr.lo else "fails"
        if predicted != verdict:
            disagreements += 1
        checked += 1
    assert disagreements == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(4, "gap condition equals the quotient-threshold comparison on "
               "1000 exact instances (zero disagreements)", elapsed)


def test_criterion_5_symmetry_and_nesting():
    start = time.monotonic()
    gammas = [F(1, 20), F(1, 10), F(1, 5), F(3, 10), F(2, 5)]
    qmaxes = [1, 2, 5, 10, 20]
    grid = {}
    for g in gammas:
        for q in qmaxes:
            s = truncated_set(g, F(4), q)
            grid[(g, q)] = s
            assert s.reflect() == s  # exact reflection invariance
    for g in gammas:
        for qa, qb in zip(qmaxes, qmaxes[1:]):
            assert grid[(g, qb)].subset_of(grid[(g, qa)])
    for q in qmaxes:
        for ga, gb in zip(gammas, gammas[1:]):
            assert grid[(gb, q)].subset_of(grid[(ga, q)])
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(5, "5x5 (gamma, Q) grid exactly reflection-invariant and nested "
               "in both parameters", elapsed)


def test_criterion_6_census_positivity():
    start = time.monotonic()
    gamma, tau = F(1, 10), F(4)
    t = convergents(cf_expand(WINDOW_ALPHA, WINDOW_N + 3))
    assert t.denom(WINDOW_N + 2) <= 10**3
    assert check_gap_strict(WINDOW_ALPHA, gamma, tau, WINDOW_N) == HOLDS
    rec = census(WINDOW_ALPHA, gamma, tau, WINDOW_N, 10**4)
    assert rec.verdict is True
    assert rec.window_measure - rec.complement_measure_in_window - rec.tail_bound > 0
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(6, "census certifies positive residual measure in the constructed "
               "window (q_{n+2} = 981, exclusions to Qmax=1e4 plus tail)",
            elapsed)


def test_criterion_7_farey_legendre_oracles():
    start = time.monotonic()
    t = convergents(cf_expand(WINDOW_ALPHA, WINDOW_N + 3))
    e1, e2 = t.fraction(WINDOW_N), t.fraction(WINDOW_N + 2)
    lo, hi = min(e1, e2), max(e1, e2)
    q_n1 = t.denom(WINDOW_N + 1)
    v = WINDOW_ALPHA.value()
    convergent_fracs = {t.fraction(n) for n in range(len(t))}
    farey_violations = legendre_violations = 0
    seen = 0
    for p, q in fractions_in_interval(lo, hi, 10**3):
        seen += 1
        if q <= q_n1:
            farey_violations += 1
        if F(p, q) not in convergent_fracs:
            if not abs(v - F(p, q)) > F(1, 2 * q * q):
                legendre_violations += 1
    assert seen > 0
    assert farey_violations == 0
    assert legendre_violations == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(7, f"all {seen} interior fractions (q <= 1e3) exceed q_n+1 and "
               "non-convergents keep the 1/(2q^2) distance (zero violations)",
            elapsed)


def test_criterion_8_threshold_algebra():
    r = exponents(critical_tau())
    assert r.band_exponent == F(1)  # exact quadratic arithmetic
    r4 = exponents(F(4))
    assert (r4.band_exponent, r4.pinch_exponent) == (F(3), F(21))
    r3 = exponents(F(3))
    assert (r3.band_exponent, r3.pinch_exponent) == (F(-1), F(9))
    _report(8, "band exponent is exactly 1 at tau=(3+sqrt17)/2; exponents(4)="
               "(3,21); exponents(3)=(-1,9)")


def test_criterion_9_band_measure_trend():
    start = time.monotonic()
    kwargs = dict(tau=F(4), c1=F(1, 20), c2=F(9, 20))
    bounds = [bands_union_measure(m=m, q_max=30, **kwargs) for m in (2, 4, 8, 16)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    u60 = bands_union_measure(m=2, q_max=60, **kwargs)
    tail = bands_union_tail(F(4), F(1, 20), F(9, 20), 30)
    assert 0 <= u60 - bounds[0] <= tail
    # tau = 7/2: band exponent 3/4 < 1, partial sums keep growing
    r = exponents(F(7, 2), checkpoints=[100, 1000, 10000])
    sums = r.partial_sums
    ratios = [sums[i + 1][1] / sums[i][1] for i in range(2)]
    assert all(rat > F(3, 2) for rat in ratios)
    assert r.band_converges is False
    elapsed = time.monotonic() - start
    assert elapsed < 120
    _report(9, "union bound decreases over M in {2,4,8,16}, q_max stability "
               f"gap below the analytic tail; tau=7/2 sum ratios "
               f"{[f'{float(r):.2f}' for r in ratios]} show no saturation",
            elapsed)


CLI_COMMANDS = [
    ["gamma", "--alpha", "quad:-1,5,2", "--tau", "1", "--depth", "25"],
    ["gamma", "--alpha", "quad:-1,2,1", "--tau", "1", "--depth", "20"],
    ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "2"],
    ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "50"],
    ["gaps", "--alpha", "quad:921,621,2770", "--gamma", "1/10", "--tau", "4",
     "--depth", "6"],
    ["census", "--alpha", "quad:921,621,2770", "--gamma", "1/10", "--tau", "4",
     "--n", "3", "--qmax", "1200"],
    ["member", "--alpha", "quad:-1,5,2", "--gamma", "2/5", "--tau", "1"],
    ["bands", "--tau", "4", "--m", "2", "--qmax", "30", "--band", "2,100,3"],
    ["bands", "--tau", "3"],
    ["bands", "--tau", "7/2", "--checkpoints", "100,1000"],
    ["sweep", "--tau", "4", "--gamma-list", "1/20,1/10,1/5,3/10,2/5",
     "--qmax", "20", "--format", "svg"],
    ["cf", "--alpha", "quad:-1,5,2", "--depth", "20", "--format", "csv"],
]


def test_criterion_10_cli_determinism(tmp_path):
    start = time.monotonic()
    for i, argv in enumerate(CLI_COMMANDS):
        out_a = tmp_path / f"a{i}.out"
        out_b = tmp_path / f"b{i}.out"
        code_a = run(list(argv) + ["--out", str(out_a)])
        code_b = run(list(argv) + ["--out", str(out_b)])
        assert code_a == code_b
        assert out_a.read_bytes() == out_b.read_bytes(), argv
    elapsed = time.monotonic() - start
    _report(10, f"{len(CLI_COMMANDS)} CLI invocations repeated byte-identically",
            elapsed)
