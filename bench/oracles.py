"""Independent output checks for the benchmark.

Nothing here imports ``dioph``: every check recomputes what it needs from
integer arithmetic written for this file (continued fractions of quadratic
surds, square- and k-th-root enclosures, balanced exact sums, a direct
||q*x|| scan).  A check only fails on a proven contradiction; where its own
enclosures are too coarse to decide, it passes.

``check(req, out, code, rng)`` returns ``(errors, proven)``: a list of
problems, and whether the request returned a proven verdict (None when the
command returns no verdict).  ``rng`` picks the points a set check probes.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from typing import Optional

Interval = tuple[Fraction, Fraction]


def parse_pair(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def parse_frac(text: str) -> Fraction:
    return Fraction(*parse_pair(text))


def balanced_sum(values: list[Fraction]) -> Fraction:
    """Exact sum in a balanced pairwise tree (keeps operands small)."""
    vals = list(values) or [Fraction(0)]
    while len(vals) > 1:
        pairs = [vals[k] + vals[k + 1] for k in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            pairs.append(vals[-1])
        vals = pairs
    return vals[0]


# ---------------------------------------------------------------------------
# Roots, powers and alphas as rational enclosures
# ---------------------------------------------------------------------------

def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def pow_range(q: int, tau: Fraction, bits: int) -> Interval:
    """Enclosure of q**tau (exact for integer tau)."""
    if tau.denominator == 1:
        v = Fraction(q) ** int(tau)
        return v, v
    m, k = tau.numerator, tau.denominator
    base = Fraction(q) ** m
    scale = bits + 4
    r = iroot((base.numerator << (k * scale)) // base.denominator, k)
    return Fraction(r, 1 << scale), Fraction(r + 1, 1 << scale)


def alpha_quotients(spec: str, count: int) -> list[int]:
    """Up to `count` partial quotients of a rat:, quad: or cf: alpha."""
    kind, _, body = spec.partition(":")
    if kind == "rat":
        x = parse_frac(body)
        out = []
        num, den = x.numerator, x.denominator
        while den and len(out) < count:
            a, r = divmod(num, den)
            out.append(a)
            num, den = den, r
        return out
    if kind == "cf":
        inner = body.strip()[1:-1]
        head, _, tail = inner.partition(";")
        qs = [int(head)] + [int(t) for t in tail.split(",") if t.strip()]
        return qs[:count]
    return [a for a, _state in quad_expansion(*quad_parts(spec), count)]


def quad_parts(spec: str) -> tuple[int, int, int]:
    p, d, q = (int(t) for t in spec.partition(":")[2].split(","))
    return p, d, q


def quad_expansion(p: int, d: int, q: int, count: int) -> list[tuple[int, tuple[int, int]]]:
    """(quotient, state) pairs of (p + sqrt(d))/q, state (P, Q) standing for
    the tail (P + sqrt(D))/Q with Q | D - P^2."""
    if (d - p * p) % q:
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    s = math.isqrt(d)
    out = []
    for _ in range(count):
        if q > 0:
            a = (p + s) // q
        else:
            a = -((p + s) // -q) - 1  # (p + sqrt d)/q with q < 0; sqrt d irrational
        out.append((a, (p, q)))
        p = a * q - p
        q = (d - p * p) // q
    return out


def quad_cycle(spec: str) -> tuple[int, int]:
    """(preperiod, period) from the first repeated state."""
    seen: dict[tuple[int, int], int] = {}
    n = 64
    while True:
        for idx, (_a, state) in enumerate(quad_expansion(*quad_parts(spec), n)):
            if state in seen:
                return seen[state], idx - seen[state]
            seen[state] = idx
        seen.clear()
        n *= 2


def convergents(quotients: list[int]) -> tuple[list[int], list[int]]:
    ps, qs = [], []
    p1, p2, q1, q2 = 1, 0, 0, 1
    for a in quotients:
        p1, p2 = a * p1 + p2, p1
        q1, q2 = a * q1 + q2, q1
        ps.append(p1)
        qs.append(q1)
    return ps, qs


def alpha_range(spec: str, bits: int) -> Interval:
    """Rational interval holding alpha (every alpha, for a cf: prefix whose
    tail after the prefix lies in [1, inf))."""
    kind, _, body = spec.partition(":")
    if kind == "rat":
        x = parse_frac(body)
        return x, x
    if kind == "cf":
        ps, qs = convergents(alpha_quotients(spec, 10 ** 6))
        p2, q2 = (ps[-2], qs[-2]) if len(ps) > 1 else (1, 0)
        ends = (Fraction(ps[-1], qs[-1]), Fraction(ps[-1] + p2, qs[-1] + q2))
        return min(ends), max(ends)
    p, d, q = quad_parts(spec)
    s = math.isqrt(d << (2 * bits))
    ends = (Fraction((p << bits) + s, q << bits), Fraction((p << bits) + s + 1, q << bits))
    return min(ends), max(ends)


def _dist(x: Fraction) -> Fraction:
    r = x - math.floor(x)
    return min(r, 1 - r)


def dist_range(lo: Fraction, hi: Fraction) -> Interval:
    """Range of the distance to the nearest integer over [lo, hi]."""
    if hi - lo >= Fraction(1, 2):
        return Fraction(0), Fraction(1, 2)
    dmin = Fraction(0) if math.ceil(lo) <= math.floor(hi) else min(_dist(lo), _dist(hi))
    has_half = any(k % 2 for k in range(math.ceil(2 * lo), math.floor(2 * hi) + 1))
    dmax = Fraction(1, 2) if has_half else max(_dist(lo), _dist(hi))
    return dmin, dmax


class Quality:
    """Enclosures of q^tau * ||q*alpha|| and q^tau * |q*alpha - p|."""

    def __init__(self, spec: str, tau: Fraction, bits: int = 128):
        self.spec, self.tau, self.bits = spec, tau, bits

    def _alpha(self, q: int) -> Interval:
        extra = q.bit_length() * (math.ceil(self.tau) + 2)
        return alpha_range(self.spec, self.bits + extra)

    def scan(self, q: int) -> Interval:
        a_lo, a_hi = self._alpha(q)
        d_lo, d_hi = dist_range(q * a_lo, q * a_hi)
        w_lo, w_hi = pow_range(q, self.tau, self.bits + q.bit_length() * 2)
        return w_lo * d_lo, w_hi * d_hi

    def row(self, q: int, p: int) -> Interval:
        a_lo, a_hi = self._alpha(q)
        x_lo, x_hi = q * a_lo - p, q * a_hi - p
        if x_lo >= 0:
            d_lo, d_hi = x_lo, x_hi
        elif x_hi <= 0:
            d_lo, d_hi = -x_hi, -x_lo
        else:
            d_lo, d_hi = Fraction(0), max(-x_lo, x_hi)
        w_lo, w_hi = pow_range(q, self.tau, self.bits + q.bit_length() * 2)
        return w_lo * d_lo, w_hi * d_hi


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def member_direct(x: Fraction, gamma: Fraction, tau: Fraction, qmax: int) -> bool:
    """||q*x|| * q^tau >= gamma for every q <= qmax, in integers:
    r^k * q^m * g_den^k >= g_num^k * den^k with tau = m/k, dist = r/den."""
    m, k = tau.numerator, tau.denominator
    num, den = x.numerator, x.denominator
    rhs = (gamma.numerator * den) ** k
    g_den_k = gamma.denominator ** k
    for q in range(1, qmax + 1):
        r = (num * q) % den
        r = min(r, den - r)
        if r ** k * q ** m * g_den_k < rhs:
            return False
    return True


def check_intervals(ivs: list, gamma: Fraction, tau: Fraction, qmax: int,
                    rng: random.Random) -> list[str]:
    """Order checks and direct-scan probes on intervals given as
    ((lo_num, lo_den), (hi_num, hi_den)) pairs with positive denominators."""
    prev_n, prev_d = -1, 1
    for (ln, ld), (hn, hd) in ivs:
        if ln < 0 or hn > hd or prev_n * ld >= ln * prev_d or ln * hd > hn * ld:
            return [f"intervals not sorted, disjoint and inside [0, 1] at [{ln}/{ld}, {hn}/{hd}]"]
        prev_n, prev_d = hn, hd
    if not ivs:
        return []
    picks = [rng.randrange(len(ivs)) for _ in range(12)]
    sampled = [(Fraction(*ivs[i][0]), Fraction(*ivs[i][1])) for i in picks]
    if tau.denominator == 1:
        # exact radii: boundary points belong to the set
        wide = sampled
        inside = [sampled[0][0], sampled[1][1]]
    else:
        # radii rounded inward: only points well inside an interval are
        # certainly members
        wide = [iv for iv in sampled if iv[1] - iv[0] > Fraction(1, 1 << 100)]
        inside = []
    inside += [(lo + hi) / 2 for lo, hi in wide[:3]]
    # a point between two consecutive emitted intervals is excluded
    outside = [(Fraction(*ivs[i][1]) + Fraction(*ivs[i + 1][0])) / 2
               for i in picks[:3] if i + 1 < len(ivs)]
    for x in inside:
        if not member_direct(x, gamma, tau, qmax):
            return [f"{x} is in the emitted set but a direct scan excludes it"]
    for x in outside:
        if member_direct(x, gamma, tau, qmax):
            return [f"{x} is outside the emitted set but a direct scan keeps it"]
    return []


def _set_payload_errors(obj: dict, gamma: Fraction, tau: Fraction, qmax: int,
                        rng: random.Random) -> list[str]:
    ivs = [(parse_pair(lo), parse_pair(hi)) for lo, hi in obj["intervals"]]
    errors = check_intervals(ivs, gamma, tau, qmax, rng)
    lengths = [Fraction(hn * ld - ln * hd, hd * ld) for (ln, ld), (hn, hd) in ivs]
    if parse_frac(obj["measure"]) != balanced_sum(lengths):
        errors.append("measure differs from the sum of the emitted interval lengths")
    return errors


def check_set(req: dict, out: str, rng: random.Random):
    meta = req["meta"]
    gamma, tau, qmax = parse_frac(meta["gamma"]), parse_frac(meta["tau"]), meta["qmax"]
    fmt = meta["format"]
    if fmt == "svg":
        ok = out.startswith("<?xml") and out.endswith("</svg>\n") and out.count("<rect") >= 2
        return ([] if ok else ["malformed svg"]), True
    if fmt == "csv":
        ivs = [tuple(parse_pair(e) for e in line.split(",")) for line in out.splitlines()]
        return check_intervals(ivs, gamma, tau, qmax, rng), True
    obj = json.loads(out)
    errors = _set_payload_errors(obj, gamma, tau, qmax, rng)
    if (obj["gamma"], obj["tau"], obj["qmax"]) != (meta["gamma"], meta["tau"], qmax):
        errors.append("set payload does not echo its parameters")
    if (obj["tail_bound"] is None) == (tau > 2) or (
            obj["tail_bound"] is not None and parse_frac(obj["tail_bound"]) <= 0):
        errors.append("tail bound missing, present for tau <= 2, or not positive")
    return errors, True


def check_sweep(req: dict, out: str, rng: random.Random):
    meta = req["meta"]
    tau = parse_frac(meta["tau"])
    rows = json.loads(out)
    want = [(g, q) for g in meta["gammas"] for q in meta["qmaxes"]]
    if [(r["gamma"], r["qmax"]) for r in rows] != want:
        return ["sweep rows do not follow the requested ladder"], True
    errors = []
    for r in rows:
        errors += _set_payload_errors(r, parse_frac(r["gamma"]), tau, r["qmax"], rng)
    return errors, True


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

BRUTE_CUTOFF = 100


def check_gamma(req: dict, out: str, rng: random.Random):
    meta = req["meta"]
    spec, tau = meta["alpha"], parse_frac(meta["tau"])
    obj = json.loads(out)
    g = obj["gamma"]
    lower, upper = parse_frac(g["lower"]), parse_frac(g["upper"])
    errors = []
    if not 0 <= lower <= upper:
        errors.append(f"gamma bracket [{lower}, {upper}] is not ordered and nonnegative")
    if spec.startswith("rat:"):
        if lower != 0 or upper != 0:
            errors.append("a rational alpha must have gamma bracket [0, 0]")
        return errors, g["certified"]
    quality = Quality(spec, tau)
    # every convergent row must be consistent with q^tau * |q*alpha - p|
    for row in obj["rows"]:
        enc = row["enclosure"]
        lo, hi = parse_frac(enc["lo"]), parse_frac(enc["hi"])
        o_lo, o_hi = quality.row(row["q"], row["p"])
        if o_hi < lo or o_lo > hi:
            errors.append(f"row {row['n']} enclosure [{lo}, {hi}] misses q^tau|q alpha - p|")
            break
    # the certified infimum cannot exceed the brute-force minimum over small q
    for q in range(1, BRUTE_CUTOFF + 1):
        if quality.scan(q)[1] < lower:
            errors.append(f"gamma lower bound {lower} exceeds q^tau||q alpha|| at q={q}")
            break
    return errors, g["certified"]


def check_member(req: dict, out: str, rng: random.Random, code: int):
    meta = req["meta"]
    spec, tau, gamma = meta["alpha"], parse_frac(meta["tau"]), parse_frac(meta["gamma"])
    obj = json.loads(out)
    verdict = obj["verdict"]
    errors = []
    if (code == 2) != (verdict == "unknown"):
        errors.append(f"exit code {code} does not match verdict {verdict}")
    quality = Quality(spec, tau)
    if verdict == "out":
        if quality.row(obj["witness_q"], obj["witness_p"])[0] >= gamma:
            errors.append("out-witness does not violate the bound")
    elif verdict == "in":
        for q in range(1, BRUTE_CUTOFF + 1):
            if quality.scan(q)[1] < gamma:
                errors.append(f"verdict in, but q={q} violates the bound")
                break
    return errors, verdict in ("in", "out")


def check_gaps(req: dict, out: str, rng: random.Random, code: int):
    meta = req["meta"]
    spec, tau, gamma = meta["alpha"], parse_frac(meta["tau"]), parse_frac(meta["gamma"])
    obj = json.loads(out)
    reports = obj["reports"]
    depth = int(req["argv"][req["argv"].index("--depth") + 1])
    quotients = alpha_quotients(spec, depth + 2)
    ps, qs = convergents(quotients)
    errors = []
    unresolved = False
    for rep in reports:
        n = rep["n"]
        if rep["a_next"] != quotients[n + 2]:
            errors.append(f"gap report {n}: a_next differs from the expansion")
            break
        width = abs(Fraction(ps[n + 2], qs[n + 2]) - Fraction(ps[n], qs[n]))
        base = [(gamma / pow_range(q, tau + 1, 64)[1], gamma / pow_range(q, tau + 1, 64)[0])
                for q in (qs[n], qs[n + 2])]
        need = (base[0][0] + base[1][0], base[0][1] + base[1][1])
        w_lo, w_hi = pow_range(qs[n + 2], tau - 1, 64)
        need_s = (need[0] + 2 * gamma / w_hi, need[1] + 2 * gamma / w_lo)
        for key, (lo, hi) in (("gap", need), ("gap_strict", need_s)):
            got = rep[key]
            unresolved = unresolved or got == "unresolved"
            if (hi < width and got == "fails") or (lo >= width and got == "holds"):
                errors.append(f"gap report {n}: {key} says {got} against the direct comparison")
    if len(reports) != max(depth - 1, 0):
        errors.append("gap report count differs from depth - 1")
    if (code == 2) != unresolved:
        errors.append(f"exit code {code} does not match the unresolved reports")
    return errors, not unresolved


def check_cf(req: dict, out: str, rng: random.Random):
    spec = req["meta"]["alpha"]
    obj = json.loads(out)
    depth = int(req["argv"][req["argv"].index("--depth") + 1])
    quotients = alpha_quotients(spec, depth)
    ps, qs = convergents(quotients)
    errors = []
    if obj["quotients"] != quotients:
        errors.append("quotients differ from the expansion")
    if [(c["p"], c["q"]) for c in obj["convergents"]] != list(zip(ps, qs)):
        errors.append("convergents differ from the recurrence")
    lo, hi = parse_frac(obj["value"]["lo"]), parse_frac(obj["value"]["hi"])
    a_lo, a_hi = alpha_range(spec, 300)
    if a_hi < lo or a_lo > hi:
        errors.append("value enclosure misses alpha")
    if spec.startswith("quad:") and (obj["preperiod"], obj["period"]) != quad_cycle(spec):
        errors.append("preperiod/period differ from the state cycle")
    return errors, None


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def check_census(req: dict, out: str, rng: random.Random):
    meta = req["meta"]
    obj = json.loads(out)
    n = meta["n"]
    ps, qs = convergents(alpha_quotients(meta["alpha"], n + 3))
    ends = sorted((Fraction(ps[n], qs[n]), Fraction(ps[n + 2], qs[n + 2])))
    lo, hi = parse_frac(obj["window"][0]), parse_frac(obj["window"][1])
    width = parse_frac(obj["window_measure"])
    excluded = parse_frac(obj["complement_measure_in_window"])
    tail = parse_frac(obj["tail_bound"])
    errors = []
    if [lo, hi] != ends:
        errors.append("census window is not [p_n/q_n, p_(n+2)/q_(n+2)]")
    if width != hi - lo or not 0 <= excluded <= width or tail <= 0:
        errors.append("census measures are inconsistent with the window")
    if obj["verdict"] != (width - excluded - tail > 0):
        errors.append("census verdict differs from residual = width - excluded - tail > 0")
    return errors, obj["verdict"]


def check_bf(req: dict, out: str, rng: random.Random):
    meta = req["meta"]
    spec, tau, qmax = meta["alpha"], parse_frac(meta["tau"]), meta["qmax"]
    lo_s, hi_s, q_s = out.strip().split(",")
    lo, hi, argmin = parse_frac(lo_s), parse_frac(hi_s), int(q_s)
    errors = []
    if lo > hi or not 1 <= argmin <= qmax:
        return [f"brute force result [{lo}, {hi}] at q={argmin} is malformed"], None
    quality = Quality(spec, tau)
    if spec.startswith("quad:") and tau.denominator == 1:
        o_lo, o_hi = quality.scan(argmin)
        if o_hi < lo or o_lo > hi:
            errors.append(f"q^tau||q alpha|| at the argmin q={argmin} is outside the result")
    for q in range(1, min(qmax, BRUTE_CUTOFF) + 1):
        if quality.scan(q)[1] < lo:
            errors.append(f"q={q} lies below the reported minimum")
            break
    return errors, None


def _band_partial_sums(exponent: Fraction, checkpoints: list[int]) -> list[Interval]:
    out, lo, hi, prev = [], 0, 0, 1
    scale = 1 << 64
    for m in sorted(checkpoints):
        for q in range(prev + 1, m + 1):
            w_lo, w_hi = pow_range(q, exponent, 64)
            lo += (scale * w_hi.denominator) // w_hi.numerator
            hi += -((-scale * w_lo.denominator) // w_lo.numerator)
        prev = m
        out.append((Fraction(lo, scale), Fraction(hi, scale)))
    return out


def check_bands(req: dict, out: str, rng: random.Random):
    meta = req["meta"]
    tau = parse_frac(meta["tau"])
    obj = json.loads(out)
    band, pinch = tau * tau - 3 * tau - 1, 2 * tau * tau - 2 * tau - 3
    errors = []
    if (parse_frac(obj["band_exponent"]), parse_frac(obj["pinch_exponent"])) != (band, pinch):
        errors.append("series exponents differ from tau^2-3tau-1 and 2tau^2-2tau-3")
    if (obj["band_converges"], obj["pinch_converges"]) != (band > 1, pinch > 1):
        errors.append("convergence flags differ from exponent > 1")
    sums = obj["partial_sums"]
    cks = meta["checkpoints"]
    if [s[0] for s in sums] != sorted(cks):
        errors.append("partial sums do not follow the checkpoints")
    elif cks:
        for (m, lo, hi), (o_lo, o_hi) in zip(sums, _band_partial_sums(band, cks)):
            lo, hi = parse_frac(lo), parse_frac(hi)
            if lo > hi or o_hi < lo or o_lo > hi:
                errors.append(f"partial sum to {m} misses sum q^-(band exponent)")
                break
    if "m" in meta:
        if parse_frac(obj["union_measure"]) <= 0:
            errors.append("band union bound is not positive")
        tail = obj["union_tail"]
        if (tail is None) == (band > 1) or (tail is not None and parse_frac(tail) <= 0):
            errors.append("band union tail missing for a convergent series, or not positive")
    return errors, None


def check(req: dict, out: str, code: Optional[int], rng: random.Random):
    """Errors and proven-verdict flag for one completed request."""
    cmd = req["cmd"]
    allowed = (0, 2) if cmd in ("member", "gaps") else (0,)
    if code not in allowed:
        return [f"exit code {code}"], False
    if cmd == "member":
        return check_member(req, out, rng, code)
    if cmd == "gaps":
        return check_gaps(req, out, rng, code)
    checker = {"set": check_set, "sweep": check_sweep, "gamma": check_gamma,
               "cf": check_cf, "census": check_census, "bf": check_bf,
               "bands": check_bands}[cmd]
    return checker(req, out, rng)
