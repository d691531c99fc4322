"""Seeded request streams for the three benchmark workloads.

A stream is an endless sequence of rounds.  Every round holds the same
multiset of request classes, so two seeds differ only in the parameters
drawn inside each class, never in the mix; that keeps the latency
percentiles of a run comparable across seeds.  Parameters that scale the
work (cutoffs, depths) are drawn by ``Strata``, which covers equal slices of
their range evenly, and discrete choices by ``Balanced``.

Each request is a plain dict:

* ``i``     — position in the stream, and ``round`` — index of its round;
* ``cmd``   — CLI subcommand, or ``bf`` for ``brute_force_gamma``;
* ``argv``  — CLI arguments (``cache`` requests get ``--cache-dir`` added by
  the worker), or ``call`` with the library arguments for ``bf``;
* ``meta``  — what the output checks need, plus ``radicand_bits`` for
  quadratic alphas (bit length of the radicand after the normalisation
  Q | D - P^2 that the continued-fraction recurrence works in).

The only program code used here is ``quadratic_from_periodic``, the public
constructor the workload is defined by.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Iterator

INT_TAUS = ("3", "4", "5")
FRAC_TAUS = ("5/2", "7/2", "9/2")
SIEVE_GAMMAS = ("1/12", "1/10", "1/8", "1/6")
TICK_ALPHAS = ("quad:-1,5,2", "quad:921,621,2770", "quad:1,3,2", "rat:7/10")


class Strata:
    """Integers from [lo, hi]: each block of k draws takes one value from
    each of k equal slices of the range, in seeded order."""

    def __init__(self, rng: random.Random, lo: int, hi: int, k: int = 8):
        self.rng, self.lo, self.hi, self.k = rng, lo, hi, k
        self.pending: list[int] = []

    def draw(self) -> int:
        if not self.pending:
            self.pending = list(range(self.k))
            self.rng.shuffle(self.pending)
        j = self.pending.pop()
        span = self.hi - self.lo + 1
        a = self.lo + span * j // self.k
        b = self.lo + span * (j + 1) // self.k - 1
        return self.rng.randint(a, max(a, b))


class Balanced:
    """Choices from a fixed list: each block of len(items) draws is a
    seeded permutation of the list."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items = rng, tuple(items)
        self.pending: list = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def normalized_radicand(p: int, d: int, q: int) -> int:
    """Radicand of (p + sqrt(d))/q once q divides d - p^2."""
    return d if (d - p * p) % q == 0 else d * q * q


def _rounds(rng: random.Random, make_round: Callable[[], list[dict]]) -> Iterator[dict]:
    i = 0
    for n in itertools.count():
        batch = make_round()
        rng.shuffle(batch)
        for req in batch:
            req["i"], req["round"] = i, n
            i += 1
            yield req


# ---------------------------------------------------------------------------
# sieve: exact truncated sets through `set` and `sweep`
# ---------------------------------------------------------------------------

def sieve(seed: int) -> Iterator[dict]:
    rng = random.Random(f"sieve:{seed}")
    ticks = Balanced(rng, TICK_ALPHAS)
    classes = [  # (format, tau choices, Q range); each class draws its own values
        ("json", INT_TAUS, (30, 75)),
        ("json", INT_TAUS, (75, 130)),
        ("json", INT_TAUS, (130, 180)),
        ("json", FRAC_TAUS, (20, 45)),
        ("json", FRAC_TAUS, (45, 70)),
        ("csv", INT_TAUS, (40, 140)),
        ("csv", FRAC_TAUS, (20, 55)),
        ("svg", INT_TAUS, (20, 60)),
        ("svg", FRAC_TAUS, (15, 40)),
    ]
    draws = [(fmt, Balanced(rng, SIEVE_GAMMAS), Balanced(rng, taus), Strata(rng, *qs))
             for fmt, taus, qs in classes]
    ladder = (Balanced(rng, ("qmax", "gamma")), Balanced(rng, INT_TAUS),
              Balanced(rng, SIEVE_GAMMAS), Strata(rng, 10, 90))
    repeat_class = Balanced(rng, range(len(classes)))
    repeats_per_round = 3
    history: list[list[dict]] = [[] for _ in classes]  # fresh set requests per class

    def set_request(fmt, gam, tau_draw, q_draw):
        gamma, tau, qmax = gam.draw(), tau_draw.draw(), q_draw.draw()
        argv = ["set", "--gamma", gamma, "--tau", tau, "--qmax", str(qmax),
                "--format", fmt]
        if fmt == "svg":
            argv += ["--alpha", ticks.draw()]
        return {"cmd": "set", "argv": argv, "cache": True,
                "meta": {"gamma": gamma, "tau": tau, "qmax": qmax, "format": fmt}}

    def sweep_request():
        kind, tau_draw, gam, q_draw = ladder
        tau = tau_draw.draw()
        if kind.draw() == "qmax":
            qs = sorted({q_draw.draw() for _ in range(3)})
            gammas = [gam.draw()]
            argv = ["sweep", "--tau", tau, "--gamma", gammas[0],
                    "--qmax-list", ",".join(map(str, qs))]
        else:
            qs = [q_draw.draw()]
            gammas = sorted({gam.draw() for _ in range(3)}, key=Fraction)
            argv = ["sweep", "--tau", tau, "--qmax", str(qs[0]),
                    "--gamma-list", ",".join(gammas)]
        return {"cmd": "sweep", "argv": argv, "cache": True,
                "meta": {"tau": tau, "gammas": gammas, "qmaxes": qs, "format": "json"}}

    i = 0
    for n in itertools.count():
        # a repeat re-sends the argv of an earlier set request, so the cache
        # is read; its output must equal that of the request that wrote the
        # entry
        batch = [(k, set_request(*d)) for k, d in enumerate(draws)] + [(None, sweep_request())]
        batch += [("repeat", None)] * repeats_per_round
        rng.shuffle(batch)
        if i == 0:
            batch.sort(key=lambda item: item[0] == "repeat")
        for k, req in batch:
            if k == "repeat":
                # the latest request of a class, so a hit costs what that
                # class costs rather than what a random earlier one did
                orig = (history[repeat_class.draw()] or [r for h in history for r in h])[-1]
                req = {"cmd": "set", "argv": list(orig["argv"]), "cache": True,
                       "meta": dict(orig["meta"], repeat_of=orig["i"])}
            elif k is not None:
                history[k].append(req)
            req["i"], req["round"] = i, n
            i += 1
            yield req


# ---------------------------------------------------------------------------
# certify: one alpha per request through gamma, member, gaps and cf
# ---------------------------------------------------------------------------

CERT_TAUS = ("1", "2", "3", "4", "5/2", "7/2")
MEMBER_GAMMAS = ("1/20", "1/10", "1/8", "1/5")
GAP_GAMMAS = ("1/20", "1/10", "1/6")
# bands of normalised-radicand bit length, for requests whose cost does not
# follow the field (cf, and the scan workload)
RADICAND_BANDS = {"A": (3, 10), "B": (11, 18), "D": (27, 40), "E": (41, 60)}
# bands of the bit length of the square-free kernel of the radicand, i.e. of
# the quadratic field; surd normalisation cost follows it (roughly one trial
# division per integer up to its square root).  Every band draws each bit
# length in turn.  The radicand itself stays within MAX_FIELD_RADICAND_BITS,
# since the primes of its square part cost as much as the kernel's root: a
# 40-bit radicand with a large prime factor makes one gamma request take
# 5-25 s, and a handful of those per run would swing the throughput.
KERNEL_BANDS = {"K1": range(2, 8), "K2": range(8, 14), "K3": range(14, 22)}
MAX_FIELD_RADICAND_BITS = 26
_SMALL_PRIMES = [p for p in range(2, 700) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def kernel_bits(n: int) -> int:
    """Bit length of the square-free part of n, for n < 700**3: after the
    primes below 700 are divided out, the cofactor is a prime, a product of
    two distinct primes, or the square of a prime."""
    k = 1
    for p in _SMALL_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            k *= p
    r = math.isqrt(n)
    return (k if r * r == n else k * n).bit_length()


def cycle_discriminant(cycle: list[int]) -> int:
    """Discriminant of the fixed point of the cycle's Mobius map; the
    quadratic alpha with this cycle lives in Q(sqrt of it)."""
    p1, p2, q1, q2 = 1, 0, 0, 1
    for a in cycle:
        p1, p2, q1, q2 = a * p1 + p2, p1, a * q1 + q2, q1
    return (q2 - p1) ** 2 + 4 * p2 * q1


class AlphaMaker:
    """Distinct quadratic alphas in (0, 1) from seeded periodic expansions,
    plus prefix and rational alphas."""

    def __init__(self, rng: random.Random):
        from dioph.contfrac import quadratic_from_periodic
        self.build = quadratic_from_periodic
        self.rng = rng
        self.seen: set[str] = set()

    def quad(self, band: str) -> tuple[str, int]:
        lo, hi = RADICAND_BANDS[band]
        long_words = band in ("D", "E")  # long prefixes reach big radicands
        for _ in range(20000):
            pre_len = self.rng.randint(2, 8) if long_words else self.rng.randint(0, 5)
            cyc_len = self.rng.randint(1, 4)
            prefix = [0] + [self.rng.randint(1, 9) for _ in range(pre_len)]
            cycle = [self.rng.randint(1, 9) for _ in range(cyc_len)]
            a = self.build(prefix, cycle)
            bits = normalized_radicand(a.p, a.d, a.q).bit_length()
            spec = f"quad:{a.p},{a.d},{a.q}"
            if lo <= bits <= hi and spec not in self.seen:
                self.seen.add(spec)
                return spec, bits
        raise RuntimeError(f"no quadratic alpha found in radicand band {band}")

    def field(self, kbits: int) -> tuple[str, int]:
        """A quadratic alpha whose radicand has a kbits-bit square-free kernel."""
        while True:
            cycle = [self.rng.randint(1, 9) for _ in range(self.rng.randint(1, 4))]
            if kernel_bits(cycle_discriminant(cycle)) != kbits:
                continue
            prefix = [0] + [self.rng.randint(1, 9) for _ in range(self.rng.randint(0, 5))]
            a = self.build(prefix, cycle)
            spec = f"quad:{a.p},{a.d},{a.q}"
            bits = normalized_radicand(a.p, a.d, a.q).bit_length()
            if bits <= MAX_FIELD_RADICAND_BITS and spec not in self.seen:
                self.seen.add(spec)
                return spec, bits

    def prefix(self, length: int) -> str:
        while True:
            qs = [self.rng.randint(1, 12) for _ in range(length)]
            spec = "cf:[0;" + ",".join(map(str, qs)) + "]"
            if spec not in self.seen:
                self.seen.add(spec)
                return spec

    def rational(self) -> str:
        while True:
            q = self.rng.randint(10 ** 4, 10 ** 9)
            p = self.rng.randint(1, q - 1)
            g = math.gcd(p, q)
            spec = f"rat:{p // g}/{q // g}"
            if spec not in self.seen:
                self.seen.add(spec)
                return spec


def certify(seed: int) -> Iterator[dict]:
    rng = random.Random(f"certify:{seed}")
    alphas = AlphaMaker(rng)
    tau = Balanced(rng, CERT_TAUS)
    mgam, ggam = Balanced(rng, MEMBER_GAMMAS), Balanced(rng, GAP_GAMMAS)
    depth = {b: Strata(rng, 20, 60) for b in ("K1", "K2", "K3", "P")}
    kernel = {b: Balanced(rng, bits) for b, bits in KERNEL_BANDS.items()}
    gap_depth = Strata(rng, 6, 16)
    gap_band = Balanced(rng, tuple(KERNEL_BANDS))
    cf_band = Balanced(rng, ("D", "E"))
    cf_depth = Strata(rng, 10, 40)
    prefix_len = Strata(rng, 12, 40)

    def quad_meta(band):
        if band in KERNEL_BANDS:
            spec, bits = alphas.field(kernel[band].draw())
        else:
            spec, bits = alphas.quad(band)
        return spec, {"alpha": spec, "radicand_bits": bits}

    def gamma_req(band):
        if band == "P":
            spec = alphas.prefix(prefix_len.draw())
            meta = {"alpha": spec}
        else:
            spec, meta = quad_meta(band)
        t = tau.draw()
        return {"cmd": "gamma", "argv": ["gamma", "--alpha", spec, "--tau", t,
                                          "--depth", str(depth[band].draw())],
                "meta": dict(meta, tau=t)}

    def member_req(band):
        if band == "R":
            spec = alphas.rational()
            meta = {"alpha": spec}
        else:
            spec, meta = quad_meta(band)
        t, g = tau.draw(), mgam.draw()
        return {"cmd": "member", "argv": ["member", "--alpha", spec, "--gamma", g,
                                           "--tau", t],
                "meta": dict(meta, tau=t, gamma=g)}

    def gaps_req(kind):
        d = gap_depth.draw()
        if kind == "P":
            spec = alphas.prefix(max(prefix_len.draw(), d + 2))
            meta = {"alpha": spec}
        else:
            spec, meta = quad_meta(gap_band.draw())
        t, g = tau.draw(), ggam.draw()
        return {"cmd": "gaps", "argv": ["gaps", "--alpha", spec, "--gamma", g,
                                         "--tau", t, "--depth", str(d)],
                "meta": dict(meta, tau=t, gamma=g)}

    def cf_req(kind):
        if kind == "R":
            spec = alphas.rational()
            meta = {"alpha": spec}
        else:
            spec, meta = quad_meta(cf_band.draw())
        return {"cmd": "cf", "argv": ["cf", "--alpha", spec, "--depth", str(cf_depth.draw())],
                "meta": meta}

    def make_round():
        return [gamma_req("K1"), gamma_req("K2"), gamma_req("K3"), gamma_req("P"),
                member_req("K1"), member_req("K2"), member_req("K3"), member_req("R"),
                gaps_req("Q"), gaps_req("P"), cf_req("Q"), cf_req("R")]

    return _rounds(rng, make_round)


# ---------------------------------------------------------------------------
# scan: loops over every denominator up to a cutoff
# ---------------------------------------------------------------------------

def _census_index(spec: str, qmax: int):
    """First n whose window between convergents n and n+2 (width
    a_{n+2}/(q_n q_{n+2})) holds at most about 300 fractions of denominator
    <= qmax (about 0.3 * qmax^2 * width of them), or None when q_{n+2}
    passes qmax first."""
    from oracles import alpha_quotients, convergents
    quotients = alpha_quotients(spec, 60)
    _ps, dens = convergents(quotients)
    for n in range(len(dens) - 2):
        if dens[n + 2] > qmax:
            return None
        if qmax * qmax * quotients[n + 2] <= 1000 * dens[n] * dens[n + 2]:
            return n
    return None


def scan(seed: int) -> Iterator[dict]:
    rng = random.Random(f"scan:{seed}")
    alphas = AlphaMaker(rng)
    band = Balanced(rng, ("A", "B"))
    census_q = Strata(rng, 1000, 3000)
    census_case = Balanced(rng, [(g, t) for g in ("1/20", "1/10", "1/8")
                                 for t in ("3", "4", "5/2", "7/2")])
    bf_int_q, bf_int_tau = Strata(rng, 4000, 15000), Balanced(rng, ("2", "3", "4"))
    bf_frac_q, bf_frac_tau = Strata(rng, 800, 2500), Balanced(rng, ("5/2", "7/2"))
    bf_pre_q, bf_pre_tau = Strata(rng, 800, 2500), Balanced(rng, ("2", "3", "5/2"))
    prefix_len = Strata(rng, 10, 30)
    ck_tau, ck_top = Balanced(rng, ("7/2", "4", "9/2", "5", "11/2")), Strata(rng, 1000, 3000)
    m_tau, m_low, m_q = Balanced(rng, ("7/2", "4", "9/2", "5")), Strata(rng, 1, 4, 4), Strata(rng, 40, 150)

    def census_req():
        qmax, n = census_q.draw(), None
        while n is None:
            spec, bits = alphas.quad(band.draw())
            n = _census_index(spec, qmax)
        g, t = census_case.draw()
        return {"cmd": "census",
                "argv": ["census", "--alpha", spec, "--gamma", g, "--tau", t,
                         "--n", str(n), "--qmax", str(qmax)],
                "meta": {"alpha": spec, "radicand_bits": bits, "gamma": g, "tau": t,
                         "n": n, "qmax": qmax}}

    def bf_req(kind):
        if kind == "prefix":
            spec, meta = alphas.prefix(prefix_len.draw()), {}
            t, qmax = bf_pre_tau.draw(), bf_pre_q.draw()
        else:
            spec, bits = alphas.quad(band.draw())
            meta = {"radicand_bits": bits}
            if kind == "int":
                t, qmax = bf_int_tau.draw(), bf_int_q.draw()
            else:
                t, qmax = bf_frac_tau.draw(), bf_frac_q.draw()
        return {"cmd": "bf", "call": {"alpha": spec, "tau": t, "qmax": qmax},
                "meta": dict(meta, alpha=spec, tau=t, qmax=qmax)}

    def bands_ck_req():
        t, top = ck_tau.draw(), ck_top.draw()
        cks = [100, top // 3, top]
        return {"cmd": "bands",
                "argv": ["bands", "--tau", t, "--checkpoints", ",".join(map(str, cks))],
                "meta": {"tau": t, "checkpoints": cks}}

    def bands_m_req():
        t, m, q = m_tau.draw(), m_low.draw(), m_q.draw()
        return {"cmd": "bands",
                "argv": ["bands", "--tau", t, "--m", str(m), "--qmax", str(q)],
                "meta": {"tau": t, "checkpoints": [], "m": m}}

    def make_round():
        return [census_req(), census_req(), census_req(),
                bf_req("int"), bf_req("frac"), bf_req("prefix"),
                bands_ck_req(), bands_m_req()]

    return _rounds(rng, make_round)


STREAMS = {"sieve": sieve, "certify": certify, "scan": scan}
