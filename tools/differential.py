#!/usr/bin/env python3
"""Same-bytes differential between two source trees of dioph.

    python3 tools/differential.py --base DIR --head DIR --seed S --requests N
        [--workload certify|scan|sieve] [--time]

builds one seeded list of requests and runs it in one process per tree, with
that tree's ``src`` first on ``sys.path``.  The list holds

* N command-line requests: every command with every ``--format`` it accepts;
  rational, quadratic (denominators of both signs) and ``cf:`` alphas;
  integer and fractional tau; precisions down to 1 bit, where a division
  meets an enclosure containing 0 soonest; and error paths (census windows
  below 0 and at ``--n`` below 0, ``gaps`` at gamma <= 0, tau below 1 or
  ``--depth`` below 2, ``--nmax 0``, ``--checkpoints`` and ``--budget``
  below 1, ``--prec`` below 1, ``--pinch-c`` at most 0, empty or not
  a rational (with and without ``--band``), malformed
  ``--band``, ``--checkpoints`` and ``--qmax-list`` lists, empty
  ``--qmax-list`` and ``--gamma-list`` lists, ``set`` and ``sweep`` JSON
  with a malformed ``--alpha``, bad specs and flags, a bad
  ``DIOPH_PRECISION_CAP``);
* the fixed requests of ``fixed_cli_requests``: ``gamma``, ``member`` and
  ``cf`` on radicands of 41 to 60 bits (``BIG_ROOTS``), ``gamma --depth
  200`` at tau 1 to 5 on those radicands, ``member`` and ``gamma`` at
  ``--prec 1`` and ``--prec 2`` on quadratics at integer tau (``LOW_PREC``;
  one of them with a negative denominator), where row enclosures overlap
  and the least row is found by exact comparisons, one malformed
  rational for each option that takes a rational, and the out-of-range
  options of ``OPTION_PROBES`` (``bands --qmax 0`` and ``bands --nmax 0``
  without ``--m``, ``bands --c1 1/2 --c2 1/4``, ``bands --m`` above
  ``--qmax``, ``set``/``sweep --qmax 0``, ``cf``/``gamma --depth 0`` and
  ``census --qmax 0``);
* ``BF_CALLS`` calls of ``brute_force_gamma`` on seeded rational, quadratic
  and prefix alphas (a third each; prefixes with and without a tail bound)
  over nine taus, Qmax <= 600 and precision 1, 4, 8, 32, 64 or 256;
* the ``bf`` requests among the first ``SCAN_REQUESTS`` requests of the
  benchmark's ``scan`` workload (``bench/workloads.py`` of the head tree) for
  each seed of ``SCAN_SEEDS``;
* ``LIB_CALLS`` calls of the library functions in ``LIB_FUNCTIONS``, which
  no command reaches, on seeded alphas of every kind (prefixes with and
  without a tail bound), integer and fractional tau (and tau below 1) and
  precisions down to 1 bit;
* with ``--workload W``, the first N requests of the benchmark's stream W
  at seed S (``bench/workloads.py`` of the head tree); a request that the
  benchmark sends with ``--cache-dir`` gets a fresh directory per tree.

A command-line request is compared on its stdout, stderr and exit code, a
``brute_force_gamma`` call on (lo, hi, bits, q) of its result, a library
call on the ``repr`` of its result; an exception is compared on its type
and message.  Requests that differ are printed
grouped by command; the exit code is 1 when any differ, else 0.  The trees
run one after the other, and the reported time is their sum.

``--time`` adds a table of the ``perf_counter`` time of each request, summed
per group: for each group its request count, the base and head sums in
seconds and the head/base ratio.  A group is the command (``brute_force_gamma``
for its calls, the function's name for a library call); ``gamma`` and
``member`` are split by alpha kind (``rat``, ``quad``, ``cf``) and by
integer or fractional tau, and requests of a ``--workload`` stream are
grouped apart under its name.  The table only reports: the exit code still
means only that bytes differ.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from unittest import mock

TAUS = ("1", "3/2", "2", "5/2", "3", "7/2", "4", "9/2", "11/3")
GAMMAS = ("1/20", "1/10", "1/8", "1/6", "1/4", "1/3", "0.05")
PRECS = ("1", "4", "8", "32", "64", "256")
BF_CALLS = 360
SCAN_SEEDS = range(1, 7)
SCAN_REQUESTS = 160
LIB_CALLS = 330
LIB_FUNCTIONS = ("quotient_growth_table", "power_approx_margin", "tau_bounds", "gamma_parity",
                 "detect_isolation", "window_margin_table", "check_gap", "check_gap_strict",
                 "gap_threshold", "gap_threshold_strict", "pinch_band")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

def rat_alpha(rng: random.Random, den_max: int = 400) -> str:
    den = rng.randint(2, den_max)
    return f"rat:{rng.randint(1, den - 1)}/{den}"


def quad_alpha(rng: random.Random, unit: bool = True) -> str:
    """(P + sqrt(D))/Q with Q of either sign; in (0, 1) when unit."""
    d = rng.randint(2, 5000)
    while math.isqrt(d) ** 2 == d:
        d = rng.randint(2, 5000)
    s, q = math.isqrt(d), rng.randint(1, 40) * rng.choice((1, -1))
    if not unit:
        return f"quad:{rng.randint(-60, 60)},{d},{q}"
    # 0 < P + sqrt(D) < Q for Q > 0, Q < P + sqrt(D) < 0 for Q < 0
    p = rng.randint(-s, q - s - 1) if q > 0 else rng.randint(q - s, -s - 1)
    return f"quad:{p},{d},{q}"


def cf_alpha(rng: random.Random, max_len: int = 12) -> str:
    qs = [rng.randint(1, 9) for _ in range(rng.randint(1, max_len))]
    return "cf:[0;" + ",".join(map(str, qs)) + "]"


def any_alpha(rng: random.Random) -> str:
    kind = rng.random()
    if kind < 0.3:  # a tenth of them outside (0, 1)
        if rng.random() >= 0.9:
            return f"rat:{rng.randint(-3, 5)}/{rng.randint(1, 3)}"
        return rat_alpha(rng)
    if kind < 0.7:
        return quad_alpha(rng, unit=rng.random() < 0.85)
    return cf_alpha(rng)


def _common(rng: random.Random) -> list[str]:
    return ["--prec", rng.choice(PRECS)] if rng.random() < 0.5 else []


def cli_request(rng: random.Random) -> dict:
    cmd = rng.choice(("cf", "gamma", "member", "set", "census", "gaps", "bands",
                      "sweep", "error"))
    tau, gamma = rng.choice(TAUS), rng.choice(GAMMAS)
    if cmd == "cf":
        argv = ["cf", "--alpha", any_alpha(rng), "--depth", str(rng.randint(1, 25)),
                "--format", rng.choice(("json", "csv"))]
    elif cmd == "gamma":
        argv = ["gamma", "--alpha", any_alpha(rng), "--tau", tau,
                "--depth", str(rng.randint(1, 16))]
    elif cmd == "member":
        argv = ["member", "--alpha", any_alpha(rng), "--gamma", gamma, "--tau", tau,
                "--budget", str(rng.randint(1, 25))]
    elif cmd == "set":
        argv = ["set", "--gamma", gamma, "--tau", tau, "--qmax", str(rng.randint(1, 60)),
                "--format", rng.choice(("json", "csv", "svg"))]
        if rng.random() < 0.3:
            argv += ["--alpha", any_alpha(rng)]
    elif cmd == "census":
        argv = ["census", "--alpha", quad_alpha(rng) if rng.random() < 0.7 else cf_alpha(rng, 20),
                "--gamma", gamma, "--tau", tau, "--n", str(rng.randint(-1, 4)),
                "--qmax", str(rng.randint(20, 200))]
    elif cmd == "gaps":
        argv = ["gaps", "--alpha", any_alpha(rng), "--gamma", gamma, "--tau", tau,
                "--depth", str(rng.randint(2, 10)), "--format", rng.choice(("json", "csv"))]
    elif cmd == "bands":
        argv = ["bands", "--tau", tau, "--format", rng.choice(("json", "csv"))]
        if rng.random() < 0.5:
            argv += ["--checkpoints", ",".join(str(rng.randint(1, 400)) for _ in range(3))]
        if rng.random() < 0.5:
            triples = []
            for _ in range(rng.randint(1, 3)):
                q = rng.randint(1, 30)
                triples.append(f"{q},{rng.randint(0, q)},{rng.randint(1, 5)}")
            argv += ["--band", ";".join(triples)]
            if rng.random() < 0.5:
                argv += ["--pinch-c", rng.choice(("1/4", "1/2", "1")),
                         "--band-variant", rng.choice(("p", "q"))]
        if rng.random() < 0.5:
            argv += ["--m", str(rng.randint(1, 4)), "--qmax", str(rng.randint(5, 60)),
                     "--nmax", str(rng.choice((0, 1, 8, 64)))]
    elif cmd == "sweep":
        argv = ["sweep", "--tau", tau, "--format", rng.choice(("json", "csv", "svg"))]
        if rng.random() < 0.5:
            argv += ["--gamma-list", ",".join(rng.sample(GAMMAS[:6], rng.randint(1, 3)))]
        else:
            argv += ["--gamma", gamma]
        qmaxes = [str(rng.randint(1, 40)) for _ in range(rng.randint(1, 3))]
        argv += ["--qmax-list", ",".join(qmaxes)]
        if rng.random() < 0.3:
            argv += ["--alpha", any_alpha(rng)]
    else:
        argv = rng.choice((
            ["nosuch"],
            ["gamma", "--alpha", "bogus:1", "--tau", tau],
            ["gamma", "--alpha", quad_alpha(rng), "--tau", "1/2"],
            ["gamma", "--alpha", quad_alpha(rng), "--tau", tau, "--format", "csv"],
            ["gamma", "--alpha", quad_alpha(rng), "--tau", tau, "--depth", "0"],
            ["member", "--alpha", rat_alpha(rng), "--gamma", "0", "--tau", tau],
            ["set", "--gamma", gamma, "--tau", tau, "--qmax", "0"],
            ["cf", "--alpha", "cf:[0;]"],
            ["cf", "--alpha", "quad:1,4,2"],
            ["cf", "--alpha", "quad:1,5,0"],
            ["bands", "--tau", "1"],
            ["census", "--alpha", quad_alpha(rng), "--gamma", gamma, "--tau", tau,
             "--n", "-2", "--qmax", str(rng.randint(20, 200))],
            ["gaps", "--alpha", any_alpha(rng), "--gamma=" + rng.choice(("0", "-1/10")),
             "--tau", tau],
            ["bands", "--tau", tau, "--band", rng.choice(("1,2", "2,16,x", "2,16,1;"))],
            ["bands", "--tau", tau, "--checkpoints", rng.choice(("x", "10,1/2"))],
            ["sweep", "--tau", tau, "--qmax-list", rng.choice(("3,x", "3,,4.5"))],
            ["gaps", "--alpha", any_alpha(rng), "--gamma", gamma, "--tau", tau,
             "--depth=" + rng.choice(("1", "0", "-3"))],
            ["bands", "--tau", tau, "--checkpoints", rng.choice(("0", "0,-5", "10,-1"))],
            ["member", "--alpha", any_alpha(rng), "--gamma", gamma, "--tau", tau,
             "--budget=" + rng.choice(("0", "-1", "-3"))],
            ["cf", "--alpha", any_alpha(rng), "--depth", "3",
             "--prec=" + rng.choice(("0", "-8"))],
            ["gaps", "--alpha", any_alpha(rng), "--gamma", gamma,
             "--tau=" + rng.choice(("0", "-3", "1/2"))],
            ["sweep", "--tau", tau, rng.choice(("--qmax-list", "--gamma-list")), ",",
             "--format", rng.choice(("json", "csv", "svg"))],
            [*rng.choice((["set", "--gamma", gamma, "--qmax", "5"], ["sweep"])), "--tau", tau,
             "--alpha", rng.choice(("bogus", "quad:1,4,2", "cf:[0;]"))],
            ["bands", "--tau", tau, "--band", "2,3,4", "--pinch-c=" + rng.choice(("0", "-1"))],
            ["bands", "--tau", tau, *rng.choice((["--band", "2,3,4"], [])),
             "--pinch-c=" + rng.choice(("-1", "x", ""))],
        ))
        return {"kind": "cli", "argv": argv, "env": {}}
    env = {}
    if rng.random() < 0.05:
        env = {"DIOPH_PRECISION_CAP": rng.choice(("abc", "0", "16"))}
    return {"kind": "cli", "argv": argv + _common(rng), "env": env}


# x^2 + 1 for these x, of 41, 51, 56 and 60 bits, expands sqrt(x^2 + 1) with
# period 1; the 41- and 51-bit ones have a prime factor above 100,000 and the
# 56-bit one is 100129^2 * 4687685, so that trial division to 100,000 reduces
# none of them fully
BIG_ROOTS = (1048579, 33554439, 216789922, 1073741821)
# unit quadratics at integer tau read at 1 and 2 bits; (-4 + sqrt(7))/(-5)
# has a negative denominator that does not divide 7 - 4^2, so its tails are
# over 25*7
LOW_PREC = ("quad:-1,5,2", "quad:-4,7,-5", f"quad:{-BIG_ROOTS[0]},{BIG_ROOTS[0] ** 2 + 1},3")
MALFORMED_RATIONALS = (
    ["gamma", "--alpha", "rat:1/3", "--tau", "x"],
    ["member", "--alpha", "rat:1/3", "--gamma", "x", "--tau", "2"],
    ["set", "--gamma", "1/10", "--tau", "1/0"],
    ["bands", "--tau", "4", "--pinch-c", "x"],
    ["bands", "--tau", "4", "--m", "2", "--c1", "x"],
    ["bands", "--tau", "4", "--m", "2", "--c2", "1/"],
    ["sweep", "--tau", "4", "--gamma-list", "1/10,x"],
)
OPTION_PROBES = (
    ["bands", "--tau", "4", "--qmax", "0"],
    ["bands", "--tau", "4", "--nmax", "0"],
    ["bands", "--tau", "4", "--m", "2", "--c1", "1/2", "--c2", "1/4"],
    ["bands", "--tau", "4", "--m", "40", "--qmax", "30"],
    ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "0"],
    ["sweep", "--tau", "4", "--qmax", "0"],
    ["cf", "--alpha", "quad:-1,5,2", "--depth", "0"],
    ["gamma", "--alpha", "quad:-1,5,2", "--tau", "1", "--depth", "0"],
    ["census", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4", "--n", "1",
     "--qmax", "0"],
)


def fixed_cli_requests() -> list[dict]:
    """Unit alphas (P + sqrt(D))/Q over each radicand of ``BIG_ROOTS``, with
    Q = 1, Q = 3 (tails over 9*D) and Q = -7, each at depth 12 and one of
    them at depth 200 for each tau from 1 to 5; the ``LOW_PREC`` alphas at 1
    and 2 bits; then ``MALFORMED_RATIONALS`` and ``OPTION_PROBES``."""
    argvs = []
    for x in BIG_ROOTS:
        d = x * x + 1
        alphas = (f"quad:{-x},{d},1", f"quad:{-x},{d},3", f"quad:{-x - 5},{d},-7")
        for alpha in alphas:
            argvs += [["gamma", "--alpha", alpha, "--tau", "1", "--depth", "12"],
                      ["member", "--alpha", alpha, "--gamma", "1/10", "--tau", "2",
                       "--budget", "12"],
                      ["cf", "--alpha", alpha, "--depth", "16"]]
        argvs += [["gamma", "--alpha", alphas[tau % 3], "--tau", str(tau), "--depth", "200"]
                  for tau in range(1, 6)]
    for alpha in LOW_PREC:
        for prec in ("1", "2"):
            for tau in ("1", "2", "4"):
                argvs += [["gamma", "--alpha", alpha, "--tau", tau, "--depth", "40",
                           "--prec", prec],
                          ["member", "--alpha", alpha, "--gamma", "1/10", "--tau", tau,
                           "--budget", "40", "--prec", prec]]
    return [{"kind": "cli", "argv": argv, "env": {}}
            for argv in argvs + list(map(list, MALFORMED_RATIONALS + OPTION_PROBES))]


def bf_request(rng: random.Random, kind: str) -> dict:
    tail, qmax = None, rng.randint(1, 600)
    if kind == "rat":
        alpha = rat_alpha(rng, 600)  # ||q*alpha|| = 0 inside the range too
        if rng.random() < 0.5:
            # below a small denominator rows often tie, and the least q is kept
            alpha = rat_alpha(rng, 40)
            qmax = rng.randint(1, int(alpha.split("/")[1]))
    elif kind == "quad":
        alpha = quad_alpha(rng, unit=rng.random() < 0.8)
    else:
        alpha = cf_alpha(rng, 10)
        if rng.random() < 0.5:
            tail = ["1", str(rng.randint(1, 12))]
    return {"kind": "bf", "alpha": alpha, "tail": tail, "tau": rng.choice(TAUS),
            "qmax": qmax, "precision": int(rng.choice(PRECS))}


def lib_request(rng: random.Random, fn: str) -> dict:
    """One call of `fn`: an alpha is its spec, a rational its text."""
    tau = rng.choice(TAUS) if rng.random() < 0.95 else rng.choice(("1/2", "0"))
    gamma, prec = rng.choice(GAMMAS), int(rng.choice(PRECS))
    alpha, kwargs = any_alpha(rng), {}
    if fn == "quotient_growth_table":
        args = [alpha, gamma, tau, rng.randint(2, 12), rng.choice(("0", "1/2", "1", "3/2")),
                rng.choice(("1", "1/3", "2")), prec]
    elif fn == "power_approx_margin":  # integer tau and k > tau + 1, or an error
        k = Fraction(tau) + Fraction(rng.choice(("1", "3/2", "2", "7/2")))
        args = [rng.choice(GAMMAS + ("1/2",)), tau, str(k), rng.randint(1, 80), prec]
    elif fn == "tau_bounds":
        args = [alpha, rng.randint(1, 20)]
    elif fn == "gamma_parity":
        args = [alpha, tau, rng.randint(1, 12), prec]
    elif fn == "detect_isolation":
        args = [alpha, gamma, tau, rng.randint(1, 15), prec]
    elif fn == "window_margin_table":
        args = [alpha, gamma, tau, rng.randint(0, 4), rng.randint(1, 200), prec]
    elif fn in ("check_gap", "check_gap_strict"):
        args = [alpha, gamma, tau, rng.randint(0, 5), prec]
    elif fn in ("gap_threshold", "gap_threshold_strict"):
        q_n = rng.randint(1, 30)
        q_n1 = q_n * rng.randint(1, 6) + rng.randint(0, 30)
        args = [q_n, q_n1, q_n1 * rng.randint(1, 9) + q_n, gamma, tau, prec]
    else:  # pinch_band
        q = rng.randint(1, 30)
        args = [q, rng.randint(0, q), rng.randint(1, 5), tau,
                rng.choice(("1/4", "1/2", "1", "0")), prec]
        kwargs = {"variant": rng.choice(("p", "q"))}
    tail = None
    if alpha.startswith("cf:") and rng.random() < 0.5:
        tail = ["1", str(rng.randint(1, 12))]
    return {"kind": "lib", "fn": fn, "args": args, "kwargs": kwargs, "tail": tail}


def _workloads(head: str):
    """The benchmark's request streams, ``bench/workloads.py`` of the head tree."""
    sys.path[:0] = [os.path.join(head, "src"), os.path.join(head, "bench")]
    import workloads  # noqa: E402
    return workloads


def _bf_of(call: dict, label: str) -> dict:
    return {"kind": "bf", "alpha": call["alpha"], "tail": None, "tau": call["tau"],
            "qmax": call["qmax"], "precision": None, "label": label}


def scan_bf_requests(head: str) -> list[dict]:
    out, workloads = [], _workloads(head)
    for seed in SCAN_SEEDS:
        for req in workloads.scan(seed):
            if req["i"] >= SCAN_REQUESTS:
                break
            if req["cmd"] == "bf":
                out.append(_bf_of(req["call"], f"scan seed {seed} #{req['i']}"))
    return out


def workload_requests(head: str, name: str, seed: int, count: int) -> list[dict]:
    """The first `count` requests of the benchmark's stream `name` at `seed`."""
    out = []
    for req in getattr(_workloads(head), name)(seed):
        if req["i"] >= count:
            break
        label = f"{name} seed {seed} #{req['i']}"
        out.append(_bf_of(req["call"], label) if req["cmd"] == "bf" else
                   {"kind": "cli", "argv": req["argv"], "env": {},
                    "cache": bool(req.get("cache")), "label": label})
        out[-1]["source"] = name
    return out


def build_requests(args) -> list[dict]:
    rng = random.Random(f"differential:{args.seed}")
    reqs = [cli_request(rng) for _ in range(args.requests)] + fixed_cli_requests()
    reqs += [bf_request(rng, ("rat", "quad", "prefix")[i % 3]) for i in range(BF_CALLS)]
    reqs += [lib_request(rng, LIB_FUNCTIONS[i % len(LIB_FUNCTIONS)]) for i in range(LIB_CALLS)]
    reqs += scan_bf_requests(args.head)
    if args.workload:
        reqs += workload_requests(args.head, args.workload, args.seed, args.requests)
    return reqs


# ---------------------------------------------------------------------------
# One tree
# ---------------------------------------------------------------------------

def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_tree(tree: str) -> None:
    """Run the requests read from stdin against the tree; results to stdout."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import dioph
    import dioph.cli
    from dioph.contfrac import PrefixAlpha

    def alpha_of(spec, tail):
        """The alpha of a spec; a prefix bounds its tails by `tail` when set."""
        alpha = dioph.parse_alpha(spec)
        return PrefixAlpha(alpha.quotients, *map(Fraction, tail)) if tail else alpha

    def lib_arg(x, tail):
        """An alpha from its spec, a Fraction from its text, an integer as itself."""
        if not isinstance(x, str):
            return x
        return alpha_of(x, tail) if ":" in x else Fraction(x)

    def run_one(req, cache_dir):
        if req["kind"] == "lib":
            try:
                args = [lib_arg(x, req["tail"]) for x in req["args"]]
                return [repr(getattr(dioph, req["fn"])(*args, **req["kwargs"]))]
            except Exception as exc:  # compared like any other result
                return _error(exc)
        if req["kind"] == "bf":
            try:
                alpha = alpha_of(req["alpha"], req["tail"])
                kw = {} if req["precision"] is None else {"precision": req["precision"]}
                enc, q = dioph.brute_force_gamma(alpha, Fraction(req["tau"]), req["qmax"], **kw)
                return [str(enc.lo), str(enc.hi), enc.bits, q]
            except Exception as exc:  # compared like any other result
                return _error(exc)
        argv = req["argv"] + (["--cache-dir", cache_dir] if req.get("cache") else [])
        out, err = io.StringIO(), io.StringIO()
        try:
            with mock.patch.dict(os.environ, req["env"]), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dioph.cli.run(argv)
        except Exception as exc:  # a traceback in the CLI, compared like a result
            code = _error(exc)
        return [out.getvalue(), err.getvalue(), code]

    reqs = json.load(sys.stdin)
    results, times = [], []
    with tempfile.TemporaryDirectory(prefix="dioph-differential-") as cache_dir:
        for req in reqs:
            start = time.perf_counter()
            results.append(run_one(req, cache_dir))
            times.append(time.perf_counter() - start)
    json.dump({"dioph": dioph.__file__, "results": results, "times": times}, sys.stdout)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _describe(req: dict) -> str:
    if req["kind"] == "lib":
        args = [repr(x) for x in req["args"]] + [f"{k}={v!r}" for k, v in req["kwargs"].items()]
        tail = f" tail={req['tail']}" if req["tail"] else ""
        return f"{req['fn']}({', '.join(args)}){tail}"
    label = f" ({req['label']})" if "label" in req else ""
    if req["kind"] == "cli":
        env = " ".join(f"{k}={v}" for k, v in req["env"].items())
        return (env + " " if env else "") + " ".join(req["argv"]) + label
    tail = f" tail={req['tail']}" if req["tail"] else ""
    return (f"brute_force_gamma({req['alpha']}{tail}, tau={req['tau']}, "
            f"qmax={req['qmax']}, precision={req['precision']}){label}")


def _differing(a, b) -> str:
    if isinstance(a, list) and isinstance(b, list) and len(a) == 3 and len(b) == 3:
        return ", ".join(name for name, x, y in zip(("stdout", "stderr", "exit code"), a, b)
                         if x != y)
    return f"{a!r} != {b!r}"


def _option(argv: list[str], name: str):
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def _time_group(req: dict) -> str:
    """The group a request is timed in (see the module docstring)."""
    if req["kind"] != "cli":
        name = req["fn"] if req["kind"] == "lib" else "brute_force_gamma"
    else:
        name = req["argv"][0]
        if name in ("gamma", "member"):
            kind, _sep, _spec = (_option(req["argv"], "--alpha") or "").partition(":")
            try:
                tau = "int" if Fraction(_option(req["argv"], "--tau")).denominator == 1 else "frac"
            except (TypeError, ValueError, ZeroDivisionError):
                tau = "bad"
            name += f" {kind if _sep else 'bad'} {tau}-tau"
    return f"{req['source']}: {name}" if "source" in req else name


def _time_report(reqs: list[dict], base: list[float], head: list[float]) -> list[str]:
    sums: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for req, tb, th in zip(reqs, base, head):
        entry = sums[_time_group(req)]
        entry[0] += 1
        entry[1] += tb
        entry[2] += th
    width = max(map(len, sums))
    lines = [f"{'time per group':<{width}}  count   base s   head s  head/base"]
    for group in sorted(sums):
        n, tb, th = sums[group]
        ratio = f"{th / tb:9.3f}" if tb > 0 else "        -"
        lines.append(f"{group:<{width}}  {n:5d} {tb:8.3f} {th:8.3f}  {ratio}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="root of the tree to compare against")
    ap.add_argument("--head", help="root of the tree under test")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--requests", type=int, default=1000, help="command-line requests")
    ap.add_argument("--workload", choices=("certify", "scan", "sieve"),
                    help="add the first N requests of this benchmark stream")
    ap.add_argument("--time", action="store_true", help="report time per request group")
    ap.add_argument("--run", help=argparse.SUPPRESS)  # internal: one tree's process
    args = ap.parse_args()
    if args.run:
        run_tree(args.run)
        return 0
    if not (args.base and args.head):
        ap.error("--base and --head are required")
    trees = [os.path.abspath(args.base), os.path.abspath(args.head)]
    args.head = trees[1]
    reqs = build_requests(args)
    payload = json.dumps(reqs).encode()
    start = time.perf_counter()
    procs = [subprocess.run([sys.executable, os.path.abspath(__file__), "--run", tree],
                            input=payload, stdout=subprocess.PIPE)
             for tree in trees]
    elapsed = time.perf_counter() - start
    if any(p.returncode for p in procs):
        print("a tree's process failed", file=sys.stderr)
        return 2
    base, head = (json.loads(p.stdout) for p in procs)
    for tree, res in zip(trees, (base, head)):
        if not res["dioph"].startswith(tree):
            print(f"{tree} ran dioph from {res['dioph']}", file=sys.stderr)
            return 2
    groups: dict[str, list[str]] = defaultdict(list)
    for req, a, b in zip(reqs, base["results"], head["results"]):
        if a != b:
            group = (req["argv"][0] if req["kind"] == "cli"
                     else req["fn"] if req["kind"] == "lib" else "brute_force_gamma")
            groups[group].append(f"  {_describe(req)}\n    differs in {_differing(a, b)}")
    kinds = Counter(r["kind"] for r in reqs)
    print(f"{len(reqs)} requests ({kinds['cli']} command-line, {kinds['bf']} brute_force_gamma, "
          f"{kinds['lib']} library) in {elapsed:.1f} s: {sum(map(len, groups.values()))} differ")
    # what the head returned, so that a list that only reaches errors shows
    outcomes = Counter((f"{req['kind']} " + ("ok" if isinstance(r, list) else "error"))
                       if req["kind"] != "cli"
                       else f"exit {r[2]}" if isinstance(r[2], int) else "exception"
                       for req, r in zip(reqs, head["results"]))
    print("head: " + ", ".join(f"{k} {v}" for k, v in sorted(outcomes.items())))
    for group in sorted(groups):
        print(f"{group}: {len(groups[group])}")
        print("\n".join(groups[group]))
    if args.time:
        print("\n".join(_time_report(reqs, base["times"], head["times"])))
    return 1 if groups else 0


if __name__ == "__main__":
    sys.exit(main())
