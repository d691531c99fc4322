"""One benchmark process: set up, signal ready, run a closed loop of requests.

Started by ``run.py``; not meant to be run by hand.  Set-up covers importing
``dioph`` from the checkout's ``src/``, generating the seeded request stream
and one warm-up CLI call that builds the parser.  ``ready`` is printed on
stdout when set-up ends, so the parent can time it from process start,
followed by ``cal <seconds>``, the median time of the calibration loop.

The calibration loop is fixed pure-Python work (exact Fraction sums and
integer arithmetic, no ``dioph``) run before every request, outside the
request's timing.  On a shared machine the speed of the processor drifts
by 20-40 % within a minute; each latency is divided by the median of the
calibration times around it and reported at the speed where the loop takes
``CAL_REF_S``, so results taken at different moments stay comparable.  The
run length is counted in the same units, so a run holds the same requests
however fast the machine happens to be.

Modes:

* ``setup``  — stop after set-up;
* ``plain``  — run requests one after another (one client, no overlap)
  until their latencies, normalised as below, add up to ``--seconds`` and
  at least ``MIN_REQUESTS`` have completed, stopping only between two rounds
  of the stream; or exactly the first ``--replay`` requests;
* ``traced`` — the same with per-layer spans.

Each output goes to a file in ``--rundir``; ``result.json`` there holds the
per-request records, peak memory and, when traced, the layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

MIN_REQUESTS = 100
CAL_SAMPLES = 5
CAL_REF_S = 0.002
CAL_WINDOW = 21
WARMUP_ARGV = ["cf", "--alpha", "rat:1/2", "--depth", "1"]


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction and integer arithmetic."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for k in range(1, 400):
        s += Fraction(1, k)
    x = 0
    for k in range(12000):
        x = (x * 31 + k) % 1000003
    return time.perf_counter() - t0


def load_program(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dioph", "cli.py")):
        raise SystemExit(f"no dioph sources under {src}")
    sys.path.insert(0, src)
    import dioph
    import dioph.cli
    if not os.path.abspath(dioph.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported dioph from {dioph.__file__}, not from {src}")
    return dioph


def run_cli(dioph, argv):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dioph.cli.run(argv)
        except Exception:  # a traceback is a failed request, not a failed run
            code, exc = None, traceback.format_exc()
    return out.getvalue(), err.getvalue(), code, exc


def run_bf(dioph, call):
    try:
        enc, q = dioph.brute_force_gamma(dioph.parse_alpha(call["alpha"]),
                                         Fraction(call["tau"]), call["qmax"])
    except Exception:
        return "", "", None, traceback.format_exc()
    return f"{enc.lo.numerator}/{enc.lo.denominator},{enc.hi.numerator}/{enc.hi.denominator},{q}\n", "", 0, None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--replay", type=int, default=0)
    ap.add_argument("--cap", type=float, default=120.0, help="wall-time limit of the loop")
    ap.add_argument("--rundir", default=None)
    args = ap.parse_args()

    dioph = load_program(args.root)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    stream = workloads.STREAMS[args.workload](args.seed)
    pending = next(stream)
    run_cli(dioph, WARMUP_ARGV)
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    cals = sorted(calibrate() for _ in range(CAL_SAMPLES))
    print(f"cal {cals[CAL_SAMPLES // 2]!r}", flush=True)
    if args.mode == "setup":
        return

    cache_dir = os.path.join(args.rundir, "cache")
    os.makedirs(cache_dir)
    out_dir = os.path.join(args.rundir, "out")
    os.makedirs(out_dir)
    records = []
    cache = {"hits": 0, "misses": 0, "bytes": 0}
    sieves = {"set_misses": 0, "calls": 0}
    rows = {"built": 0, "emitted": 0}
    recent_cals: list[float] = []
    busy = 0.0  # normalised seconds of request time
    start = time.perf_counter()
    while True:
        done = len(records)
        if time.perf_counter() - start >= args.cap:
            break
        if args.replay:
            if done >= args.replay:
                break
        elif (busy >= args.seconds and done >= MIN_REQUESTS
              and pending["round"] != records[-1]["req"]["round"]):
            break
        req = pending
        pending = next(stream)
        argv = req.get("argv")
        if req.get("cache"):
            argv = argv + ["--cache-dir", cache_dir]
        if tracer is not None:
            before = os.listdir(cache_dir) if req["cmd"] == "set" else None
            sieve_calls = tracer.fn["dioset.truncated_set"][0]
            rows_built = tracer.counts["quality.rows_built"]
            tracer.begin_request()
        cal = calibrate()
        t0 = time.perf_counter()
        if argv is not None:
            out, err, code, exc = run_cli(dioph, argv)
        else:
            out, err, code, exc = run_bf(dioph, req["call"])
        latency = time.perf_counter() - t0
        recent_cals = (recent_cals + [cal])[-CAL_WINDOW:]
        busy += latency * CAL_REF_S / sorted(recent_cals)[len(recent_cals) // 2]
        data = out.encode()
        if tracer is not None:
            tracer.end_request(req["i"], req["cmd"])
            if before is not None:
                new = set(os.listdir(cache_dir)) - set(before)
                if new:
                    cache["misses"] += 1
                    cache["bytes"] += sum(os.path.getsize(os.path.join(cache_dir, f)) for f in new)
                    sieves["set_misses"] += 1
                    sieves["calls"] += tracer.fn["dioset.truncated_set"][0] - sieve_calls
                else:
                    cache["hits"] += 1
            if req["cmd"] == "gamma":
                rows["built"] += tracer.counts["quality.rows_built"] - rows_built
                if code == 0:
                    rows["emitted"] += len(json.loads(out)["rows"])
        path = os.path.join(out_dir, f"{req['i']}.out")
        with open(path, "wb") as fh:
            fh.write(data)
        records.append({"req": req, "latency_s": latency, "cal_s": cal, "code": code,
                        "stderr": err[-2000:], "exception": exc,
                        "digest": hashlib.sha256(data).hexdigest()[:16]})
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": records, "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.dump(os.path.join(args.rundir, "spans.json"))
        result["trace"] = {
            "functions": dict(tracer.fn),
            "items": dict(tracer.items),
            "layers": tracer.layer_totals(),
            "counts": dict(tracer.counts),
            "den_bits": tracer.den_bits,
            "cache": cache, "sieves": sieves, "rows": rows,
        }
    with open(os.path.join(args.rundir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
