"""Benchmark for dioph: seeded request streams through the public entry points.

    python3 bench/run.py --workload {sieve,certify,scan} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-digests

Run from the root of a checkout.  Each workload runs in processes of its
own (``bench/worker.py``): one client sends requests one after another
(closed loop, nothing in parallel) through ``dioph.cli.run(argv)`` with
stdout captured, or through ``dioph.brute_force_gamma`` where no
subcommand exists.  The seed only shapes the generated inputs
(``bench/workloads.py``); the program receives the inputs alone.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
``SETUP_SAMPLES`` fresh processes, from process start until the first
request is ready), median and 90th-percentile latency, throughput
(completed requests per second of request time), peak resident memory of
the measuring process, and the share of verdicts that are proven.  Times
are normalised for machine speed: each is divided by the time of a fixed
calibration loop measured next to it (see ``worker.py``) and reported at
the speed where that loop takes ``CAL_REF_S``; the wall-clock figures are
printed as well.  ``--trace 1`` runs the same requests untraced and then
traced (``bench/tracing.py``) and prints per-layer self time (wall clock,
tracing overhead included) and counts, the non-blank source lines of each
module and the tracing overhead.

Every output is checked afterwards by the oracles in ``bench/oracles.py``;
with the default seed, output digests are also compared with
``bench/digests.json`` (``--record-digests`` rewrites that file).  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files go to ``.bench_out/`` in the
checkout; the spans of a traced run are kept there as
``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
from worker import CAL_REF_S, CAL_WINDOW  # noqa: E402

WORKLOADS = ("sieve", "certify", "scan")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0
DIGESTS = os.path.join(HERE, "digests.json")
RECORD_COUNTS = {"sieve": 500, "certify": 1500, "scan": 500}
MODULES = ("__init__", "arith", "bands", "cli", "contfrac", "dioset", "quality",
           "svgplot", "topology")
# per-function metrics: metric prefix -> span key recorded by the tracer
TIMED = {
    "svgplot.render_svg": "svgplot.render_svg",
    "dioset.truncated_set": "dioset.truncated_set",
    "dioset.open_union_complement": "dioset.open_union_complement",
    "dioset.measure": "dioset.IntervalSet.measure",
    "dioset.set_bracket": "dioset.set_bracket",
    "dioset.from_obj": "dioset.IntervalSet.from_obj",
    "dioset.to_obj": "dioset.IntervalSet.to_obj",
    "dioset.union_open_measure": "dioset.union_open_measure",
    "dioset.exclusion_radius": "dioset.exclusion_radius",
    "quality.brute_force_gamma": "quality.brute_force_gamma",
    "arith.surd": "arith.surd",
    "arith.cmp_certified": "arith.cmp_certified",
    "topology.census": "topology.census",
    "bands.exponents": "bands.exponents",
}
CALLS_ONLY = ("contfrac.cf_expand", "contfrac.tail_real", "dioset.fractions_in_interval")


class RunError(Exception):
    """The benchmark itself could not run (as opposed to a failed request)."""


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def spawn(args: argparse.Namespace, mode: str, deadline: float, rundir=None,
          replay: int = 0, cap: float = 0.0) -> tuple[float, float]:
    """Run one worker to completion; return its set-up time and its
    calibration time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--replay", str(replay), "--cap", str(cap)]
    if rundir:
        cmd += ["--rundir", rundir]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} worker did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    cal = out.split(b"\n", 1)[0].split()
    if line.strip() != b"ready" or proc.returncode != 0 or cal[:1] != [b"cal"]:
        raise RunError(f"{mode} worker failed (exit {proc.returncode}): "
                       f"{err.decode(errors='replace')[-2000:]}")
    return setup_s, float(cal[1])


def load_result(rundir: str) -> dict:
    with open(os.path.join(rundir, "result.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check_records(workload: str, seed: int, rundir: str, records: list[dict],
                  recorded: list[str]) -> tuple[int, list[bool], list[str]]:
    """(failed count, proven flags of verdict requests, first problems)."""
    by_index = {r["req"]["i"]: r for r in records}
    failed, proven, problems = 0, [], []
    for rec in records:
        req = rec["req"]
        i = req["i"]
        with open(os.path.join(rundir, "out", f"{i}.out"), encoding="utf-8") as fh:
            out = fh.read()
        if rec["exception"] or "Traceback" in rec["stderr"]:
            errors, ok = ["traceback: " + (rec["exception"] or rec["stderr"])[-500:]], False
        else:
            try:
                errors, ok = oracles.check(req, out, rec["code"],
                                           random.Random(f"check:{workload}:{seed}:{i}"))
            except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
                errors, ok = [f"output could not be read: {exc!r}"], False
        orig = req["meta"].get("repeat_of")
        if orig is not None and by_index[orig]["digest"] != rec["digest"]:
            errors.append(f"cache hit output differs from request {orig} that wrote it")
        if i < len(recorded) and recorded[i] != rec["digest"]:
            errors.append("output digest differs from the one recorded for the default seed")
        if ok is not None:
            proven.append(bool(ok) and not errors)
        if errors:
            failed += 1
            problems += [f"request {i} {req.get('argv') or req.get('call')}: {e}" for e in errors]
    return failed, proven, problems


def recorded_digests(workload: str, seed: int) -> list[str]:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, [])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def normalized(records: list[dict]) -> list[float]:
    """Latencies in reference seconds: each divided by the median of the
    calibration times around it and multiplied by CAL_REF_S."""
    cals = [r["cal_s"] for r in records]
    w = CAL_WINDOW // 2
    return [r["latency_s"] * CAL_REF_S / statistics.median(cals[max(0, i - w):i + w + 1])
            for i, r in enumerate(records)]


def latency_metrics(lat: list[float]) -> dict:
    return {
        "p50_ms": statistics.median(lat) * 1000,
        "p90_ms": statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000,
        "throughput_rps": len(lat) / sum(lat),
    }


def end_to_end(result: dict, setups: list[tuple[float, float]], proven: list[bool]):
    """(metrics, the same latency figures before normalisation)."""
    records = result["records"]
    lat = latency_metrics(normalized(records))
    raw = latency_metrics([r["latency_s"] for r in records])
    raw["setup_s"] = statistics.median(s for s, _cal in setups)
    # on sieve, set and sweep return exact sets rather than verdicts; an
    # exact set that passes its checks counts as a proven answer
    share = sum(proven) / max(len(proven), 1)
    metrics = {
        "setup_s": (statistics.median(s * CAL_REF_S / cal for s, cal in setups), "s"),
        "p50_ms": (lat["p50_ms"], "ms"),
        "p90_ms": (lat["p90_ms"], "ms"),
        "throughput_rps": (lat["throughput_rps"], "req/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "certified_share": (share, "ratio"),
    }
    return metrics, raw


def src_lines() -> dict:
    out, total = {}, 0
    for mod in MODULES:
        path = os.path.join(ROOT, "src", "dioph", f"{mod}.py")
        n = 0
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                n = sum(1 for line in fh if line.strip())
        total += n
        out[f"{mod.strip('_')}.src_lines"] = (n, "lines")
    out["total.src_lines"] = (total, "lines")
    return out


def per_layer(trace: dict, records: list[dict], overhead: float) -> dict:
    fns = trace["functions"]
    m = {}
    for layer, (calls, own) in trace["layers"].items():
        m[f"{layer}.self_s"] = (own, "s")
        m[f"{layer}.calls"] = (calls, "count")
    for name, key in TIMED.items():
        calls, own = fns.get(key, (0, 0.0))
        m[f"{name}.self_s"] = (own, "s")
        m[f"{name}.calls"] = (calls, "count")
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = (fns.get(name, (0, 0.0))[0], "count")
    items = trace["items"]
    counts = trace["counts"]
    cache, sieves, rows = trace["cache"], trace["sieves"], trace["rows"]
    farey = items.get("dioset.farey_sequence", 0)
    intervals = counts.get("dioset.intervals_out", 0)
    lookups = cache["hits"] + cache["misses"]
    bits = [r["req"]["meta"]["radicand_bits"] for r in records
            if "radicand_bits" in r["req"]["meta"]]
    m.update({
        "cli.cache_hit_share": (cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "cli.cache_bytes_written": (cache["bytes"], "bytes"),
        "dioset.measure_den_bits": (statistics.median_low(trace["den_bits"])
                                    if trace["den_bits"] else 0, "bits"),
        "dioset.sieves_per_set_request": (sieves["calls"] / sieves["set_misses"]
                                          if sieves["set_misses"] else 0.0, "ratio"),
        "dioset.farey_fractions": (farey, "count"),
        "dioset.intervals_out": (intervals, "count"),
        "dioset.merge_ratio": (intervals / farey if farey else 0.0, "ratio"),
        "dioset.fractions_in_interval.count": (items.get("dioset.fractions_in_interval", 0),
                                               "count"),
        "quality.rows_built": (rows["built"], "count"),
        "quality.rows_emitted": (rows["emitted"], "count"),
        "quality.row_use_ratio": (rows["emitted"] / rows["built"] if rows["built"] else 0.0,
                                  "ratio"),
        "arith.radicand_bits_p50": (statistics.median_low(bits) if bits else 0, "bits"),
        "arith.radicand_bits_max": (max(bits) if bits else 0, "bits"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    m.update(src_lines())
    return m


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(args: argparse.Namespace, rundir: str, deadline: float):
    """Set-up samples plus one measuring worker; returns (result, setups)."""
    setups = [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    cap = min(deadline - time.monotonic() - 40, 3 * args.seconds)
    setups.append(spawn(args, "plain", deadline, rundir, cap=cap))
    return load_result(rundir), setups


def run(args: argparse.Namespace) -> tuple[dict, dict, int, int, list[str]]:
    deadline = time.monotonic() + RUN_BUDGET_S
    base = os.path.join(ROOT, ".bench_out")
    os.makedirs(base, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    rundirs = [rundir]
    try:
        if args.trace:
            spawn(args, "plain", deadline, rundir, cap=args.seconds * 3)
            result = load_result(rundir)
        else:
            result, setups = measure(args, rundir, deadline)
        records = result["records"]
        failed, proven, problems = check_records(
            args.workload, args.seed, rundir, records,
            recorded_digests(args.workload, args.seed))
        if not args.trace:
            metrics, raw = end_to_end(result, setups, proven)
            return metrics, raw, len(records), failed, problems
        traced_dir = tempfile.mkdtemp(prefix=f"{args.workload}-traced-", dir=base)
        rundirs.append(traced_dir)
        spawn(args, "traced", deadline, traced_dir, replay=len(records),
              cap=max(deadline - time.monotonic() - 10, 1))
        traced = load_result(traced_dir)
        done = traced["records"]
        for plain_rec, traced_rec in zip(records, done):
            if plain_rec["digest"] != traced_rec["digest"]:
                failed += 1
                problems.append(f"request {plain_rec['req']['i']}: traced output differs")
        overhead = sum(normalized(done)) / sum(normalized(records[:len(done)]))
        shutil.copy(os.path.join(traced_dir, "spans.json"),
                    os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json"))
        return per_layer(traced["trace"], done, overhead), {}, len(records), failed, problems
    finally:
        for d in rundirs:
            shutil.rmtree(d, ignore_errors=True)


def record_digests(args: argparse.Namespace) -> int:
    """Rewrite digests.json from the default-seed stream, after checking it."""
    base = os.path.join(ROOT, ".bench_out")
    os.makedirs(base, exist_ok=True)
    digests = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        args.workload, args.seed, args.seconds = workload, DEFAULT_SEED, 0
        rundir = tempfile.mkdtemp(prefix=f"{workload}-record-", dir=base)
        try:
            spawn(args, "plain", time.monotonic() + 3000, rundir,
                  replay=RECORD_COUNTS[workload], cap=2900)
            records = load_result(rundir)["records"]
            failed, _proven, problems = check_records(workload, DEFAULT_SEED, rundir, records, [])
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        if failed:
            print("\n".join(problems[:20]), file=sys.stderr)
            return 1
        digests[workload] = [r["digest"] for r in records]
        print(f"{workload}: {len(records)} digests", file=sys.stderr)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    sys.set_int_max_str_digits(0)  # exact endpoints run to thousands of digits
    if not os.path.isfile(os.path.join(ROOT, "src", "dioph", "cli.py")):
        print(f"bench: no dioph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        metrics, raw, attempted, failed, problems = run(args)
    except RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for p in problems[:20]:
        print(f"bench: FAILED {p}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} requests, "
          f"{failed} failed (failed_share {failed / attempted})"
          + ("" if args.trace else f"; p90 over {attempted} samples"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value!r} {unit}")
    for name, value in raw.items():
        print(f"  {name + ' (wall clock, not normalised)':40s} {value!r}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
