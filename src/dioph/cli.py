"""Batch command-line front end.

Subcommands: cf, gamma, member, set, census, gaps, bands, sweep.
All rational flags are parsed as exact rationals ("0.1" means 1/10 exactly);
no binary floating point enters the pipeline.  Each option is parsed and
bounded where the parser declares it, so a command reads values, never text.
Output is deterministic: identical invocations produce identical bytes (an
optional footer with a timestamp is off by default).  Each command offers
only the formats it writes: set and sweep json, csv and svg; cf, gaps and
bands json and csv; gamma, member and census json.  A command returns its
text and exit code; run() alone writes them out and, with --cache-dir,
stores them, so a request repeated with the same option values is served
from that text.  Exit codes: 0 success, 1 usage error, 2 when any requested
verdict is unresolved at the precision cap (results are still emitted,
marked "unresolved"/"unknown"), 3 when an internal consistency check fails
(a bug, reported as "dioph: internal error: ..." on stderr).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bands as bands_mod
from . import dioset, quality, topology
from .arith import (
    DEFAULT_PRECISION,
    DomainError,
    InternalConsistencyError,
    PRECISION_CAP,
    enclose,
    format_rat,
    parse_rat,
)
from .contfrac import (
    cf_cycle,
    cf_expand,
    convergents,
    parse_alpha,
)
from .quality import _gamma_report
from .svgplot import render_svg

# part of every cache key: raise it when the output of a request can change,
# so an entry written by an older program is a miss and is rewritten
CACHE_FORMAT = 8


def _cap() -> int:
    text = os.environ.get("DIOPH_PRECISION_CAP", str(PRECISION_CAP))
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DomainError(f"DIOPH_PRECISION_CAP must be a positive integer, got {text!r}")
    return cap


def _emit(args, text: str) -> None:
    if args.footer:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = text.removesuffix("\n") + f"\n# generated {stamp}\n"
    if args.out:
        try:
            Path(args.out).write_bytes(text.encode())
        except OSError as exc:
            raise DomainError(f"--out {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _canonical(value) -> str:
    """A rational or an alpha option in a cache key, as the output prints it."""
    return format_rat(value) if isinstance(value, Fraction) else value.spec()


def _cached(args) -> tuple[str, int]:
    """The text and exit code of the request in ``args``: from its entry in
    ``--cache-dir`` when there is a valid one, else from its command, whose
    result is then stored.  The key holds the value of every option but
    --out, --cache-dir and --footer, which do not change the text."""
    if not args.cache_dir:
        return args.func(args)
    request = {k: v for k, v in vars(args).items()
               if k not in ("out", "cache_dir", "footer", "func")}
    key = json.dumps([CACHE_FORMAT, request], sort_keys=True, default=_canonical)
    digest = hashlib.sha256(key.encode()).hexdigest()
    cache_dir = Path(args.cache_dir)
    path = cache_dir / f"{digest}.json"
    try:
        entry = json.loads(path.read_text())
        if entry["key"] == key and isinstance(entry["output"], str) and entry["code"] in (0, 2):
            return entry["output"], entry["code"]
    except (OSError, ValueError, KeyError, TypeError):
        pass  # missing, unreadable or malformed: a miss, rewritten below
    text, code = args.func(args)
    entry = {
        "key": key,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "code": code,
        "output": text,
    }
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        # a reader never sees a half-written entry
        with tempfile.NamedTemporaryFile("w", dir=cache_dir, suffix=".tmp",
                                         delete=False) as fh:
            fh.write(json.dumps(entry))
        # the temporary file is private: give the entry the mode of a plain write
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(fh.name, 0o666 & ~umask)
        os.replace(fh.name, path)
    except OSError as exc:
        raise DomainError(f"--cache-dir {args.cache_dir!r}: {exc.strerror}") from None
    return text, code


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_cf(args) -> tuple[str, int]:
    alpha = args.alpha
    quotients = cf_expand(alpha, args.depth)
    table = convergents(quotients)
    pre = per = None
    if alpha.length is None:
        pre, per = cf_cycle(alpha)
    enc = enclose(alpha.real(), args.prec)
    payload = {
        "alpha": alpha.spec(),
        "quotients": quotients,
        "preperiod": pre,
        "period": per,
        "terminates": alpha.terminates,
        "value": enc.to_obj(),
        "convergents": [
            {"n": n, "a": a, "p": p, "q": q, "parity": parity}
            for n, a, p, q, parity in table.rows()
        ],
    }
    if args.format == "csv":
        lines = ["n,a,p,q,parity"]
        lines += [f"{n},{a},{p},{q},{parity}" for n, a, p, q, parity in table.rows()]
        return "\n".join(lines) + "\n", 0
    return _json(payload), 0


def _gamma_result_obj(res: quality.GammaResult):
    return {
        "lower": format_rat(res.lower),
        "upper": format_rat(res.upper),
        "argmin_candidates": list(res.argmin_candidates),
        "certified": res.certified,
        "depth_used": res.depth_used,
    }


def _cmd_gamma(args) -> tuple[str, int]:
    res, even, odd, quality_rows = _gamma_report(args.alpha, args.tau, args.depth, args.prec)
    rows = [{"n": row.n, "q": row.q, "p": row.p, "enclosure": row.enclosure.to_obj()}
            for row in quality_rows]
    payload = {
        "alpha": args.alpha.spec(),
        "tau": format_rat(args.tau),
        "gamma": _gamma_result_obj(res),
        "gamma_even": _gamma_result_obj(even),
        "gamma_odd": _gamma_result_obj(odd),
        "rows": rows,
    }
    return _json(payload), 0


def _cmd_member(args) -> tuple[str, int]:
    verdict = quality.membership(args.alpha, args.gamma, args.tau, args.budget, args.prec)
    payload = {
        "alpha": args.alpha.spec(),
        "gamma": format_rat(args.gamma),
        "tau": format_rat(args.tau),
        "verdict": verdict.kind,
        "certified": verdict.certified,
        "witness_q": verdict.witness_q,
        "witness_p": verdict.witness_p,
        "budget_spent": verdict.budget_spent,
        "lower": None if verdict.lower is None else format_rat(verdict.lower),
        "upper": None if verdict.upper is None else format_rat(verdict.upper),
    }
    return _json(payload), 2 if verdict.is_unknown else 0


def _alpha_ticks(alpha, qmax: int):
    if alpha is None:
        return None
    # q_n >= 2^((n-1)/2), so every convergent with q_n <= qmax is in this table
    table = convergents(alpha.quotients_to(2 * qmax.bit_length() + 3))
    kept = [0] + [n for n in range(1, len(table)) if table.denom(n) <= qmax]
    return [f for f in map(table.fraction, kept) if 0 <= f <= 1]


def _cmd_set(args) -> tuple[str, int]:
    if args.tau > 2 and args.format == "json":  # the bracket's outer set is the truncated set
        bracket = dioset.set_bracket(args.gamma, args.tau, args.qmax, args.prec)
        s, tail = bracket.outer, format_rat(bracket.tail_measure_bound)
    else:
        s, tail = dioset.truncated_set(args.gamma, args.tau, args.qmax, args.prec), None
    if args.format == "svg":
        label = f"g={format_rat(args.gamma)} Q={args.qmax}"
        return render_svg([(label, s)], _alpha_ticks(args.alpha, args.qmax)), 0
    intervals = s.to_obj()
    if args.format == "csv":
        lines = [f"{lo},{hi}" for lo, hi in intervals]
        return "\n".join(lines) + ("\n" if lines else ""), 0
    payload = {
        "gamma": format_rat(args.gamma),
        "tau": format_rat(args.tau),
        "qmax": args.qmax,
        "intervals": intervals,
        "measure": format_rat(s.measure),
        "tail_bound": tail,
    }
    return _json(payload), 0


def _cmd_census(args) -> tuple[str, int]:
    rec = topology.census(args.alpha, args.gamma, args.tau, args.n, args.qmax, args.prec)
    payload = {"alpha": args.alpha.spec()}
    payload.update(topology.census_obj(rec))
    return _json(payload), 0


def _cmd_gaps(args) -> tuple[str, int]:
    reports = []
    unresolved = False
    for n in range(0, args.depth - 1):
        rep = topology.gap_report(args.alpha, args.gamma, args.tau, n, args.prec)
        unresolved = unresolved or topology.UNRESOLVED in (rep.gap, rep.gap_strict)
        reports.append(rep)
    code = 2 if unresolved else 0
    if args.format == "csv":
        lines = ["n,a_next,gap,gap_strict"]
        lines += [f"{r.n},{r.a_actual},{r.gap},{r.gap_strict}" for r in reports]
        return "\n".join(lines) + "\n", code
    payload = {
        "alpha": args.alpha.spec(),
        "gamma": format_rat(args.gamma),
        "tau": format_rat(args.tau),
        "reports": [topology.gap_report_obj(r) for r in reports],
    }
    return _json(payload), code


def _cmd_bands(args) -> tuple[str, int]:
    if args.c1 >= args.c2:
        raise DomainError(f"--c1 must be below --c2, got {args.c1} and {args.c2}")
    if args.m is not None and args.m > args.qmax:
        raise DomainError(f"--m must be at most --qmax, got {args.m} and {args.qmax}")
    report = bands_mod.exponents(args.tau, args.checkpoints, precision=64)
    payload = {
        "tau": format_rat(args.tau),
        "band_exponent": format_rat(Fraction(report.band_exponent)),
        "pinch_exponent": format_rat(Fraction(report.pinch_exponent)),
        "band_converges": report.band_converges,
        "pinch_converges": report.pinch_converges,
        "partial_sums": [
            [m, format_rat(lo), format_rat(hi)] for m, lo, hi in report.partial_sums
        ],
    }
    band_records = [bands_mod.gamma_band(q, p, nq, args.tau, args.prec)
                    for q, p, nq in args.band]
    if band_records:
        payload["bands"] = [
            {
                "q": b.q, "p": b.p, "N": b.n_quot,
                "lo": b.lo.to_obj(), "hi": b.hi.to_obj(),
                "width_bound": format_rat(b.width_bound),
            }
            for b in band_records
        ]
    if band_records and args.pinch_c is not None:
        pinch = []
        for b in band_records:
            lo, hi, wb = bands_mod.pinch_band(b.q, b.p, b.n_quot, args.tau, args.pinch_c,
                                              args.prec, args.band_variant)
            pinch.append({"q": b.q, "p": b.p, "N": b.n_quot,
                          "lo": lo.to_obj(), "hi": hi.to_obj(),
                          "width_bound": format_rat(wb)})
        payload["pinch_bands"] = pinch
    if args.m is not None:
        payload["union_measure"] = format_rat(bands_mod.bands_union_measure(
            args.tau, args.c1, args.c2, args.m, args.qmax, args.nmax, args.prec))
        try:
            payload["union_tail"] = format_rat(bands_mod.bands_union_tail(
                args.tau, args.c1, args.c2, args.qmax, args.nmax, args.prec))
        except DomainError:
            payload["union_tail"] = None  # divergent series at this tau
    if args.format == "csv":
        lines = ["q,p,N,lo,hi,width_bound"]
        for b in band_records:
            lines.append(f"{b.q},{b.p},{b.n_quot},{format_rat(b.lo.lo)},"
                         f"{format_rat(b.hi.hi)},{format_rat(b.width_bound)}")
        return "\n".join(lines) + "\n", 0
    return _json(payload), 0


def _cmd_sweep(args) -> tuple[str, int]:
    qmaxes = args.qmax_list or [args.qmax]
    rows = []
    for gamma in args.gamma_list or [args.gamma]:
        for qmax in qmaxes:
            label = f"g={format_rat(gamma)} Q={qmax}"
            rows.append((label, gamma, qmax,
                         dioset.truncated_set(gamma, args.tau, qmax, args.prec)))
    if args.format == "svg":
        ticks = _alpha_ticks(args.alpha, max(qmaxes))
        return render_svg([(label, s) for label, _g, _q, s in rows], ticks), 0
    if args.format == "csv":
        lines = ["label,lo,hi"]
        for label, _g, _q, s in rows:
            for lo, hi in s.intervals:
                lines.append(f"{label},{format_rat(lo)},{format_rat(hi)}")
        return "\n".join(lines) + "\n", 0
    payload = [
        {
            "label": label,
            "gamma": format_rat(g),
            "tau": format_rat(args.tau),
            "qmax": q,
            "intervals": s.to_obj(),
            "measure": format_rat(s.measure),
        }
        for label, g, q, s in rows
    ]
    return _json(payload), 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _typed(parse, expects: Optional[str], ok=None, must: str = ""):
    """An option's argparse type: the value that `parse` makes of its text,
    which must pass `ok` when one is set.  A text that `parse` rejects is
    reported as not what the option `expects` (in the parse's own words when
    that is None), a value that `ok` rejects as not what it `must` be."""
    def convert(text: str):
        try:
            value = parse(text)
        except (DomainError, ValueError) as exc:
            raise argparse.ArgumentTypeError(
                str(exc) if expects is None else f"expects {expects}, got {text!r}") from None
        if ok is not None and not ok(value):
            raise argparse.ArgumentTypeError(f"must be {must}, got {text!r}")
        return value
    return convert


def _items(parse):
    """The parse of a comma list of `parse` items, empty ones skipped: at
    least one, except in the empty text, which leaves the list unset."""
    def items(text: str) -> list:
        values = [parse(part) for part in text.split(",") if part.strip()]
        if text and not values:
            raise ValueError(text)
        return values
    return items


def _triples(text: str) -> list[tuple[int, ...]]:
    """The q,p,N triples of a semicolon list, none in the empty text."""
    triples = [tuple(_items(int)(part)) for part in text.split(";")] if text else []
    if any(len(t) != 3 for t in triples):
        raise ValueError(text)
    return triples


_POSITIVE = _typed(parse_rat, "a rational", lambda v: v > 0, "> 0")
_HALF = _typed(parse_rat, "a rational", lambda v: 0 < v < Fraction(1, 2), "in (0, 1/2)")
_COUNT = _typed(int, "an integer", lambda v: v >= 1, ">= 1")
_COUNTS = _typed(_items(int), "a comma list of integers",
                 lambda vs: all(v >= 1 for v in vs), "integers >= 1")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dioph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, alpha=False, gamma=False, tau=False, qmax=None, depth=None):
        if alpha:
            p.add_argument("--alpha", type=_typed(parse_alpha, None), required=alpha == "required",
                           help="rat:7/10 | quad:P,D,Q | cf:[0;1,2,3]")
        if gamma:
            p.add_argument("--gamma", type=_POSITIVE, required=True)
        if tau:
            p.add_argument("--tau", type=_typed(parse_rat, "a rational"), required=True)
        if qmax is not None:
            p.add_argument("--qmax", type=_COUNT, default=qmax)
        if depth is not None:
            p.add_argument("--depth", type=_COUNT, default=depth)
        p.add_argument("--prec", type=_COUNT, default=DEFAULT_PRECISION,
                       help="working precision in bits (capped by DIOPH_PRECISION_CAP)")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--cache-dir", dest="cache_dir", default=None)
        p.add_argument("--footer", action="store_true",
                       help="append a timestamp footer (breaks byte determinism)")

    p = sub.add_parser("cf", help="continued-fraction expansion and convergents")
    common(p, ("json", "csv"), alpha="required", depth=20)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("gamma", help="quality rows and certified infimum bracket")
    common(p, ("json",), alpha="required", tau=True, depth=30)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("member", help="certified membership verdict")
    common(p, ("json",), alpha="required", gamma=True, tau=True)
    p.add_argument("--budget", type=_COUNT, default=40)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("set", help="exact truncated set")
    common(p, ("json", "csv", "svg"), alpha=True, gamma=True, tau=True, qmax=50)
    p.set_defaults(func=_cmd_set)

    p = sub.add_parser("census", help="window measure census between convergents")
    common(p, ("json",), alpha="required", gamma=True, tau=True, qmax=1000)
    p.add_argument("--n", type=_typed(int, "an integer", lambda v: v >= 0, ">= 0"),
                   required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("gaps", help="gap condition reports for n = 0..depth-2")
    common(p, ("json", "csv"), alpha="required", gamma=True, tau=True)
    p.add_argument("--depth", type=_typed(int, "an integer", lambda v: v >= 2, ">= 2"),
                   default=12)
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("bands", help="series exponents, band tables, union bounds")
    common(p, ("json", "csv"), tau=True, qmax=30)
    p.add_argument("--checkpoints", type=_COUNTS, default="",
                   help="comma list of partial-sum checkpoints")
    p.add_argument("--band", type=_typed(_triples, "a semicolon list of q,p,N integer triples"),
                   default="", help="semicolon list of q,p,N triples for band records")
    p.add_argument("--pinch-c", dest="pinch_c", type=_POSITIVE, default=None,
                   help="constant for the second band family")
    p.add_argument("--band-variant", dest="band_variant", choices=("p", "q"),
                   default="p")
    p.add_argument("--m", type=_COUNT, default=None, help="lower q cutoff for the union bound")
    p.add_argument("--c1", type=_HALF, default="1/20")
    p.add_argument("--c2", type=_HALF, default="9/20")
    p.add_argument("--nmax", type=_COUNT, default=64)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("sweep", help="ladder of truncated sets over gamma or Q")
    common(p, ("json", "csv", "svg"), alpha=True, gamma=False, tau=True, qmax=50)
    p.add_argument("--gamma", type=_POSITIVE, default="1/10")
    p.add_argument("--gamma-list", dest="gamma_list", default="",
                   type=_typed(_items(parse_rat), "a comma list of rationals",
                               lambda vs: all(v > 0 for v in vs), "rationals > 0"))
    p.add_argument("--qmax-list", dest="qmax_list", type=_COUNTS, default="")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 usage, 2 unresolved,
    3 internal error)."""
    try:
        args = _build_parser().parse_args(argv)
        args.prec = min(args.prec, _cap())
        text, code = _cached(args)
        _emit(args, text)
    except DomainError as exc:
        print(f"dioph: error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"dioph: internal error: {exc}", file=sys.stderr)
        return 3
    return code


def main(argv=None) -> int:
    code = run(argv)
    if code:
        sys.exit(code)
    return 0


if __name__ == "__main__":
    main()
