"""Batch command-line front end.

Subcommands: cf, gamma, member, set, census, gaps, bands, sweep.
All numeric flags are parsed as exact rationals ("0.1" means 1/10 exactly);
no binary floating point enters the pipeline.  Output is deterministic:
identical invocations produce identical bytes (an optional footer with a
timestamp is off by default).  Exit codes: 0 success, 1 usage error, 2 when
any requested verdict is unresolved at the precision cap (results are still
emitted, marked "unresolved"/"unknown").
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bands as bands_mod
from . import dioset, quality, topology
from .arith import DomainError, RealEnclosure, format_rat, parse_rat
from .contfrac import (
    QuadraticAlpha,
    alpha_real,
    cf_cycle,
    cf_expand,
    cf_length,
    convergents,
    format_alpha,
    parse_alpha,
)
from .svgplot import render_svg

DEFAULT_PREC = 256


def _cap() -> int:
    text = os.environ.get("DIOPH_PRECISION_CAP", "4096")
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DomainError(f"DIOPH_PRECISION_CAP must be a positive integer, got {text!r}")
    return cap


def _enc_obj(e: Optional[RealEnclosure]):
    return None if e is None else e.to_obj()


def _emit(args, text: str) -> None:
    if getattr(args, "footer", False):
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        if text.endswith("\n"):
            text = text[:-1] + f"\n# generated {stamp}\n"
        else:
            text += f"\n# generated {stamp}\n"
    data = text.encode()
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _rat_list(text: str) -> list[Fraction]:
    return [parse_rat(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_cf(args) -> int:
    alpha = parse_alpha(args.alpha)
    quotients = cf_expand(alpha, args.depth)
    table = convergents(quotients)
    pre = per = None
    if isinstance(alpha, QuadraticAlpha):
        pre, per = cf_cycle(alpha)
    enc = alpha_real(alpha).enclose(args.prec)
    payload = {
        "alpha": format_alpha(alpha),
        "quotients": quotients,
        "preperiod": pre,
        "period": per,
        "terminates": cf_length(alpha) is not None and not isinstance(alpha, QuadraticAlpha),
        "value": _enc_obj(enc),
        "convergents": [
            {"n": n, "a": a, "p": p, "q": q, "parity": parity}
            for n, a, p, q, parity in table.rows()
        ],
    }
    if args.format == "csv":
        lines = ["n,a,p,q,parity"]
        lines += [f"{n},{a},{p},{q},{parity}" for n, a, p, q, parity in table.rows()]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _gamma_result_obj(res: quality.GammaResult):
    return {
        "lower": format_rat(res.lower),
        "upper": format_rat(res.upper),
        "argmin_candidates": list(res.argmin_candidates),
        "certified": res.certified,
        "depth_used": res.depth_used,
    }


def _cmd_gamma(args) -> int:
    alpha = parse_alpha(args.alpha)
    tau = parse_rat(args.tau)
    res, even, odd, quality_rows = quality._gamma_report(alpha, tau, args.depth, args.prec)
    rows = [{"n": row.n, "q": row.q, "p": row.p, "enclosure": _enc_obj(row.enclosure)}
            for row in quality_rows]
    payload = {
        "alpha": format_alpha(alpha),
        "tau": format_rat(tau),
        "gamma": _gamma_result_obj(res),
        "gamma_even": _gamma_result_obj(even),
        "gamma_odd": _gamma_result_obj(odd),
        "rows": rows,
    }
    _emit(args, _json(payload))
    return 0


def _cmd_member(args) -> int:
    alpha = parse_alpha(args.alpha)
    verdict = quality.membership(alpha, parse_rat(args.gamma), parse_rat(args.tau),
                                 args.budget, args.prec)
    payload = {
        "alpha": format_alpha(alpha),
        "gamma": args.gamma,
        "tau": args.tau,
        "verdict": verdict.kind,
        "certified": verdict.certified,
        "witness_q": verdict.witness_q,
        "witness_p": verdict.witness_p,
        "budget_spent": verdict.budget_spent,
        "lower": None if verdict.lower is None else format_rat(verdict.lower),
        "upper": None if verdict.upper is None else format_rat(verdict.upper),
    }
    _emit(args, _json(payload))
    return 2 if verdict.is_unknown else 0


def _set_payload(gamma: Fraction, tau: Fraction, qmax: int, prec: int):
    s = dioset.truncated_set(gamma, tau, qmax, prec)
    tail = None
    if tau > 2:
        tail = format_rat(dioset.set_bracket(gamma, tau, qmax, prec).tail_measure_bound)
    return {
        "gamma": format_rat(gamma),
        "tau": format_rat(tau),
        "qmax": qmax,
        "intervals": s.to_obj(),
        "measure": format_rat(s.measure),
        "tail_bound": tail,
    }, s


def _cached_set_payload(args, gamma: Fraction, tau: Fraction, qmax: int, prec: int):
    if not args.cache_dir:
        return _set_payload(gamma, tau, qmax, prec)
    key = f"set;gamma={format_rat(gamma)};tau={format_rat(tau)};qmax={qmax};prec={prec}"
    digest = hashlib.sha256(key.encode()).hexdigest()
    cache_dir = Path(args.cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{digest}.json"
    if path.exists():
        entry = json.loads(path.read_text())
        payload = entry["value"]
        return payload, dioset.IntervalSet.from_obj(payload["intervals"])
    payload, s = _set_payload(gamma, tau, qmax, prec)
    entry = {
        "key": key,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "value": payload,
    }
    path.write_text(json.dumps(entry, indent=2) + "\n")
    return payload, s


def _alpha_ticks(args, qmax: int):
    if not getattr(args, "alpha", None):
        return None
    alpha = parse_alpha(args.alpha)
    depth = 1
    ticks = []
    while True:
        try:
            quotients = cf_expand(alpha, depth + 1)
        except DomainError:
            break
        if len(quotients) <= depth:
            break
        table = convergents(quotients)
        if table.denom(depth) > qmax:
            break
        depth += 1
    table = convergents(cf_expand(alpha, depth))
    for n in range(len(table)):
        f = table.fraction(n)
        if 0 <= f <= 1:
            ticks.append(f)
    return ticks


def _cmd_set(args) -> int:
    gamma, tau = parse_rat(args.gamma), parse_rat(args.tau)
    payload, s = _cached_set_payload(args, gamma, tau, args.qmax, args.prec)
    if args.format == "csv":
        lines = [f"{lo},{hi}" for lo, hi in payload["intervals"]]
        _emit(args, "\n".join(lines) + ("\n" if lines else ""))
    elif args.format == "svg":
        label = f"g={payload['gamma']} Q={payload['qmax']}"
        _emit(args, render_svg([(label, s)], _alpha_ticks(args, args.qmax)))
    else:
        _emit(args, _json(payload))
    return 0


def _cmd_census(args) -> int:
    alpha = parse_alpha(args.alpha)
    rec = topology.census(alpha, parse_rat(args.gamma), parse_rat(args.tau),
                          args.n, args.qmax, args.prec)
    payload = {"alpha": format_alpha(alpha)}
    payload.update(topology.census_obj(rec))
    _emit(args, _json(payload))
    return 0


def _cmd_gaps(args) -> int:
    alpha = parse_alpha(args.alpha)
    gamma, tau = parse_rat(args.gamma), parse_rat(args.tau)
    reports = []
    unresolved = False
    for n in range(0, args.depth - 1):
        rep = topology.gap_report(alpha, gamma, tau, n, args.prec)
        unresolved = unresolved or topology.UNRESOLVED in (rep.gap, rep.gap_strict)
        reports.append(rep)
    if args.format == "csv":
        lines = ["n,a_next,gap,gap_strict"]
        lines += [f"{r.n},{r.a_actual},{r.gap},{r.gap_strict}" for r in reports]
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "alpha": format_alpha(alpha),
            "gamma": format_rat(gamma),
            "tau": format_rat(tau),
            "reports": [topology.gap_report_obj(r) for r in reports],
        }
        _emit(args, _json(payload))
    return 2 if unresolved else 0


def _cmd_bands(args) -> int:
    tau = parse_rat(args.tau)
    checkpoints = _int_list(args.checkpoints) if args.checkpoints else []
    report = bands_mod.exponents(tau, checkpoints, precision=64)
    payload = {
        "tau": format_rat(tau),
        "band_exponent": format_rat(Fraction(report.band_exponent)),
        "pinch_exponent": format_rat(Fraction(report.pinch_exponent)),
        "band_converges": report.band_converges,
        "pinch_converges": report.pinch_converges,
        "partial_sums": [
            [m, format_rat(lo), format_rat(hi)] for m, lo, hi in report.partial_sums
        ],
    }
    band_records = []
    if args.band:
        for triple in args.band.split(";"):
            q, p, nq = _int_list(triple)
            band_records.append(bands_mod.gamma_band(q, p, nq, tau, args.prec))
        payload["bands"] = [
            {
                "q": b.q, "p": b.p, "N": b.n_quot,
                "lo": _enc_obj(b.lo), "hi": _enc_obj(b.hi),
                "width_bound": format_rat(b.width_bound),
            }
            for b in band_records
        ]
        if args.pinch_c:
            pinch = []
            for b in band_records:
                lo, hi, wb = bands_mod.pinch_band(b.q, b.p, b.n_quot, tau,
                                                  parse_rat(args.pinch_c),
                                                  args.prec, args.band_variant)
                pinch.append({"q": b.q, "p": b.p, "N": b.n_quot,
                              "lo": _enc_obj(lo), "hi": _enc_obj(hi),
                              "width_bound": format_rat(wb)})
            payload["pinch_bands"] = pinch
    if args.m is not None:
        payload["union_measure"] = format_rat(
            bands_mod.bands_union_measure(tau, parse_rat(args.c1), parse_rat(args.c2),
                                          args.m, args.qmax, args.nmax, args.prec))
        try:
            payload["union_tail"] = format_rat(
                bands_mod.bands_union_tail(tau, parse_rat(args.c1), parse_rat(args.c2),
                                           args.qmax, args.nmax, args.prec))
        except DomainError:
            payload["union_tail"] = None  # divergent series at this tau
    if args.format == "csv":
        lines = ["q,p,N,lo,hi,width_bound"]
        for b in band_records:
            lines.append(f"{b.q},{b.p},{b.n_quot},{format_rat(b.lo.lo)},"
                         f"{format_rat(b.hi.hi)},{format_rat(b.width_bound)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _json(payload))
    return 0


def _cmd_sweep(args) -> int:
    tau = parse_rat(args.tau)
    gammas = _rat_list(args.gamma_list) if args.gamma_list else [parse_rat(args.gamma)]
    qmaxes = _int_list(args.qmax_list) if args.qmax_list else [args.qmax]
    rows = []
    for gamma in gammas:
        for qmax in qmaxes:
            label = f"g={format_rat(gamma)} Q={qmax}"
            rows.append((label, gamma, qmax,
                         dioset.truncated_set(gamma, tau, qmax, args.prec)))
    if args.format == "svg":
        ticks = _alpha_ticks(args, max(qmaxes))
        _emit(args, render_svg([(label, s) for label, _g, _q, s in rows], ticks))
    elif args.format == "csv":
        lines = ["label,lo,hi"]
        for label, _g, _q, s in rows:
            for lo, hi in s.intervals:
                lines.append(f"{label},{format_rat(lo)},{format_rat(hi)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = [
            {
                "label": label,
                "gamma": format_rat(g),
                "tau": format_rat(tau),
                "qmax": q,
                "intervals": s.to_obj(),
                "measure": format_rat(s.measure),
            }
            for label, g, q, s in rows
        ]
        _emit(args, _json(payload))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dioph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=False, gamma=False, tau=False, qmax=None, depth=None):
        if alpha:
            p.add_argument("--alpha", required=alpha == "required",
                           help="rat:7/10 | quad:P,D,Q | cf:[0;1,2,3]")
        if gamma:
            p.add_argument("--gamma", required=True)
        if tau:
            p.add_argument("--tau", required=True)
        if qmax is not None:
            p.add_argument("--qmax", type=int, default=qmax)
        if depth is not None:
            p.add_argument("--depth", type=int, default=depth)
        p.add_argument("--prec", type=int, default=DEFAULT_PREC,
                       help="working precision in bits (capped by DIOPH_PRECISION_CAP)")
        p.add_argument("--format", choices=("json", "csv", "svg"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--cache-dir", dest="cache_dir", default=None)
        p.add_argument("--footer", action="store_true",
                       help="append a timestamp footer (breaks byte determinism)")

    p = sub.add_parser("cf", help="continued-fraction expansion and convergents")
    common(p, alpha="required", depth=20)
    p.set_defaults(func=_cmd_cf)

    p = sub.add_parser("gamma", help="quality rows and certified infimum bracket")
    common(p, alpha="required", tau=True, depth=30)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("member", help="certified membership verdict")
    common(p, alpha="required", gamma=True, tau=True)
    p.add_argument("--budget", type=int, default=40)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("set", help="exact truncated set")
    common(p, alpha=True, gamma=True, tau=True, qmax=50)
    p.set_defaults(func=_cmd_set)

    p = sub.add_parser("census", help="window measure census between convergents")
    common(p, alpha="required", gamma=True, tau=True, qmax=1000)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("gaps", help="gap condition reports for n = 0..depth-2")
    common(p, alpha="required", gamma=True, tau=True, depth=12)
    p.set_defaults(func=_cmd_gaps)

    p = sub.add_parser("bands", help="series exponents, band tables, union bounds")
    common(p, tau=True, qmax=30)
    p.add_argument("--checkpoints", default=None,
                   help="comma list of partial-sum checkpoints")
    p.add_argument("--band", default=None,
                   help="semicolon list of q,p,N triples for band records")
    p.add_argument("--pinch-c", dest="pinch_c", default=None,
                   help="constant for the second band family")
    p.add_argument("--band-variant", dest="band_variant", choices=("p", "q"),
                   default="p")
    p.add_argument("--m", type=int, default=None, help="lower q cutoff for the union bound")
    p.add_argument("--c1", default="1/20")
    p.add_argument("--c2", default="9/20")
    p.add_argument("--nmax", type=int, default=64)
    p.set_defaults(func=_cmd_bands)

    p = sub.add_parser("sweep", help="ladder of truncated sets over gamma or Q")
    common(p, alpha=True, gamma=False, tau=True, qmax=50)
    p.add_argument("--gamma", default="1/10")
    p.add_argument("--gamma-list", dest="gamma_list", default=None)
    p.add_argument("--qmax-list", dest="qmax_list", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    """Entry point returning the exit code (0 ok, 1 usage, 2 unresolved)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.prec = min(args.prec, _cap())
        return args.func(args)
    except DomainError as exc:
        print(f"dioph: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    code = run(argv)
    if code:
        sys.exit(code)
    return 0


if __name__ == "__main__":
    main()
