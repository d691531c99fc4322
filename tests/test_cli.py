import argparse
import ast
import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dioph
from dioph import arith, cli, dioset, quality
from dioph.arith import DomainError
from dioph.cli import run
from dioph.contfrac import cf_expand, convergents, parse_alpha


def _run_to_file(tmp_path: Path, name: str, argv: list[str]) -> tuple[int, bytes]:
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_cf_json(tmp_path):
    code, data = _run_to_file(tmp_path, "cf.json",
                              ["cf", "--alpha", "quad:-1,5,2", "--depth", "6"])
    assert code == 0
    payload = json.loads(data)
    assert payload["quotients"] == [0, 1, 1, 1, 1, 1]
    assert (payload["preperiod"], payload["period"]) == (1, 1)
    assert payload["convergents"][5]["q"] == 8


@pytest.mark.parametrize("alpha, terminates", [
    ("rat:7/10", True), ("quad:-1,5,2", False), ("cf:[0;1,2,3]", None),
])
def test_cf_terminates(tmp_path, alpha, terminates):
    # a prefix with the default tail bound [1, inf) may end or go on
    code, data = _run_to_file(tmp_path, "cf.json",
                              ["cf", "--alpha", alpha, "--depth", "3"])
    assert code == 0
    assert json.loads(data)["terminates"] is terminates


def test_cf_csv(tmp_path):
    code, data = _run_to_file(tmp_path, "cf.csv",
                              ["cf", "--alpha", "rat:7/10", "--depth", "10",
                               "--format", "csv"])
    assert code == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "n,a,p,q,parity"
    assert lines[-1] == "3,3,7,10,odd"


def test_gamma_command(tmp_path):
    code, data = _run_to_file(tmp_path, "g.json",
                              ["gamma", "--alpha", "quad:-1,5,2", "--tau", "1",
                               "--depth", "30"])
    assert code == 0
    payload = json.loads(data)
    assert payload["gamma"]["certified"] is True
    assert payload["gamma"]["argmin_candidates"] == [1]
    lower = F(payload["gamma"]["lower"])
    upper = F(payload["gamma"]["upper"])
    golden_min = 0.3819660112501051
    assert abs(float(lower) - golden_min) < 1e-12
    assert upper - lower <= F(1, 10**12)


def test_member_command_exit_codes(tmp_path):
    code, data = _run_to_file(tmp_path, "m1.json",
                              ["member", "--alpha", "quad:-1,5,2",
                               "--gamma", "2/5", "--tau", "1"])
    assert code == 0
    payload = json.loads(data)
    assert payload["verdict"] == "out"
    assert (payload["witness_q"], payload["witness_p"]) == (1, 1)
    # unresolved membership exits 2 but still writes the payload
    code, data = _run_to_file(tmp_path, "m2.json",
                              ["member", "--alpha", "cf:[0;2,2,2]",
                               "--gamma", "1/4", "--tau", "1"])
    assert code == 2
    assert json.loads(data)["verdict"] == "unknown"


def test_member_decimal_gamma(tmp_path):
    code, data = _run_to_file(tmp_path, "m3.json",
                              ["member", "--alpha", "quad:-1,5,2",
                               "--gamma", "0.375", "--tau", "1"])
    assert code == 0
    assert json.loads(data)["verdict"] == "in"


def test_set_command_json_matches_spec_schema(tmp_path):
    code, data = _run_to_file(tmp_path, "set.json",
                              ["set", "--gamma", "1/10", "--tau", "4",
                               "--qmax", "2"])
    assert code == 0
    payload = json.loads(data)
    assert payload["intervals"] == [["1/10", "159/320"], ["161/320", "9/10"]]
    assert payload["measure"] == "127/160"
    assert set(payload) == {"gamma", "tau", "qmax", "intervals", "measure",
                            "tail_bound"}


def test_set_command_csv_and_svg(tmp_path):
    code, data = _run_to_file(tmp_path, "set.csv",
                              ["set", "--gamma", "1/10", "--tau", "4",
                               "--qmax", "2", "--format", "csv"])
    assert code == 0
    assert data.decode().splitlines() == ["1/10,159/320", "161/320,9/10"]
    code, svg = _run_to_file(tmp_path, "set.svg",
                             ["set", "--gamma", "1/10", "--tau", "4",
                              "--qmax", "2", "--format", "svg",
                              "--alpha", "quad:-1,5,2"])
    assert code == 0
    text = svg.decode()
    assert text.startswith("<?xml")
    assert text.count('fill="#3d6fb4"') == 2  # one rect per member interval


def test_set_cache_transparency(tmp_path):
    args = ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "30"]
    _, plain = _run_to_file(tmp_path, "plain.json", list(args))
    cache = tmp_path / "cache"
    _, miss = _run_to_file(tmp_path, "miss.json",
                           args + ["--cache-dir", str(cache)])
    _, hit = _run_to_file(tmp_path, "hit.json",
                          args + ["--cache-dir", str(cache)])
    assert plain == miss == hit
    assert list(cache.glob("*.json"))  # the entry was materialized


def test_the_cache_key_holds_the_option_values(tmp_path):
    # one value typed two ways is one request: one entry, one output
    cache = tmp_path / "cache"
    outputs = set()
    for gamma, tau in (("0.375", "1.0"), ("3/8", "1")):
        code, data = _run_to_file(tmp_path, "m.json",
                                  ["member", "--alpha", "quad:-1,5,2", "--gamma", gamma,
                                   "--tau", tau, "--cache-dir", str(cache)])
        assert code == 0
        outputs.add(data)
    [data] = outputs
    assert (json.loads(data)["gamma"], json.loads(data)["tau"]) == ("3/8", "1")
    assert len(list(cache.glob("*.json"))) == 1


def test_set_cache_entry_follows_the_umask(tmp_path):
    cache = tmp_path / "cache"
    old = os.umask(0o022)
    try:
        assert run(["set", "--gamma", "1/10", "--tau", "4", "--qmax", "5",
                    "--cache-dir", str(cache), "--out", str(tmp_path / "s.json")]) == 0
    finally:
        os.umask(old)
    [entry] = cache.glob("*.json")
    assert entry.stat().st_mode & 0o777 == 0o644


@pytest.mark.parametrize("garbage", [
    "{not json",
    "[]",
    '{"key": "set;gamma=1/2;tau=4;qmax=30;prec=256", "value": {}}',
    '{"key": "KEY", "value": {"intervals": [[1, 2]]}}',
    '{"key": "KEY", "value": {"intervals": [["a", "b"]]}}',
    '{"key": "KEY", "code": 0, "output": ["1/10,159/320"]}',
    '{"key": "KEY", "code": 1, "output": ""}',
])
def test_set_cache_corrupt_entry_is_a_miss(tmp_path, capsys, garbage):
    args = ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "30"]
    _, plain = _run_to_file(tmp_path, "plain.json", list(args))
    cache = tmp_path / "cache"
    _run_to_file(tmp_path, "miss.json", args + ["--cache-dir", str(cache)])
    (entry,) = cache.glob("*.json")
    key = json.loads(entry.read_text())["key"]
    entry.write_text(garbage.replace("KEY", key))
    code, again = _run_to_file(tmp_path, "again.json",
                               args + ["--cache-dir", str(cache)])
    assert code == 0 and again == plain
    assert json.loads(entry.read_text())["key"] == key  # rewritten
    assert [p.name for p in cache.iterdir()] == [entry.name]  # no temporary left
    assert capsys.readouterr().err == ""


def test_set_cache_ignores_an_unversioned_entry(tmp_path):
    # entries stored under the key formats used before CACHE_FORMAT, for the
    # same request, were written by an older sieve: they must not be served
    args = ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "30"]
    _, plain = _run_to_file(tmp_path, "plain.json", list(args))
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = json.loads(plain)
    stale["intervals"], stale["measure"] = [["0", "1"]], "1"
    for old_key in ("set;gamma=1/10;tau=4;qmax=30;prec=256",
                    "v2;set;gamma=1/10;tau=4;qmax=30;prec=256"):
        digest = hashlib.sha256(old_key.encode()).hexdigest()
        (cache / f"{digest}.json").write_text(json.dumps({"key": old_key, "value": stale}))
    code, again = _run_to_file(tmp_path, "again.json", args + ["--cache-dir", str(cache)])
    assert code == 0 and again == plain


def test_cache_ignores_an_entry_of_an_older_format(tmp_path, monkeypatch):
    # gaps verdicts now follow --prec: an entry written under the previous
    # CACHE_FORMAT must not be served
    args = ["gaps", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "7/2",
            "--depth", "4", "--cache-dir", str(tmp_path / "cache")]
    _, plain = _run_to_file(tmp_path, "plain.json", list(args[:-2]))
    monkeypatch.setattr(cli, "CACHE_FORMAT", cli.CACHE_FORMAT - 1)
    _run_to_file(tmp_path, "old.json", list(args))
    (entry,) = (tmp_path / "cache").glob("*.json")
    stale = json.loads(entry.read_text())
    stale["output"] = "stale\n"
    entry.write_text(json.dumps(stale))
    monkeypatch.undo()
    code, again = _run_to_file(tmp_path, "again.json", list(args))
    assert code == 0 and again == plain


def test_gamma_is_served_from_its_cache_entry(tmp_path, monkeypatch):
    args = ["gamma", "--alpha", "quad:-1,5,2", "--tau", "1",
            "--cache-dir", str(tmp_path / "cache")]
    code, first = _run_to_file(tmp_path, "miss.json", list(args))
    assert code == 0

    def broken(*args, **kwargs):
        raise arith.InternalConsistencyError("computed again")

    monkeypatch.setattr(cli, "_gamma_report", broken)
    code, again = _run_to_file(tmp_path, "hit.json", list(args))
    assert code == 0 and again == first


def test_cache_stores_no_footer(tmp_path):
    args = ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "5"]
    _, plain = _run_to_file(tmp_path, "plain.json", list(args))
    cache = tmp_path / "cache"
    for name in ("miss.json", "hit.json"):
        _, data = _run_to_file(tmp_path, name,
                               args + ["--cache-dir", str(cache), "--footer"])
        body, footer = data.decode().rsplit("\n# generated ", 1)
        assert (body + "\n").encode() == plain and footer.endswith("\n")
    [entry] = cache.glob("*.json")
    assert json.loads(entry.read_text())["output"] == plain.decode()


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise arith.InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli, "_gamma_report", broken)
    assert run(["gamma", "--alpha", "quad:-1,5,2", "--tau", "1"]) == 3
    assert capsys.readouterr().err == "dioph: internal error: routes disagree\n"


def test_census_command(tmp_path):
    code, data = _run_to_file(
        tmp_path, "census.json",
        ["census", "--alpha", "quad:921,621,2770", "--gamma", "1/10",
         "--tau", "4", "--n", "3", "--qmax", "1200"])
    assert code == 0
    payload = json.loads(data)
    assert payload["verdict"] is True
    assert F(payload["complement_measure_in_window"]) < F(payload["window_measure"])


def test_gaps_command(tmp_path):
    code, data = _run_to_file(tmp_path, "gaps.json",
                              ["gaps", "--alpha", "quad:-1,5,2",
                               "--gamma", "1/10", "--tau", "4", "--depth", "8"])
    assert code == 0
    payload = json.loads(data)
    assert len(payload["reports"]) == 7
    for rep in payload["reports"]:
        assert rep["gap"] in ("holds", "fails")


def test_bands_command(tmp_path):
    code, data = _run_to_file(tmp_path, "bands.json",
                              ["bands", "--tau", "3"])
    assert code == 0
    payload = json.loads(data)
    assert payload["band_exponent"] == "-1"
    assert payload["band_converges"] is False
    assert payload["pinch_exponent"] == "9"
    code, data = _run_to_file(
        tmp_path, "bands2.json",
        ["bands", "--tau", "4", "--m", "2", "--qmax", "30",
         "--band", "2,16,1;2,100,3", "--pinch-c", "1"])
    payload = json.loads(data)
    assert code == 0
    assert "union_measure" in payload and "union_tail" in payload
    assert len(payload["bands"]) == 2 and len(payload["pinch_bands"]) == 2
    code, data = _run_to_file(
        tmp_path, "bands.csv",
        ["bands", "--tau", "4", "--band", "2,16,1", "--format", "csv"])
    assert data.decode().splitlines()[0] == "q,p,N,lo,hi,width_bound"


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_bands_nmax_below_one_names_the_option(capsys, nmax):
    argv = ["bands", "--tau", "5", "--m", "2", "--qmax", "10", "--nmax", nmax]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"dioph: error: argument --nmax: must be >= 1, got '{nmax}'\n"


@pytest.mark.parametrize("n", ["-1", "-2"])
def test_census_rejects_a_negative_window_index(capsys, n):
    argv = ["census", "--alpha", "quad:-1,5,2", "--gamma", "1/6", "--tau", "3",
            "--n", n, "--qmax", "51"]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"dioph: error: argument --n: must be >= 0, got '{n}'\n"


@pytest.mark.parametrize("gamma", ["0", "-1/10"])
def test_gaps_rejects_gamma_at_most_zero(capsys, gamma):
    assert run(["gaps", "--alpha", "quad:-1,5,2", f"--gamma={gamma}", "--tau", "4"]) == 1
    assert capsys.readouterr() == ("", f"dioph: error: argument --gamma: must be > 0, got '{gamma}'\n")


def test_bad_options_name_the_option(capsys):
    """A malformed list or a value out of range ends with exit 1 and a
    message that names the option."""
    requests = {
        ("bands", "--tau", "4", "--band", "1,2"):
            "argument --band: expects a semicolon list of q,p,N integer triples, got '1,2'",
        ("bands", "--tau", "4", "--checkpoints", "x"):
            "argument --checkpoints: expects a comma list of integers, got 'x'",
        ("sweep", "--tau", "4", "--qmax-list", "3,x"):
            "argument --qmax-list: expects a comma list of integers, got '3,x'",
        # of two bad options, the first in argv order
        ("gaps", "--alpha", "quad:-1,5,2", "--gamma", "0", "--tau", "4", "--depth", "1"):
            "argument --gamma: must be > 0, got '0'",
        ("bands", "--tau", "4", "--checkpoints", "0,-5"):
            "argument --checkpoints: must be integers >= 1, got '0,-5'",
        ("member", "--alpha", "cf:[0;1,2,3,4,5,6,7]", "--gamma", "1/10", "--tau", "2",
         "--budget=-3"):
            "argument --budget: must be >= 1, got '-3'",
        ("member", "--alpha", "rat:3/7", "--gamma", "1/10", "--tau", "2", "--budget=0"):
            "argument --budget: must be >= 1, got '0'",
        ("cf", "--alpha", "quad:-1,5,2", "--depth", "2", "--prec=0"):
            "argument --prec: must be >= 1, got '0'",
        ("gaps", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "0", "--depth", "3"):
            "tau must be >= 1",
        ("gaps", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau=-3"):
            "tau must be >= 1",
        ("gaps", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "1/2"):
            "tau must be >= 1",
        ("sweep", "--tau", "4", "--qmax-list", ",", "--format", "svg"):
            "argument --qmax-list: expects a comma list of integers, got ','",
        ("sweep", "--tau", "4", "--gamma-list", ",", "--format", "svg"):
            "argument --gamma-list: expects a comma list of rationals, got ','",
        ("set", "--gamma", "1/10", "--tau", "4", "--qmax", "3", "--alpha", "bogus"):
            "argument --alpha: unknown alpha spec 'bogus' (use rat:, quad:, cf:)",
        ("sweep", "--tau", "4", "--qmax-list", "3", "--format", "csv", "--alpha", "bogus"):
            "argument --alpha: unknown alpha spec 'bogus' (use rat:, quad:, cf:)",
        ("bands", "--tau", "4", "--band", "2,3,4", "--pinch-c=-1"):
            "argument --pinch-c: must be > 0, got '-1'",
        ("bands", "--tau", "4", "--band", "2,3,4", "--pinch-c", "0"):
            "argument --pinch-c: must be > 0, got '0'",
        # checked without --band too
        ("bands", "--tau", "4", "--pinch-c=-1"):
            "argument --pinch-c: must be > 0, got '-1'",
        ("bands", "--tau", "4", "--pinch-c", "x"):
            "argument --pinch-c: expects a rational, got 'x'",
        ("bands", "--tau", "4", "--band", "2,3,4", "--pinch-c="):
            "argument --pinch-c: expects a rational, got ''",
        # a malformed rational names its option; of two, the first parsed
        ("gamma", "--alpha", "rat:1/3", "--tau", "x"):
            "argument --tau: expects a rational, got 'x'",
        ("member", "--alpha", "rat:1/3", "--gamma", "x", "--tau", "y"):
            "argument --gamma: expects a rational, got 'x'",
        ("set", "--gamma", "1/10", "--tau", "1/0", "--qmax", "3"):
            "argument --tau: expects a rational, got '1/0'",
        ("census", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4x", "--n", "1"):
            "argument --tau: expects a rational, got '4x'",
        ("gaps", "--alpha", "quad:-1,5,2", "--gamma", "", "--tau", "4"):
            "argument --gamma: expects a rational, got ''",
        ("bands", "--tau", "4", "--m", "2", "--c1", "x", "--c2", "y"):
            "argument --c1: expects a rational, got 'x'",
        ("bands", "--tau", "4", "--m", "2", "--c2", "1/"):
            "argument --c2: expects a rational, got '1/'",
        ("sweep", "--tau", "4", "--gamma", "x"):
            "argument --gamma: expects a rational, got 'x'",
        ("sweep", "--tau", "4", "--gamma-list", "1/10,x"):
            "argument --gamma-list: expects a comma list of rationals, got '1/10,x'",
        # each bounded in its own declaration, and checked against each other
        ("bands", "--tau", "4", "--m", "2", "--c1", "1/2", "--c2", "1/4"):
            "argument --c1: must be in (0, 1/2), got '1/2'",
        ("bands", "--tau", "4", "--m", "2", "--c1", "1/4", "--c2", "1/5"):
            "--c1 must be below --c2, got 1/4 and 1/5",
        ("bands", "--tau", "4", "--m", "40", "--qmax", "30"):
            "--m must be at most --qmax, got 40 and 30",
    }
    for argv, message in requests.items():
        assert run(list(argv)) == 1
        assert capsys.readouterr() == ("", f"dioph: error: {message}\n")


@pytest.mark.parametrize("argv, option, value, bound", [
    (["bands", "--tau", "4"], "--qmax", "0", ">= 1"),
    (["bands", "--tau", "4"], "--nmax", "0", ">= 1"),
    (["bands", "--tau", "4"], "--m", "0", ">= 1"),
    (["set", "--gamma", "1/10", "--tau", "4"], "--qmax", "0", ">= 1"),
    (["cf", "--alpha", "quad:-1,5,2"], "--depth", "0", ">= 1"),
    (["census", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4", "--n", "1"],
     "--qmax", "0", ">= 1"),
    (["gaps", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4"], "--depth", "1", ">= 2"),
])
def test_an_option_is_bounded_whatever_reads_it(capsys, argv, option, value, bound):
    # bands reads --qmax and --nmax only with --m, yet checks them without it
    assert run([*argv, option, value]) == 1
    assert capsys.readouterr() == ("", f"dioph: error: argument {option}: must be {bound}, "
                                       f"got '{value}'\n")


@pytest.mark.parametrize("option, path, reason", [
    ("--cache-dir", "file", errno.EEXIST),
    ("--out", "missing/set.json", errno.ENOENT),
])
def test_an_unusable_path_names_its_option(tmp_path, capsys, option, path, reason):
    (tmp_path / "file").write_text("")
    path = str(tmp_path / path)
    assert run(["set", "--gamma", "1/10", "--tau", "4", "--qmax", "2", option, path]) == 1
    assert capsys.readouterr() == ("", f"dioph: error: {option} {path!r}: "
                                       f"{os.strerror(reason)}\n")


def test_sweep_command(tmp_path):
    code, data = _run_to_file(
        tmp_path, "sweep.svg",
        ["sweep", "--tau", "4", "--gamma", "1/10",
         "--qmax-list", "1,2,4,8", "--format", "svg"])
    assert code == 0
    assert data.decode().count("<text") >= 4
    code, data = _run_to_file(
        tmp_path, "sweep.json",
        ["sweep", "--tau", "4", "--gamma-list", "1/20,1/10,1/5",
         "--qmax", "5"])
    payload = json.loads(data)
    assert [row["gamma"] for row in payload] == ["1/20", "1/10", "1/5"]
    measures = [F(row["measure"]) for row in payload]
    assert measures[0] > measures[1] > measures[2]


def test_usage_errors_exit_one(capsys):
    assert run(["set", "--gamma", "zebra", "--tau", "4"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["member", "--alpha", "rat:3/2", "--gamma", "1/10",
                "--tau", "1"]) == 1
    assert run(["nonsense"]) == 1


# one small request per command: every --format value a command accepts must
# change what it writes
_SMALL_REQUESTS = {
    "cf": ["--alpha", "quad:-1,5,2", "--depth", "4"],
    "gamma": ["--alpha", "quad:-1,5,2", "--tau", "1", "--depth", "4"],
    "member": ["--alpha", "quad:-1,5,2", "--gamma", "2/5", "--tau", "1"],
    "set": ["--gamma", "1/10", "--tau", "4", "--qmax", "2", "--alpha", "quad:-1,5,2"],
    "census": ["--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4", "--n", "1",
               "--qmax", "20"],
    "gaps": ["--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4", "--depth", "4"],
    "bands": ["--tau", "4", "--band", "2,16,1"],
    "sweep": ["--tau", "4", "--qmax-list", "1,2"],
}


def test_every_format_a_command_accepts_is_written(tmp_path, capsys):
    [commands] = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(_SMALL_REQUESTS)
    for name, parser in commands.choices.items():
        [fmt] = [a for a in parser._actions if a.dest == "format"]
        for choice in fmt.choices:
            code, data = _run_to_file(tmp_path, f"{name}.{choice}",
                                      [name, *_SMALL_REQUESTS[name], "--format", choice])
            assert code == 0, (name, choice)
            text = data.decode()
            if choice == "json":
                json.loads(text)
            elif choice == "svg":
                assert text.startswith("<?xml"), name
            else:
                assert choice == "csv"
                with pytest.raises(ValueError):
                    json.loads(text)
    assert run(["gamma", *_SMALL_REQUESTS["gamma"], "--format", "csv"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_every_typed_option_rejects_a_bad_value_by_name(capsys):
    """Each value an option's type rejects ends the request with exit 1 and
    one line naming the option, whichever command declares it."""
    [commands] = [a for a in cli._build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    for name, parser in commands.choices.items():
        for action in parser._actions:
            if action.type is None:
                continue
            [option] = action.option_strings
            if isinstance(action.default, str):
                action.type(action.default)  # a string default passes its own type
            for value in ("0", "-1", "x", ""):
                try:
                    action.type(value)
                    continue
                except argparse.ArgumentTypeError as exc:
                    message = f"dioph: error: argument {option}: {exc}\n"
                assert run([name, *_SMALL_REQUESTS[name], f"{option}={value}"]) == 1
                assert capsys.readouterr() == ("", message), (name, option, value)


def test_no_command_parses_an_option():
    """Options reach a command parsed: no _cmd_* body parses a rational or an
    alpha, or makes an integer of an option."""
    tree = ast.parse(Path(cli.__file__).read_text())
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("parse_rat", "parse_alpha"), fn.name
                assert not (node.func.id == "int" and "args" in ast.unparse(node)), fn.name


def test_the_parser_is_built_once(tmp_path, monkeypatch):
    cli._build_parser.cache_clear()
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    for _ in range(2):
        assert run(["cf", "--alpha", "rat:7/10", "--out", str(tmp_path / "cf.json")]) == 0
    assert built.count("dioph") == 1


def test_precision_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DIOPH_PRECISION_CAP", "64")
    code, data = _run_to_file(tmp_path, "cap.json",
                              ["cf", "--alpha", "quad:0,2,1", "--depth", "3",
                               "--prec", "512"])
    assert code == 0
    assert json.loads(data)["value"]["bits"] == 64


@pytest.mark.parametrize("value", ["abc", "0", "-64", "12.5", ""])
def test_precision_cap_env_invalid(monkeypatch, capsys, value):
    monkeypatch.setenv("DIOPH_PRECISION_CAP", value)
    assert run(["cf", "--alpha", "quad:0,2,1", "--depth", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dioph: error: DIOPH_PRECISION_CAP")
    assert "Traceback" not in err


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_gamma_builds_each_row_once(tmp_path, monkeypatch):
    rows = _counting(monkeypatch, quality, "_row")
    code, data = _run_to_file(tmp_path, "g.json",
                              ["gamma", "--alpha", "quad:-1,5,2", "--tau", "1",
                               "--depth", "40"])
    assert code == 0
    depth_used = json.loads(data)["gamma"]["depth_used"]
    assert depth_used == 40
    assert len(rows) == depth_used + 1


def test_set_runs_the_sieve_once(tmp_path, monkeypatch):
    sieves = _counting(monkeypatch, dioset, "truncated_set")
    assert run(["set", "--gamma", "1/10", "--tau", "4", "--qmax", "30",
                "--out", str(tmp_path / "s.json")]) == 0
    assert len(sieves) == 1


@pytest.mark.parametrize("fmt, brackets", [("json", 1), ("csv", 0), ("svg", 0)])
def test_set_builds_the_bracket_only_for_json(tmp_path, monkeypatch, fmt, brackets):
    # only the JSON prints the bracket's tail bound
    calls = _counting(monkeypatch, dioset, "set_bracket")
    assert run(["set", "--gamma", "1/10", "--tau", "9/2", "--qmax", "20", "--format", fmt,
                "--out", str(tmp_path / f"s.{fmt}")]) == 0
    assert len(calls) == brackets


def test_alpha_ticks_walk_the_expansion_once(tmp_path, monkeypatch):
    expansions = _counting(monkeypatch, cli, "cf_expand")
    tables = _counting(monkeypatch, cli, "convergents")
    code, svg = _run_to_file(tmp_path, "s.svg",
                             ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "180",
                              "--format", "svg", "--alpha", "quad:-1,5,2"])
    assert code == 0 and svg.startswith(b"<?xml")
    assert len(expansions) + len(tables) == 1


def _alpha_ticks_by_depth(spec: str, qmax: int):
    """The tick search that extends the expansion one depth at a time."""
    alpha = parse_alpha(spec)
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


@pytest.mark.parametrize("spec", [
    "rat:0", "rat:1", "rat:7/10", "rat:355/113", "rat:832040/1346269",
    "quad:-1,5,2", "quad:0,2,1", "quad:921,621,2770", "quad:1,33554435,3",
    "cf:[0]", "cf:[0;1,2,3]", "cf:[2;3]", "cf:[0;" + ",".join(["1"] * 40) + "]",
])
@pytest.mark.parametrize("qmax", [1, 2, 3, 10, 180, 10**6])
def test_alpha_ticks_match_the_depth_search(spec, qmax):
    ticks = cli._alpha_ticks(parse_alpha(spec), qmax)
    assert ticks == _alpha_ticks_by_depth(spec, qmax)


def test_determinism_repeated_runs(tmp_path):
    commands = [
        ["cf", "--alpha", "quad:-1,5,2", "--depth", "12"],
        ["gamma", "--alpha", "quad:-1,5,2", "--tau", "1", "--depth", "20"],
        ["member", "--alpha", "quad:-1,5,2", "--gamma", "2/5", "--tau", "1"],
        ["set", "--gamma", "1/10", "--tau", "4", "--qmax", "20"],
        ["gaps", "--alpha", "quad:-1,5,2", "--gamma", "1/10", "--tau", "4",
         "--depth", "8"],
        ["bands", "--tau", "4", "--m", "2", "--qmax", "20"],
        ["sweep", "--tau", "4", "--gamma-list", "1/20,1/10", "--qmax", "8",
         "--format", "svg"],
    ]
    for i, argv in enumerate(commands):
        _, first = _run_to_file(tmp_path, f"a{i}", list(argv))
        _, second = _run_to_file(tmp_path, f"b{i}", list(argv))
        assert first == second


def test_render_svg_rows_and_empty_bar():
    from dioph.dioset import IntervalSet, truncated_set
    from dioph.svgplot import render_svg

    rows = [
        ("Q=2", truncated_set(F(1, 10), F(4), 2)),
        ("empty", IntervalSet(())),
    ]
    svg = render_svg(rows)
    assert svg.count('fill="#3d6fb4"') == 2  # only the first row has intervals
    assert svg.count("<text") >= 2
    assert render_svg(rows) == svg  # pure function
    with pytest.raises(ValueError):
        render_svg([])


def test_console_entry_point_subprocess():
    # the child imports the same package as this process, installed or not
    src = str(Path(dioph.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "dioph.cli", "set", "--gamma", "1/10",
         "--tau", "4", "--qmax", "2"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["measure"] == "127/160"
