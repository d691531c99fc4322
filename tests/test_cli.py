import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import dioph
from dioph import arith, contfrac, quality
from dioph.cli import run


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


@pytest.mark.parametrize("depth", ["5", "80"])
def test_gamma_splits_the_radicand_at_most_twice(tmp_path, monkeypatch, depth):
    calls = _counting(monkeypatch, arith, "_square_free_split")
    monkeypatch.setattr(contfrac, "_square_free_split", arith._square_free_split)
    alpha = "quad:1,33554435,3"  # 25-bit radicand, scaled by q^2 = 9 in the tails
    code, data = _run_to_file(tmp_path, "g.json",
                              ["gamma", "--alpha", alpha, "--tau", "1", "--depth", depth])
    assert code == 0
    assert len(json.loads(data)["rows"]) == int(depth) + 1
    assert len(calls) <= 2


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
