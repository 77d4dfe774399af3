import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm
from fairmeasure import cli


CANONICAL_PROCESS_CSV = (
    "path,k,exchange,component,value\n"
    "0,0,0,0,1.0\n"
    "0,1,0,0,2.0\n"
    "1,0,0,0,1.0\n"
    "1,1,0,0,0.5\n"
)


def write_config(path, **overrides):
    cfg = {
        "lattice": {"b": 2, "K": 1},
        "process": {
            "gbm": {"n": 1, "d": 1,
                    "drift": [[math.log(2.0) ** 2 / 2]],
                    "vol": [[math.log(2.0)]],
                    "corr": [[1.0]],
                    "s0": [[1.0]]}
        },
        "constraints": {"N": 2.0, "c": None, "p": 2.0},
        "objective": "m",
        "solver": {"max_iter": 300, "restarts": 3, "seed": 0},
        "io": {"process_file": "process.csv", "measure_file": "measure.csv",
               "report_file": "report.json"},
    }
    for key, val in overrides.items():
        if key != "process" and isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# -- file round-trips -------------------------------------------------------------

def test_process_file_round_trip_bit_identical(tmp_path):
    lat = fm.build_lattice(3, 2)
    proc = fm.simulate_gbm(lat, fm.GbmParams(
        n=2, d=1, drift=[[0.13], [-0.04]], vol=[[0.37], [0.52]],
        corr=np.array([[1.0, 0.3], [0.3, 1.0]]), s0=[[1.1], [0.9]]), seed=5)
    path = tmp_path / "proc.csv"
    cli.write_process_csv(path, proc)
    loaded = cli.load_process(path)
    assert loaded.lattice == proc.lattice
    assert (loaded.n, loaded.d) == (proc.n, proc.d)
    assert np.array_equal(loaded.values, proc.values)


def test_measure_file_round_trip(tmp_path):
    lat = fm.build_lattice(2, 2)
    Q = fm.Measure(lat, [0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "measure.csv"
    cli.write_measure_csv(path, Q)
    back = cli.read_measure_csv(path, lat)
    assert np.array_equal(back.weights, Q.weights)


@st.composite
def small_lattices(draw):
    """b <= 10 (one digit per branch), at most 100 paths."""
    b = draw(st.integers(2, 10))
    return fm.build_lattice(b, draw(st.integers(1, 3 if b <= 4 else 2)))


@settings(max_examples=40, deadline=None)
@given(small_lattices(), st.integers(1, 2), st.integers(1, 2),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_process_file_round_trip_random_lattices(lat, n, d, pool, seed):
    """Any finite floats (signed zeros, subnormals, extremes), one per
    (time, block, component), come back bit for bit."""
    rng = np.random.default_rng(seed)
    values = np.empty((lat.depth + 1, lat.n_paths, n * d))
    for k in range(lat.depth + 1):
        per_block = np.array(pool)[rng.integers(0, len(pool), (lat.n_blocks(k), n * d))]
        values[k] = np.repeat(per_block, lat.block_size(k), axis=0)
    proc = fm.LatticeProcess(lat, n, d, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "process.csv")
        cli.write_process_csv(path, proc)
        back = cli.load_process(path)
    assert back.lattice == lat and (back.n, back.d) == (n, d)
    assert back.values.tobytes() == proc.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(small_lattices(), st.lists(st.floats(0.0, 1e300), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_measure_file_round_trip_random_lattices(lat, pool, seed):
    rng = np.random.default_rng(seed)
    w = np.array(pool)[rng.integers(0, len(pool), lat.n_paths)]
    if not w.sum() > 0.0:
        w[0] = 1.0
    Q = fm.Measure(lat, w / w.sum())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "measure.csv")
        cli.write_measure_csv(path, Q)
        back = cli.read_measure_csv(path, lat)
    assert back.weights.tobytes() == Q.weights.tobytes()


def test_process_file_rejects_incomplete_and_duplicate(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("path,k,exchange,component,value\n0,0,0,0,1.0\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match="incomplete"):
        cli.read_process_csv(path)
    body = CANONICAL_PROCESS_CSV + "1,1,0,0,0.5\n"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(fm.ParameterError, match="duplicate"):
        cli.read_process_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_process_file_names_non_finite_value(tmp_path, bad):
    path = tmp_path / "process.csv"
    body = CANONICAL_PROCESS_CSV.replace("1,1,0,0,0.5", f"1,1,0,0,{bad}")
    assert body != CANONICAL_PROCESS_CSV
    path.write_text(body, encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=rf"process\.csv:5: non-finite value '{bad}'"):
        cli.read_process_csv(path)


def test_measure_file_rejects_duplicate_path(tmp_path):
    path = tmp_path / "measure.csv"
    path.write_text("path,weight\n0,0.5\n1,0.5\n0,0.25\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=r"measure\.csv:4: duplicate row for path '0'"):
        cli.read_measure_csv(path, fm.build_lattice(2, 1))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_measure_file_names_non_finite_weight(tmp_path, bad):
    path = tmp_path / "measure.csv"
    path.write_text(f"path,weight\n0,0.5\n1,{bad}\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=rf"measure\.csv:3: non-finite weight '{bad}'"):
        cli.read_measure_csv(path, fm.build_lattice(2, 1))


# float() itself reads both as 0.5: a digit separator, and Arabic-Indic digits
@pytest.mark.parametrize("text", ["0_0.5", "\u0660.\u0665"])
def test_readers_accept_only_ascii_float_values(tmp_path, text):
    path = tmp_path / "measure.csv"
    path.write_text(f"path,weight\n0,0.5\n1,{text}\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=rf"measure\.csv:3: bad weight '{text}'"):
        cli.read_measure_csv(path, fm.build_lattice(2, 1))
    path = tmp_path / "process.csv"
    path.write_text(CANONICAL_PROCESS_CSV.replace("1,1,0,0,0.5", f"1,1,0,0,{text}"),
                    encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=rf"process\.csv:5: bad value '{text}'"):
        cli.read_process_csv(path)


def test_measure_file_names_itself_when_weights_do_not_sum_to_one(tmp_path):
    path = tmp_path / "measure.csv"
    path.write_text("path,weight\n0,0.4\n1,0.5\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=r"measure\.csv: weights sum to .*0\.9"):
        cli.read_measure_csv(path, fm.build_lattice(2, 1))


def test_measure_file_rejects_digit_outside_the_branching(tmp_path):
    path = tmp_path / "measure.csv"
    path.write_text("path,weight\n00,0.25\n01,0.25\n02,0.25\n11,0.25\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=r"measure\.csv:4: bad path label '02'"):
        cli.read_measure_csv(path, fm.build_lattice(2, 2))


# U+00B9 passes str.isdigit but not int(); U+0661 passes both and reads as 1
@pytest.mark.parametrize("digit", ["¹", "١"])
def test_readers_reject_non_ascii_digit_labels(tmp_path, digit):
    path = tmp_path / "process.csv"
    path.write_text(CANONICAL_PROCESS_CSV.replace("\n1,1,", f"\n{digit},1,"), encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=rf"process\.csv:5: bad path label '{digit}'"):
        cli.read_process_csv(path)
    path = tmp_path / "measure.csv"
    path.write_text(f"path,weight\n0,0.5\n{digit},0.5\n", encoding="utf-8")
    with pytest.raises(fm.ParameterError, match=rf"measure\.csv:3: bad path label '{digit}'"):
        cli.read_measure_csv(path, fm.build_lattice(2, 1))


@pytest.mark.parametrize("reader,body,message", [
    ("process", "path,k,exchange,component,value\n0,0,0,1.0\n",
     r"process\.csv:2: expected 5 fields, got 4"),
    ("measure", "path,weight\n0,0.5,1\n", r"measure\.csv:2: expected 2 fields, got 3"),
    ("process", "path,k,exchange,component,value\n0,0,0,0,1.0\n1,0,0,0,1.0\n0,1,0,0,1.0\n",
     r"process\.csv: incomplete grid; no row for path '1', k=1, exchange=0, component=0"),
    ("measure", "path,weight\n1,1.0\n", r"measure\.csv: incomplete grid; no row for path '0'"),
    ("process", CANONICAL_PROCESS_CSV + "0,1,0,0,2.0\n",
     r"process\.csv:6: duplicate row for path '0', k=1, exchange=0, component=0"),
    ("process", CANONICAL_PROCESS_CSV.replace("1,1,0,0", "1,-1,0,0"),
     r"process\.csv:5: bad k '-1'"),
    ("process", CANONICAL_PROCESS_CSV.replace("1,1,0,0", "1,١,0,0"),
     r"process\.csv:5: bad k '١'"),
    ("process", CANONICAL_PROCESS_CSV.replace("1,1,0,0", "1," + "1" * 5000 + ",0,0"),
     r"process\.csv:5: bad k '1111"),
    ("process", CANONICAL_PROCESS_CSV.replace("1,1,0,0", "1," + "1" * 5000 + ",0,0"),
     r"process\.csv:5: bad k '1{32}'\.\.\. \(5000 characters\)$"),
    ("process", CANONICAL_PROCESS_CSV.replace("0,1,0,0,2.0", "0,1,0,0," + "x" * 5000),
     r"process\.csv:3: bad value 'x{32}'\.\.\. \(5000 characters\)$"),
    ("measure", "path,weight\n" + "0" * 5000 + ",0.5\n1,0.5\n",
     r"measure\.csv:2: bad path label '0{32}'\.\.\. \(5000 characters\): expected 1 "),
    ("process", CANONICAL_PROCESS_CSV.replace("0,1,0,0,2.0", "0,1,0,0,x"),
     r"process\.csv:3: bad value 'x'"),
    ("process", "path,k,exchange,component,value\n" + "".join(
        f"{label},{k},0,0,1.0\n" for label in ("00", "01", "10", "11") for k in (0, 1)),
     r"process\.csv: k runs over 0\.\.1, expected 0\.\.2"),
    ("process", CANONICAL_PROCESS_CSV.encode().replace(b"0,1,0,0,2.0", b"0,1,0,0,\xff"),
     r"process\.csv:3: not UTF-8: byte 0xff"),
    ("measure", b"path,weight\n0,0.5\n1,\xff\n", r"measure\.csv:3: not UTF-8: byte 0xff"),
    ("process", CANONICAL_PROCESS_CSV.replace("0,1,0,0,2.0", "0,1,0,0," + "1" * 131073),
     r"process\.csv:3: field larger than field limit \(131072\)"),
    ("measure", "path,weight\n0,0.5\n1," + "1" * 131073 + "\n",
     r"measure\.csv:3: field larger than field limit \(131072\)"),
    ("process", CANONICAL_PROCESS_CSV.replace(",value\n", ",val\n"),
     r"process\.csv:1: expected header 'path,k,exchange,component,value', got \['path', "),
    ("measure", "path,w\n0,0.5\n1,0.5\n",
     r"measure\.csv:1: expected header 'path,weight', got \['path', 'w'\]"),
], ids=["process-fields", "measure-fields", "process-incomplete", "measure-incomplete",
        "process-duplicate", "negative-index", "non-ascii-index", "long-index",
        "long-index-quoted", "long-value-quoted", "long-label-quoted", "bad-value",
        "short-time",
        "process-not-utf8", "measure-not-utf8", "process-long-field", "measure-long-field",
        "process-header", "measure-header"])
def test_readers_share_their_error_messages(tmp_path, reader, body, message):
    path = tmp_path / f"{reader}.csv"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(fm.ParameterError, match=message):
        if reader == "process":
            cli.read_process_csv(path)
        else:
            cli.read_measure_csv(path, fm.build_lattice(2, 1))


def test_process_file_label_beyond_the_path_budget(tmp_path):
    path = tmp_path / "process.csv"
    path.write_text("path,k,exchange,component,value\n" + "0" * 21 + ",0,0,0,1.0\n",
                    encoding="utf-8")
    with pytest.raises(fm.SizeBudgetError, match=r"process\.csv: lattice would have 2\^21"):
        cli.read_process_csv(path)


# -- commands ---------------------------------------------------------------------

def test_simulate_writes_loadable_process(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    proc = cli.load_process(tmp_path / "process.csv")
    assert sorted(proc.values[1, :, 0].round(12).tolist()) == [0.5, 2.0]


def test_simulate_multi_exchange_adapted(tmp_path):
    cfg = write_config(tmp_path / "config.json",
                       lattice={"b": 2, "K": 3},
                       process={"gbm": {"n": 2, "d": 1,
                                        "drift": [[0.1], [0.1]],
                                        "vol": [[0.3], [0.3]],
                                        "corr": [[1.0, 1.0], [1.0, 1.0]],
                                        "s0": [[1.0], [1.0]]}})
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    proc = cli.load_process(tmp_path / "process.csv")
    assert proc.n == 2 and proc.lattice.n_paths == 8


def test_simulate_invalid_corr_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json",
                       process={"gbm": {"n": 1, "d": 1, "drift": [[0.0]],
                                        "vol": [[0.1]], "corr": [[0.5]], "s0": [[1.0]]}})
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "corr" in err


def test_eval_canonical_values(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json")
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["unfairness_m"] == pytest.approx(0.0625, abs=1e-15)
    assert report["unfairness_n"] == pytest.approx(0.25, abs=1e-15)
    assert report["measure"] == "uniform"


def test_eval_with_measure_file(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    (tmp_path / "measure.csv").write_text(
        f"path,weight\n0,{1 / 3!r}\n1,{2 / 3!r}\n", encoding="utf-8")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["unfairness_m"] <= 1e-30
    assert report["unfairness_n"] <= 1e-15


def test_eval_constant_process(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    body = "path,k,exchange,component,value\n0,0,0,0,3.0\n0,1,0,0,3.0\n1,0,0,0,3.0\n1,1,0,0,3.0\n"
    (tmp_path / "process.csv").write_text(body, encoding="utf-8")
    assert cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["unfairness_m"] == 0.0
    assert report["unfairness_n"] == 0.0


def test_optimize_canonical(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["feasible"] is True
    assert report["value"] <= 1e-8
    measure = cli.read_measure_csv(tmp_path / "measure.csv", fm.build_lattice(2, 1))
    assert np.allclose(measure.weights, [1 / 3, 2 / 3], atol=1e-3)


def test_optimize_report_records_each_restart(tmp_path):
    """m at p = 1 is not smooth, so random starts are drawn; with N = 1.2 its
    optimum is a vertex of the box, where every start stops on the gap."""
    cfg = write_config(tmp_path / "config.json", constraints={"N": 1.2, "p": 1.0})
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report) == ["command", "version", "objective", "p", "N", "c", "seed", "value",
                            "feasible", "gap", "kkt", "lagrangian_gap", "iterations",
                            "constraint_slacks", "winner", "restarts", "measure_file"]
    # no floor: no KKT certificate, and no gap either, as m at p = 1 is not smooth
    assert report["gap"] is None and report["kkt"] is None and report["lagrangian_gap"] is None
    records = report["restarts"]
    assert [r["kind"] for r in records] == ["base", "random", "random"]
    for r in records:
        assert list(r) == ["kind", "stop", "iterations", "evaluations", "gradients",
                           "projections", "penalty_rounds", "value", "violation",
                           "multipliers"]
        assert r["stop"] == "tol" and r["penalty_rounds"] == 1
        assert r["multipliers"] == []
        assert r["gradients"] == r["iterations"] + 1
        assert r["evaluations"] >= r["iterations"] + 1
        # each trial step is projected and then evaluated, and the round's
        # start is evaluated only; the gap test projects nothing
        assert r["projections"] == r["evaluations"] - 1
    winner = report["winner"]
    solved = records[winner // 2]
    assert report["iterations"] == (solved["iterations"] if winner % 2 else 0)
    if winner % 2:
        assert report["value"] == solved["value"]


def test_optimize_smooth_convex_m_records_base_start_only(tmp_path):
    """m at p = 2 without a floor is convex and smooth: one start, and the
    report carries its certified Frank-Wolfe gap."""
    cfg = write_config(tmp_path / "config.json")
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [r["kind"] for r in report["restarts"]] == ["base"]
    assert report["restarts"][0]["stop"] == "tol"
    assert 0.0 <= report["value"] <= report["gap"] <= 1e-9


def test_optimize_singleton_box(tmp_path):
    cfg = write_config(tmp_path / "config.json", constraints={"N": 1.0})
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["value"] == pytest.approx(0.0625, abs=1e-12)
    measure = cli.read_measure_csv(tmp_path / "measure.csv", fm.build_lattice(2, 1))
    assert np.allclose(measure.weights, 0.5, atol=1e-12)


def test_optimize_infeasible_floor_exits_2(tmp_path):
    cfg = write_config(tmp_path / "config.json",
                       process={"gbm": {"n": 2, "d": 1,
                                        "drift": [[0.1], [0.1]],
                                        "vol": [[0.4], [0.4]],
                                        "corr": [[1.0, 1.0], [1.0, 1.0]],
                                        "s0": [[1.0], [1.0]]}},
                       constraints={"N": 2.0, "c": 0.9, "p": 2.0},
                       solver={"restarts": 2, "max_iter": 80, "seed": 0})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["feasible"] is False


def test_reports_are_byte_identical_across_runs(tmp_path):
    cfg = write_config(tmp_path / "config.json")
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        out.mkdir()
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out),
                         "--seed", "0"]) == 0
        outs.append(out)
    for name in ("process.csv", "measure.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_calibrate_command(tmp_path):
    prices = tmp_path / "prices.csv"
    rows = ["timestamp,exchange,price"]
    rng = np.random.default_rng(0)
    walk = np.exp(np.cumsum(rng.normal(0.001, 0.02, 30)))
    for t, p in enumerate(walk):
        rows.append(f"{t * 60},binance,{float(p)!r}")
        rows.append(f"{t * 60},kraken,{float(p * (1 + 0.001 * math.sin(t)))!r}")
    prices.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(
        tmp_path / "config.json",
        lattice={"b": 3, "K": 2},
        process={"calibration": {"csv": "prices.csv", "exchanges": ["binance", "kraken"]}})
    assert cli.main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    params = json.loads((tmp_path / "params.json").read_text())
    assert params["n"] == 2
    assert params["corr"][0][1] == pytest.approx(params["corr"][1][0])
    # the same config can drive a simulation off the calibrated parameters
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_optimize_calibrated_config_with_a_floor(tmp_path):
    """Large penalty steps put rows near -2e4, where the projection used to
    lose the sum constraint and the solver to fail building its measure."""
    prices = tmp_path / "prices.csv"
    rows = ["timestamp,exchange,price"]
    rng = np.random.default_rng(0)
    walk = np.exp(np.cumsum(rng.normal(0.001, 0.02, 30)))
    for t, p in enumerate(walk):
        rows.append(f"{t * 60},binance,{float(p)!r}")
        rows.append(f"{t * 60},kraken,{float(p * (1 + 0.001 * math.sin(t)))!r}")
    prices.write_text("\n".join(rows) + "\n", encoding="utf-8")
    cfg = write_config(
        tmp_path / "config.json",
        lattice={"b": 3, "K": 2}, constraints={"N": 2.0, "c": 0.1, "p": 2.0},
        process={"calibration": {"csv": "prices.csv", "exchanges": ["binance", "kraken"]}})
    # the floor is out of reach (violation 0.09999), so optimize exits 2
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "report.json").read_text())
    assert all(min(r["multipliers"]) > 0.0 for r in report["restarts"])
    # the certificate of a floor answer: its KKT residual is at least its
    # violation, and its Lagrangian's gap is part of it
    slack = report["constraint_slacks"]["correlation_0_1"]
    assert report["gap"] is None and report["kkt"] >= max(-slack, report["lagrangian_gap"]) >= 0.0
    measure = cli.read_measure_csv(tmp_path / "measure.csv", fm.build_lattice(3, 2))
    assert abs(float(measure.weights.sum()) - 1.0) <= 1e-13


def test_optimize_prints_the_floor_certificate(tmp_path, capsys):
    """The summary line gives the KKT residual where the report has a floor
    certificate, and the gap where it has a certified gap."""
    cfg = write_config(tmp_path / "config.json")
    (tmp_path / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert capsys.readouterr().out == (f"m* = {report['value']!r} (feasible, "
                                       f"gap={report['gap']:.3e}, iters={report['iterations']})\n")
    floor = tmp_path / "floor"
    floor.mkdir()
    cfg = write_config(floor / "config.json",
                       process={"gbm": {"n": 2, "d": 1, "drift": [[0.1], [0.05]],
                                        "vol": [[0.4], [0.3]], "corr": [[1.0, 0.5], [0.5, 1.0]],
                                        "s0": [[1.0], [1.0]]}},
                       lattice={"b": 3, "K": 2}, constraints={"N": 2.0, "c": 0.0, "p": 2.0})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(floor)]) == 0
    report = json.loads((floor / "report.json").read_text())
    assert report["gap"] is None and report["kkt"] is not None
    assert capsys.readouterr().out.endswith(
        f"(feasible, kkt={report['kkt']:.3e}, iters={report['iterations']})\n")


@pytest.mark.parametrize("seed", range(5))
def test_verify_default_suite_passes(tmp_path, capsys, seed):
    cfg = write_config(tmp_path / "config.json")
    argv = ["verify", "--config", str(cfg), "--out", str(tmp_path), "--seed", str(seed)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "[PASS] tower-property" in out
    assert "FAIL" not in out


def test_verify_detects_broken_process(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json")
    broken = ("path,k,exchange,component,value\n"
              "0,0,0,0,1.0\n0,1,0,0,2.0\n1,0,0,0,1.5\n1,1,0,0,0.5\n")
    (tmp_path / "process.csv").write_text(broken, encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] process-file-adapted" in out
    assert "block 0" in out


def test_verify_reports_p_below_one_as_skipped(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", constraints={"N": 2.0, "p": 0.5})
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] m-triangle-p=0.5 -- skipped: p<1" in out


def test_verify_times_checks_on_stdout_only(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json")
    reports = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / run), "--seed", "5"]
        assert cli.main(args) == 0
        reports.append((tmp_path / run / "report.json").read_bytes())
    assert reports[0] == reports[1]
    checks = json.loads(reports[0])["checks"]
    assert all(set(check) == {"name", "status", "detail"} for check in checks)
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(lines) == 2 * len(checks)
    for line in lines:
        seconds = line.rsplit(" (", 1)[1]
        assert seconds.endswith(" s)") and float(seconds[:-3]) >= 0.0


@pytest.mark.parametrize("patch,expected", [
    ({"lattice": {"b": 1, "K": 1}}, "lattice"),
    ({"constraints": {"N": 0.5}}, "constraints"),
    ({"constraints": {"N": 2.0, "p": -1.0}}, "constraints"),
    ({"objective": "x"}, "objective"),
    ({"solver": {"gradient": "magic"}}, "solver"),
    ({"lattice": {"b": 11, "K": 2}}, "lattice: digit-string labels support branching <= 10"),
])
def test_config_errors_name_the_offending_key(tmp_path, capsys, patch, expected):
    cfg = write_config(tmp_path / "config.json", **patch)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("patch,expected", [
    ({"constraints": {"N": 2.0, "p": math.inf}}, "constraints"),
    ({"constraints": {"N": math.inf}}, "constraints"),
    ({"solver": {"max_iter": -1}}, "solver"),
    ({"solver": {"restarts": 0}}, "solver"),
    ({"solver": {"seed": -1}}, "solver"),
])
def test_config_non_finite_or_out_of_range_numbers_exit_1(tmp_path, capsys, patch, expected):
    """Out-of-range numbers, JSON's Infinity literal among them, reach the
    dataclass checks, which reject them before any command runs."""
    cfg = write_config(tmp_path / "config.json", **patch)
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"error: {expected}: " in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("section", ["config", "lattice", "process", "process.gbm",
                                     "process.calibration", "constraints", "solver", "io"])
def test_config_rejects_unknown_keys(tmp_path, capsys, section):
    cfg_path = tmp_path / "config.json"
    cfg = json.loads(write_config(cfg_path).read_text())
    if section == "process.calibration":
        cfg["process"] = {"calibration": {"csv": "prices.csv"}}
    obj = cfg
    for key in [] if section == "config" else section.split("."):
        obj = obj[key]
    obj["bogus"] = 1
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert f"error: {section}.bogus: unknown key" in capsys.readouterr().err


def test_config_misspelled_solver_key_is_not_ignored(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", solver={"restart": 1})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "solver.restart: unknown key" in capsys.readouterr().err


def test_config_unset_and_null_keys_take_the_dataclass_defaults(tmp_path):
    cfg = write_config(tmp_path / "config.json",
                       constraints={"N": 3, "c": None, "p": None},
                       solver={"max_iter": None, "restarts": None, "tol": None, "seed": None},
                       io=None)
    run = cli.parse_config(cfg)
    assert run.constraints == fm.ConstraintParams(N=3.0)
    assert type(run.constraints.N) is float
    assert run.solver == fm.SolveOptions()
    assert run.io == cli.IoPaths()


@pytest.mark.parametrize("section,key", [("lattice", "K"), ("constraints", "N"),
                                         ("process.gbm", "vol")])
def test_config_names_a_missing_required_key(tmp_path, capsys, section, key):
    cfg_path = tmp_path / "config.json"
    cfg = json.loads(write_config(cfg_path).read_text())
    obj = cfg
    for part in section.split("."):
        obj = obj[part]
    obj[key] = None
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert f"error: {section}.{key}: missing required key" in capsys.readouterr().err


# the label "\udcff" writes the byte 0xff, which is not UTF-8
@pytest.mark.parametrize("command,name,label,message", [
    pytest.param("eval", "process.csv", "¹", "bad path label '¹'", id="process.csv-¹"),
    pytest.param("eval", "process.csv", "١", "bad path label '١'", id="process.csv-١"),
    pytest.param("eval", "measure.csv", "2", "bad path label '2'", id="measure.csv-2"),
    pytest.param("eval", "process.csv", "\udcff", "not UTF-8", id="process.csv-0xff-eval"),
    pytest.param("verify", "process.csv", "\udcff", "not UTF-8", id="process.csv-0xff-verify"),
])
def test_eval_bad_label_exits_1_without_traceback(tmp_path, capsys, command, name, label,
                                                  message):
    cfg = write_config(tmp_path / "config.json")
    files = {"process.csv": CANONICAL_PROCESS_CSV, "measure.csv": "path,weight\n0,0.5\n1,0.5\n"}
    files[name] = files[name].replace("\n1,", f"\n{label},", 1)
    for file, body in files.items():
        (tmp_path / file).write_bytes(body.encode("utf-8", "surrogateescape"))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    line = 3 if name == "measure.csv" else 4
    if command == "verify":
        assert "[FAIL] process-file-adapted -- " in out and f"{name}:{line}: {message}" in out
    else:
        assert err.startswith("error: ") and f"{name}:{line}: {message}" in err
    assert "Traceback" not in err


def test_verify_draws_do_not_depend_on_the_other_checks(tmp_path, monkeypatch):
    from fairmeasure import verify
    run = cli.parse_config(write_config(tmp_path / "config.json"))
    draws = {}

    def recorder(name):
        def check(rng):
            draws[name] = rng.random(4).tolist()
            return True, ""
        return check

    names = [name for name, _ in verify.CHECKS]
    results = {}
    for kept in (names, names[1:], names[:3] + names[4:]):
        draws.clear()
        monkeypatch.setattr(verify, "CHECKS", [(n, recorder(n)) for n in kept])
        verify.run_verification(run, str(tmp_path), seed=3)
        results[len(results)] = dict(draws)
    full = results[0]
    assert len({tuple(v) for v in full.values()}) == len(names)
    for partial in (results[1], results[2]):
        assert partial == {n: full[n] for n in partial}


@pytest.mark.parametrize("io,keys", [
    ({"process_file": "x.csv", "measure_file": "x.csv"}, "process_file and measure_file"),
    ({"measure_file": "./out/m.csv", "report_file": "out/m.csv"}, "measure_file and report_file"),
    ({"params_file": "a/../report.json"}, "report_file and params_file"),
])
def test_config_refuses_io_names_of_one_file(tmp_path, capsys, io, keys):
    """Two outputs of one name would overwrite each other: optimize would
    write the measure over the process that eval then reads."""
    cfg = write_config(tmp_path / "config.json", io=io)
    for command in ("simulate", "optimize"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: io: {keys} name the same file ")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("key", ["process_file", "measure_file", "report_file", "params_file"])
def test_config_refuses_an_output_named_as_the_calibration_csv(tmp_path, capsys, key):
    """An output of the price file's name would overwrite it: simulate would
    write the process over the prices that the next run calibrates from."""
    prices = tmp_path / "prices.csv"
    prices.write_text("timestamp,exchange,price\n0,a,1.0\n", encoding="utf-8")
    cfg = write_config(tmp_path / "config.json", lattice={"b": 4, "K": 2},
                       process={"calibration": {"csv": "prices.csv"}},
                       io={key: "./out/../prices.csv"})
    for command in ("simulate", "calibrate", "optimize"):
        assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: process.calibration.csv and io.{key} name the same file 'prices.csv'\n")
    assert sorted(tmp_path.iterdir()) == [cfg, prices]
    assert prices.read_text(encoding="utf-8") == "timestamp,exchange,price\n0,a,1.0\n"


def test_config_refuses_a_calibration_exchange_listed_twice(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json",
                       process={"calibration": {"csv": "prices.csv", "exchanges": ["a", "b", "a"]}})
    assert cli.main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: process.calibration: exchanges: 'a' is listed twice\n"


def test_config_requires_exactly_one_process_source(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg = json.loads(write_config(cfg_path).read_text())
    cfg["process"]["calibration"] = {"csv": "prices.csv"}
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "process" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    assert cli.main(["eval", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config" in capsys.readouterr().err
    # and one that is not UTF-8
    cfg = write_config(tmp_path / "config.json")
    cfg.write_bytes(cfg.read_bytes().replace(b'"b": 2', b'"b": \xff', 1))
    assert cli.main(["eval", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config.json:1: not UTF-8: byte 0xff" in err
    assert "Traceback" not in err
    with pytest.raises(fm.ConfigError, match=r"config\.json:1: not UTF-8"):
        cli.parse_config(cfg)
    # and one with an integer longer than int() takes
    cfg = write_config(tmp_path / "config.json")
    cfg.write_bytes(cfg.read_bytes().replace(b'"b": 2', b'"b": ' + b"1" * 5000, 1))
    assert cli.main(["eval", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config ") and "is not valid JSON: Exceeds the limit" in err
    assert "Traceback" not in err


def test_config_errors_pass_on_no_advice_about_the_interpreter(tmp_path):
    """int()'s advice to call sys.set_int_max_str_digits is for programmers,
    not for the author of a config file."""
    cfg = write_config(tmp_path / "config.json")
    cfg.write_bytes(cfg.read_bytes().replace(b'"b": 2', b'"b": ' + b"1" * 5000, 1))
    with pytest.raises(fm.ConfigError) as info:
        cli.parse_config(cfg)
    assert str(info.value).endswith("is not valid JSON: Exceeds the limit (4300 digits) for "
                                    "integer string conversion: value has 5000 digits")


@pytest.mark.parametrize("seed,shown", [("1_0", "'1_0'"),
                                        ("1" * 5000, "'" + "1" * 32 + "'... (5000 characters)")])
def test_a_refused_seed_is_quoted_as_readers_quote_fields(capsys, seed, shown):
    assert cli.main(["eval", "--config", "c.json", "--seed", seed]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument --seed: invalid integer value: {shown}\n")


@pytest.mark.parametrize("command", ["simulate", "optimize", "verify"])
def test_negative_seed_exits_1_without_traceback(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "config.json")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed must be an integer >= 0, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "process.csv").exists() and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [["eval"]] + [["eval", "--config", "c.json", "--seed", seed]
                                               for seed in ("2.5", "1_0", "١", " 3", "1" * 5000)])
def test_usage_errors_exit_1_not_the_infeasible_code(capsys, argv):
    assert cli.main(argv) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "usage: fairmeasure" in err and "Traceback" not in err


def test_solve_options_fields_are_the_solver_config_keys():
    assert {f.name for f in dataclasses.fields(fm.SolveOptions)} == cli._SOLVER.keys()


def test_config_gradient_other_than_analytic_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", solver={"gradient": "fd"})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert 'solver.gradient: only "analytic" is supported' in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("gradient", ["analytic", None])
def test_config_gradient_analytic_changes_no_output_byte(tmp_path, gradient):
    """A config that still names the analytic gradient writes the same
    report and measure as one without the key."""
    outs = []
    for name, solver in (("without", {}), ("with", {"gradient": gradient})):
        out = tmp_path / name
        out.mkdir()
        (out / "process.csv").write_text(CANONICAL_PROCESS_CSV, encoding="utf-8")
        cfg = write_config(out / "config.json", solver=solver)
        assert cli.main(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("report.json", "measure.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("key,value", [("step", 1), ("step", 1.0), ("tol", 1e-9),
                                       ("gradient", "analytic"), ("step", None),
                                       ("tol", None), ("gradient", None)])
def test_config_retired_solver_key_at_its_one_value_parses(tmp_path, key, value):
    cfg = write_config(tmp_path / "config.json", solver={key: value})
    assert cli.parse_config(cfg).solver == fm.SolveOptions(max_iter=300, restarts=3, seed=0)


@pytest.mark.parametrize("key,value", [
    ("step", 0.5), ("step", 0.0), ("step", -1.0), ("step", math.nan), ("step", math.inf),
    ("step", True), ("step", "1.0"), ("tol", 0.0), ("tol", 1e-8), ("tol", math.nan),
    ("tol", True), ("gradient", "fd"), ("gradient", True), ("gradient", 1.0),
])
def test_config_retired_solver_key_at_another_value_exits_1(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "config.json", solver={key: value})
    assert cli.main(["optimize", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: solver.{key}: ") and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_config_retired_solver_keys_change_no_output_byte(tmp_path):
    """A config that sets every retired key at its value writes the same
    process, measure and report as one without them."""
    outs = []
    for name, solver in (("without", {}),
                         ("with", {"gradient": "analytic", "step": 1.0, "tol": 1e-9})):
        out = tmp_path / name
        out.mkdir()
        cfg = write_config(out / "config.json", constraints={"p": 1.0}, solver=solver)
        for command in ("simulate", "optimize"):
            assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("process.csv", "measure.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
