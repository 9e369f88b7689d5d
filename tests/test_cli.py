"""Command-line interface: exit codes, artifact layout, determinism, SVG."""
import argparse
import base64
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdportfolio import cli, objective, trainer
from qdportfolio.ensemble import BAG_MODES
from qdportfolio.generator import GeneratorConfig
from qdportfolio.marketdata import DataError, compute_log_returns, load_prices, time_split
from qdportfolio.objective import LossConfig
from qdportfolio.optim import GRADIENT_KINDS, Hyper, OptimizerKind
from qdportfolio.trainer import TrainConfig
from qdportfolio.cli import (
    DEFAULTS,
    UsageError,
    main,
    parse_config_file,
    render_svg,
)
from qdportfolio.trainer import format_value

# Written by checkpoint format version 1; its README says how.
V1_FIXTURE = Path(__file__).parent / "data" / "checkpoint_v1"

SMALL_ARCH = """\
# small architecture for fast tests
noise_dim=4
conv_channels=2
conv_kernel=2
lstm_hidden=3
population=4
iterations=4
window=10
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic dataset plus one finished training run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--out", str(data_dir), "--assets", "5", "--days", "60",
                 "--sparse", "2", "--seed", "3"]) == 0
    config = root / "small.config"
    config.write_text(SMALL_ARCH)
    run_dir = root / "run"
    assert main(["train", "--data", str(data_dir / "prices.csv"),
                 "--config", str(config), "--out", str(run_dir)]) == 0
    return {
        "root": root,
        "prices": data_dir / "prices.csv",
        "config": config,
        "run": run_dir,
    }


def read_config_lines(path: Path) -> dict:
    values = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


def test_synth_outputs(workspace, capsys):
    out = workspace["root"] / "synth_again"
    assert main(["synth", "--out", str(out), "--assets", "6", "--days", "30",
                 "--sparse", "3", "--seed", "9"]) == 0
    captured = capsys.readouterr().out
    assert "rows=31 assets=6 support=3" in captured
    prices = (out / "prices.csv").read_text().splitlines()
    assert prices[0].startswith("date,INDEX,")
    assert len(prices) == 32
    weights = (out / "true_weights.csv").read_text().splitlines()
    assert weights[0] == "ticker,weight"
    assert len(weights) == 4


def test_ingest_round_trip(workspace, capsys):
    out = workspace["root"] / "ingested"
    assert main(["ingest", "--data", str(workspace["prices"]),
                 "--out", str(out)]) == 0
    assert "assets=5" in capsys.readouterr().out
    assert (out / "prices.csv").read_text() == workspace["prices"].read_text()


def test_train_artifacts(workspace, capsys):
    run = workspace["run"]
    for name in ("run.config", "loss.csv", "eval.csv", "timing.csv",
                 "checkpoint.final", "checkpoint.best"):
        assert (run / name).exists(), name
    values = read_config_lines(run / "run.config")
    assert values["iterations"] == "4"
    assert values["population"] == "4"
    assert values["n_assets"] == "5"
    assert values["lambda"] == "1e-06"
    assert values["optimizer"] == "adamw"
    assert values["learning_rate"] == "0.01"   # generator default when unset
    assert values["train_fraction"] == "0.8"
    loss_lines = (run / "loss.csv").read_text().splitlines()
    assert len(loss_lines) == 5


def test_flags_override_config_file(workspace, capsys, tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "mix.config"
    config.write_text(SMALL_ARCH + "lambda=0.5\nseed=4\n")
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(config), "--out", str(out),
                 "--iterations", "2", "--lambda", "0.25"]) == 0
    values = read_config_lines(out / "run.config")
    assert values["iterations"] == "2"       # flag beats file
    assert values["lambda"] == "0.25"        # flag beats file
    assert values["seed"] == "4"             # file beats default
    assert values["window"] == "10"          # file beats default
    assert values["eval_every"] == "1"       # untouched default


def test_lambda_zero_survives_round_trip(workspace, tmp_path, capsys):
    config = tmp_path / "zero.config"
    config.write_text(SMALL_ARCH + "lambda=0\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(config), "--out", str(out),
                 "--iterations", "1"]) == 0
    assert parse_config_file(config)["lambda"] == 0.0
    assert read_config_lines(out / "run.config")["lambda"] == "0.0"


def test_eval_reproduces_training_best(workspace, capsys, tmp_path):
    run = workspace["run"]
    out = tmp_path / "eval"
    assert main(["eval", str(run / "checkpoint.best"),
                 "--data", str(workspace["prices"]), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    report = {
        key: value
        for key, _, value in (
            line.partition("=")
            for line in (out / "report.txt").read_text().splitlines()
        )
    }
    assert printed == f"ensemble_mse={report['ensemble_mse']}"
    # the score of the best checkpoint equals the recorded training best
    eval_lines = (run / "eval.csv").read_text().splitlines()[1:]
    best_mse = min(float(line.split(",")[1]) for line in eval_lines)
    assert float(report["ensemble_mse"]) == best_mse
    assert report["checkpoint_kind"] == "generator"
    assert report["population"] == "4"
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "date,index,ensemble," + ",".join(f"sub_{i:04d}" for i in range(4))
    assert len(series) == 13       # 12 validation rows
    # the index column is the validation panel's own series, bit for bit
    table = load_prices(workspace["prices"], "INDEX")
    validation = time_split(compute_log_returns(table), 0.8).validation
    assert [float(line.split(",")[1]) for line in series[1:]] == validation.index_returns.tolist()
    weights = (out / "weights.csv").read_text().splitlines()
    assert weights[0] == "ticker,weight"
    total = sum(float(line.split(",")[1]) for line in weights[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_eval_with_fresh_noise(workspace, tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    checkpoint = str(workspace["run"] / "checkpoint.best")
    assert main(["eval", checkpoint, "--data", str(workspace["prices"]),
                 "--out", str(out_a), "--eval-seed", "123"]) == 0
    assert main(["eval", checkpoint, "--data", str(workspace["prices"]),
                 "--out", str(out_b), "--eval-seed", "123"]) == 0
    assert (out_a / "report.txt").read_text() == (out_b / "report.txt").read_text()
    stored = main(["eval", checkpoint, "--data", str(workspace["prices"]),
                   "--out", str(tmp_path / "c")])
    assert stored == 0
    # fresh noise is a different draw than the stored evaluation noise
    assert (out_a / "report.txt").read_text() != (tmp_path / "c" / "report.txt").read_text()
    capsys.readouterr()


def test_eval_report_names_the_noise_it_used(workspace, tmp_path, capsys):
    checkpoint = str(workspace["run"] / "checkpoint.best")
    base = ["eval", checkpoint, "--data", str(workspace["prices"])]
    assert main(base + ["--out", str(tmp_path / "fresh"), "--eval-seed", "7"]) == 0
    assert main(base + ["--out", str(tmp_path / "stored")]) == 0
    capsys.readouterr()
    assert read_config_lines(tmp_path / "fresh" / "report.txt")["eval_seed"] == "7"
    assert read_config_lines(tmp_path / "stored" / "report.txt")["eval_seed"] == ""
    # run.config keeps the checkpoint's own seed, so it still replays the training run
    for name in ("fresh", "stored"):
        assert read_config_lines(tmp_path / name / "run.config")["eval_seed"] == ""


def test_eval_quotes_tickers_that_need_quoting(workspace, tmp_path, capsys):
    lines = workspace["prices"].read_text().splitlines(keepends=True)
    header = next(csv.reader(lines))
    names = ["A,1", 'B"2', "C,3", 'D"4', "E,5"]
    renamed = tmp_path / "renamed.csv"
    with renamed.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header[:2] + names)
        fh.writelines(lines[1:])
    checkpoint = str(workspace["run"] / "checkpoint.best")
    for data, out in ((workspace["prices"], "plain"), (renamed, "quoted")):
        assert main(["eval", checkpoint, "--data", str(data), "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    plain, quoted = (
        list(csv.reader((tmp_path / out / "weights.csv").read_text().splitlines()))
        for out in ("plain", "quoted")
    )
    rename = dict(zip(header[2:], names))
    assert quoted == [plain[0], *([rename[ticker], weight] for ticker, weight in plain[1:])]


def test_plot_from_series(workspace, tmp_path, capsys):
    eval_dir = tmp_path / "eval"
    assert main(["eval", str(workspace["run"] / "checkpoint.best"),
                 "--data", str(workspace["prices"]), "--out", str(eval_dir)]) == 0
    plot_dir = tmp_path / "plot"
    assert main(["plot", "--data", str(eval_dir / "series.csv"),
                 "--out", str(plot_dir)]) == 0
    capsys.readouterr()
    svg = (plot_dir / "plot.svg").read_text()
    root = ET.fromstring(svg)               # must be well-formed XML
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 4 + 2          # members + index + ensemble
    strokes = [p.attrib["stroke"] for p in polylines]
    assert strokes.count("#d62728") == 1
    assert strokes.count("#1f77b4") == 1
    assert strokes.count("#b0b0b0") == 4
    # highlighted pair drawn last, on top of the gray members
    assert set(strokes[-2:]) == {"#d62728", "#1f77b4"}
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_identical_argv_identical_artifacts(workspace, tmp_path, capsys):
    args = ["train", "--data", str(workspace["prices"]),
            "--config", str(workspace["config"]), "--seed", "8"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    names = {p.name for p in out_a.iterdir()}
    assert names == {p.name for p in out_b.iterdir()}
    for name in sorted(names - {"timing.csv"}):   # wall clock may differ
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_resume_flag_continues_run(workspace, tmp_path, capsys):
    base = ["train", "--data", str(workspace["prices"]),
            "--config", str(workspace["config"]), "--seed", "5"]
    full, part, cont = tmp_path / "full", tmp_path / "part", tmp_path / "cont"
    assert main(base + ["--out", str(full), "--iterations", "4"]) == 0
    assert main(base + ["--out", str(part), "--iterations", "2"]) == 0
    assert main(base + ["--out", str(cont), "--iterations", "4",
                        "--resume", str(part / "checkpoint.final")]) == 0
    capsys.readouterr()
    assert (cont / "checkpoint.final").read_bytes() == (full / "checkpoint.final").read_bytes()
    assert (cont / "checkpoint.best").read_bytes() == (full / "checkpoint.best").read_bytes()
    # the resumed loss log covers iterations 3..4
    lines = (cont / "loss.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["3", "4"]


def test_run_config_replays_the_run(workspace, tmp_path, capsys):
    replay = tmp_path / "replay"
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(workspace["run"] / "run.config"),
                 "--out", str(replay)]) == 0
    capsys.readouterr()
    for name in ("run.config", "checkpoint.final", "checkpoint.best", "loss.csv", "eval.csv"):
        assert (replay / name).read_bytes() == (workspace["run"] / name).read_bytes(), name


def test_run_config_on_other_assets_exits_2(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--assets", "6", "--days", "60",
                 "--sparse", "2", "--seed", "3"]) == 0
    assert main(["train", "--data", str(data / "prices.csv"),
                 "--config", str(workspace["run"] / "run.config"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "config expects 5 assets, data has 6" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_eval_scores_a_checkpoint_whose_window_the_training_side_cannot_hold(workspace, tmp_path):
    # eval scores the validation side alone: the window rule is train's and compare's
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--assets", "5", "--days", "120",
                 "--sparse", "2", "--seed", "3"]) == 0
    assert main(["train", "--data", str(data / "prices.csv"), "--config", str(workspace["config"]),
                 "--window", "60", "--iterations", "1", "--out", str(tmp_path / "r")]) == 0
    # the shared 60-day data trains on 48 rows, which train and compare refuse for this window
    assert main(["eval", str(tmp_path / "r" / "checkpoint.best"), "--data", str(workspace["prices"]),
                 "--out", str(tmp_path / "e")]) == 0


def test_every_config_key_reaches_the_run(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--assets", "5", "--days", "60",
                 "--sparse", "2", "--seed", "3", "--index-column", "SPX"]) == 0
    values = {
        "iterations": 3, "window": 9, "seed": 11, "eval_seed": 5, "eval_every": 2,
        "optimizer": "rprop", "bag_mode": "sparsify_mean",
        "noise_dim": 5, "conv_channels": 2, "conv_kernel": 2, "lstm_hidden": 3,
        "population": 3, "lambda": 0.25, "p_zero": 0.2, "noise_sigma": 0.02,
        "corruption": False, "learning_rate": 0.05, "beta1": 0.8, "beta2": 0.99,
        "eps": 1e-7, "weight_decay": 0.02, "rmsprop_alpha": 0.9,
        "rprop_eta_plus": 1.3, "rprop_eta_minus": 0.4, "rprop_step_min": 1e-5,
        "rprop_step_max": 10.0, "cmaes_sigma0": 0.2,
        "train_fraction": 0.75, "index_column": "SPX",
    }
    assert values.keys() == DEFAULTS.keys()
    assert all(values[key] != DEFAULTS[key] for key in values)
    config = tmp_path / "all.config"
    config.write_text("".join(f"{key}={format_value(v)}\n" for key, v in values.items()))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data / "prices.csv"),
                 "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    written = read_config_lines(out / "run.config")
    assert written == {**{k: format_value(v) for k, v in values.items()}, "n_assets": "5"}


def test_compare_command(workspace, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(workspace["prices"]),
                 "--config", str(workspace["config"]), "--out", str(out),
                 "--iterations", "2"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("best=")
    table = (out / "table.csv").read_text().splitlines()
    assert table[0] == "optimizer,best_validation_mse,evaluations_used,seed"
    assert len(table) == 12
    labels = {line.split(",")[0] for line in table[1:]}
    assert "proposed" in labels and "cmaes" in labels and "adamw" in labels
    assert not (out / "failures.csv").exists()
    assert (out / "runs" / "proposed" / "checkpoint.best").exists()


def test_compare_with_no_successful_run_writes_its_tables_then_exits_2(
        workspace, tmp_path, capsys, monkeypatch):
    def refuse(config, data, kind, run_seed, baseline_rate):
        raise DataError("refused here")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # runs here
    monkeypatch.setattr(trainer, "_compare_task", refuse)
    out = tmp_path / "out"
    assert main(["compare", "--data", str(workspace["prices"]), "--config", str(workspace["config"]),
                 "--out", str(out), "--iterations", "2"]) == 2
    assert capsys.readouterr().err == "error: data: no run succeeded; see failures.csv\n"
    assert len((out / "table.csv").read_text().splitlines()) == 12
    failures = (out / "failures.csv").read_text().splitlines()
    assert failures[0] == "optimizer,error"
    assert {line.split(",", 1)[1] for line in failures[1:]} == {"DataError: refused here"}
    assert len(failures) == 12
    assert not (out / "runs").exists()


def test_compare_run_config_replays_the_table(workspace, tmp_path, capsys):
    out, replay = tmp_path / "cmp", tmp_path / "replay"
    assert main(["compare", "--data", str(workspace["prices"]),
                 "--config", str(workspace["config"]), "--out", str(out),
                 "--iterations", "2"]) == 0
    assert main(["compare", "--data", str(workspace["prices"]),
                 "--config", str(out / "run.config"), "--out", str(replay)]) == 0
    capsys.readouterr()
    # unset stays unset, so each role keeps its own rate on replay
    assert read_config_lines(out / "run.config")["learning_rate"] == ""
    assert (replay / "table.csv").read_bytes() == (out / "table.csv").read_bytes()


def test_compare_per_run_config_replays_its_row(workspace, tmp_path, capsys):
    out, replay = tmp_path / "cmp", tmp_path / "replay"
    assert main(["compare", "--data", str(workspace["prices"]),
                 "--config", str(workspace["config"]), "--out", str(out),
                 "--iterations", "2", "--train-fraction", "0.7"]) == 0
    run_configs = sorted((out / "runs").glob("*/run.config"))
    assert len(run_configs) == 11
    for run_config in run_configs:
        written = read_config_lines(run_config)
        assert (written["train_fraction"], written["index_column"]) == ("0.7", "INDEX")
    assert main(["train", "--data", str(workspace["prices"]), "--out", str(replay),
                 "--config", str(out / "runs" / "proposed" / "run.config")]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    table = {row["optimizer"]: row for row in csv.DictReader((out / "table.csv").read_text().splitlines())}
    assert printed.startswith(f"best_validation_mse={table['proposed']['best_validation_mse']} ")


def test_compare_cmaes_run_config_names_cmaes(workspace, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--data", str(workspace["prices"]),
                 "--config", str(workspace["config"]), "--out", str(out),
                 "--iterations", "2"]) == 0
    run_dir = out / "runs" / "cmaes"
    assert read_config_lines(run_dir / "run.config")["optimizer"] == "cmaes"
    # the checkpoint keeps the config its evaluation decodes
    payload = json.loads((run_dir / "checkpoint.best").read_text())
    assert (payload["optimizer"], payload["config"]["optimizer"]) == ("cmaes", "adamw")
    # eval names the rule each run used, as the run's own run.config does
    for each_run in sorted((out / "runs").iterdir()):
        evaluated = tmp_path / "eval" / each_run.name
        assert main(["eval", str(each_run / "checkpoint.best"), "--data", str(workspace["prices"]),
                     "--out", str(evaluated)]) == 0
        assert (evaluated / "run.config").read_bytes() == (each_run / "run.config").read_bytes()
    capsys.readouterr()
    assert main(["train", "--data", str(workspace["prices"]), "--out", str(tmp_path / "r"),
                 "--config", str(run_dir / "run.config")]) == 1
    assert "not cmaes" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# ----------------------------------------------------------------------
# exit codes

def test_usage_errors_exit_1(workspace, tmp_path, capsys):
    assert main([]) == 1
    assert main(["train", "--data", str(workspace["prices"])]) == 1   # no --out
    assert main(["synth", "--out", str(tmp_path / "x"), "--assets", "1"]) == 1
    bad = tmp_path / "bad.config"
    bad.write_text("not_a_key=5\n")
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(bad), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "error: usage:" in err
    assert "not_a_key" in err
    worse = tmp_path / "worse.config"
    worse.write_text("iterations=soon\n")
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(worse), "--out", str(tmp_path / "r2")]) == 1
    assert main(["train", "--data", str(workspace["prices"]),
                 "--out", str(tmp_path / "r3"), "--optimizer", "lbfgs"]) == 1


def test_data_errors_exit_2(workspace, tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "r")]) == 2
    assert "error: data:" in capsys.readouterr().err
    # default window (252) cannot fit the small panel
    assert main(["train", "--data", str(workspace["prices"]),
                 "--out", str(tmp_path / "r2")]) == 2
    assert main(["eval", str(tmp_path / "no_checkpoint"),
                 "--data", str(workspace["prices"]), "--out", str(tmp_path / "r3")]) == 2
    assert main(["plot", "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "r4")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_checkpoint_lacking_a_config_key_exits_2(workspace, tmp_path, capsys, command):
    payload = json.loads((workspace["run"] / "checkpoint.final").read_text())
    del payload["config"]["window"]
    broken = tmp_path / "checkpoint.final"
    broken.write_text(json.dumps(payload))
    if command == "eval":
        argv = ["eval", str(broken), "--data", str(workspace["prices"])]
    else:
        argv = ["train", "--data", str(workspace["prices"]), "--config", str(workspace["config"]),
                "--iterations", "6", "--resume", str(broken)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: data:" in err
    assert "window" in err


def _drop_last_value(payload):
    blob = payload["eval_noise"]
    blob["f64le"] = base64.b64encode(base64.b64decode(blob["f64le"])[:-8]).decode("ascii")


def _shorten_dense_b(payload):
    """`dense_b` one value short, shape included (a v1 list or a v2 blob)."""
    blob = payload["params"]["dense_b"]
    if isinstance(blob, list):
        payload["params"]["dense_b"] = blob[:-1]
        return
    raw = base64.b64decode(blob["f64le"])[:-8]
    payload["params"]["dense_b"] = {"shape": [len(raw) // 8],
                                    "f64le": base64.b64encode(raw).decode("ascii")}


_CHECKPOINT_FAULTS = {
    "bad_value": (lambda payload: payload["config"].update(window="abc"), "window"),
    "missing_section": (lambda payload: payload.pop("params"), "params"),
    "short_array": (_drop_last_value, "bytes"),
    "truncated": (None, "unreadable checkpoint"),
    "bad_bool": (lambda payload: payload["config"].update(corruption="maybe"), "corruption"),
    "unset_rate": (lambda payload: payload["config"].update(learning_rate=None), "learning_rate"),
    "text_iteration": (lambda payload: payload.update(iteration="x"), "malformed checkpoint"),
    "bool_iteration": (lambda payload: payload.update(iteration=True), "malformed checkpoint"),
    "null_step": (lambda payload: payload["optimizer"].update(step=None), "malformed checkpoint"),
    # each count is a JSON integer and the best MSE a JSON number: none is coerced
    "float_step": (lambda payload: payload["optimizer"].update(step=3.7), "optimizer.step 3.7"),
    "bool_step": (lambda payload: payload["optimizer"].update(step=True), "optimizer.step True"),
    "float_best_iteration": (
        lambda payload: payload["best"].update(iteration=float(payload["best"]["iteration"])),
        "best.iteration",
    ),
    "text_validation_mse": (
        lambda payload: payload["best"].update(validation_mse="1e-3"), "best.validation_mse '1e-3'",
    ),
    "bool_validation_mse": (
        lambda payload: payload["best"].update(validation_mse=True), "best.validation_mse True",
    ),
    "bad_rng": (lambda payload: payload["rng"].update(noise={"state": 5}), "rng.noise"),
    # a stream state numpy cannot hold: a PCG64 state or inc of 2**128 or more, a uinteger of 2**32
    "huge_rng_state": (
        lambda payload: payload["rng"]["noise"]["state"].update(state=2**200),
        "rng.noise is not a state numpy can hold",
    ),
    "huge_rng_inc": (
        lambda payload: payload["rng"]["noise"]["state"].update(inc=2**128 + 5),
        "rng.noise is not a state numpy can hold",
    ),
    "huge_rng_uinteger": (
        lambda payload: payload["rng"]["windows"].update(uinteger=2**32),
        "rng.windows is not a state numpy can hold",
    ),
    # well-formed arrays that do not fit the configuration stored beside them
    "short_param": (_shorten_dense_b, "params.dense_b"),
    "state_shape": (
        lambda payload: payload["state"].update(h=trainer.pack_array(np.zeros((3, 3)))),
        "state.h",
    ),
    "noise_shape": (
        lambda payload: payload.update(eval_noise=trainer.pack_array(np.zeros((4, 5)))),
        "eval_noise",
    ),
    "nan_param": (
        lambda payload: payload["params"].update(dense_b=trainer.pack_array(np.full(5, np.nan))),
        "params.dense_b holds non-finite values",
    ),
    # a configuration number keeps its JSON type
    "fraction_window": (lambda payload: payload["config"].update(window=10.9), "window"),
    "bool_lambda": (lambda payload: payload["config"].update({"lambda": True}), "lambda"),
    "nan_lambda": (
        lambda payload: payload["config"].update({"lambda": float("nan")}),
        "bad value for configuration key lambda: nan",
    ),
    "infinite_eps": (
        lambda payload: payload["config"].update(eps=float("inf")),
        "bad value for configuration key eps: inf",
    ),
    # a shape entry keeps its JSON type
    "text_shape": (lambda payload: payload["params"]["dense_b"].update(shape="5"), "params.dense_b"),
    "fraction_shape": (
        lambda payload: payload["params"]["dense_b"].update(shape=[5.9]), "params.dense_b",
    ),
}


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("fault", sorted(_CHECKPOINT_FAULTS))
def test_malformed_checkpoint_exits_2(workspace, tmp_path, capsys, command, fault):
    text = (workspace["run"] / "checkpoint.final").read_text()
    damage, named = _CHECKPOINT_FAULTS[fault]
    if damage is None:
        text = text[: len(text) // 2]
    else:
        payload = json.loads(text)
        damage(payload)
        text = json.dumps(payload)
    broken = tmp_path / "checkpoint.final"
    broken.write_text(text)
    if command == "eval":
        argv = ["eval", str(broken), "--data", str(workspace["prices"])]
    else:
        argv = ["train", "--data", str(workspace["prices"]), "--config", str(workspace["config"]),
                "--iterations", "6", "--resume", str(broken)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert named in err


@pytest.mark.parametrize("kind", ["generator", "baseline"])
def test_v1_checkpoint_evaluates_as_before(tmp_path, capsys, kind):
    out = tmp_path / "eval"
    assert main(["eval", str(V1_FIXTURE / f"{kind}.checkpoint"),
                 "--data", str(V1_FIXTURE / "prices.csv"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "report.txt").read_text() == (V1_FIXTURE / f"{kind}.report.txt").read_text()


def test_v1_checkpoint_resumes_only_through_its_v3_encoding(tmp_path, capsys):
    base = ["train", "--data", str(V1_FIXTURE / "prices.csv"),
            "--config", str(V1_FIXTURE / "small.config"), "--seed", "4", "--iterations", "4"]
    refused = tmp_path / "v1"
    assert main(base + ["--resume", str(V1_FIXTURE / "generator.checkpoint"),
                        "--out", str(refused)]) == 2
    assert capsys.readouterr().err == ("error: data: checkpoint format_version 1 cannot be "
                                       "resumed: format_version 3 trains with other arithmetic\n")
    assert not list(refused.glob("checkpoint.*"))
    v1 = trainer.load_checkpoint(V1_FIXTURE / "generator.checkpoint")
    assert v1["format_version"] == 1
    config = trainer.config_from_flat(v1["config"])
    template = trainer._Snapshot.template(config)
    trees = [trainer._packed(trainer._Snapshot.decode(doc, template).tree(config))
             for doc in (v1, v1["best_state"])]
    v3 = {**trees[0], "best_state": trees[1]}
    assert v3["format_version"] == 3
    # the re-encoding holds every value of the v1 file
    for doc, tree in zip((v3, v3["best_state"]), trees):
        assert trainer._packed(trainer._Snapshot.decode(doc, template).tree(config)) == tree
    trainer.save_checkpoint(v3, tmp_path / "v3.checkpoint")
    out = tmp_path / "v3"
    assert main(base + ["--resume", str(tmp_path / "v3.checkpoint"), "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("loss.csv", "eval.csv"):
        assert (out / name).read_text() == (V1_FIXTURE / f"resumed_v3.{name}").read_text(), (
            f"{name} differs from the continuation format_version 3 computed: a change to the "
            "training arithmetic bumps trainer.CHECKPOINT_VERSION and pins its own continuation")


@pytest.mark.parametrize("command", ["eval", "resume"])
def test_v1_parameter_that_does_not_fit_its_config_exits_2(tmp_path, capsys, command):
    payload = json.loads((V1_FIXTURE / "generator.checkpoint").read_text())
    _shorten_dense_b(payload)
    broken = tmp_path / "checkpoint.final"
    broken.write_text(json.dumps(payload))
    if command == "eval":
        argv = ["eval", str(broken), "--data", str(V1_FIXTURE / "prices.csv")]
    else:
        argv = ["train", "--data", str(V1_FIXTURE / "prices.csv"),
                "--config", str(V1_FIXTURE / "small.config"), "--seed", "4",
                "--iterations", "4", "--resume", str(broken)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data:")
    assert "params.dense_b" in err


@pytest.mark.parametrize("word", ["false", "off", "No", "0"])
def test_checkpoint_boolean_words_read_as_in_config_files(workspace, tmp_path, capsys, word):
    payload = json.loads((workspace["run"] / "checkpoint.final").read_text())
    payload["config"]["corruption"] = word
    checkpoint = tmp_path / "checkpoint.final"
    checkpoint.write_text(json.dumps(payload))
    out = tmp_path / "eval"
    assert main(["eval", str(checkpoint), "--data", str(workspace["prices"]),
                 "--out", str(out)]) == 0
    assert read_config_lines(out / "run.config")["corruption"] == "false"
    # the run it continues had corruption off; the default is on
    assert main(["train", "--data", str(workspace["prices"]), "--config", str(workspace["config"]),
                 "--iterations", "6", "--resume", str(checkpoint),
                 "--out", str(tmp_path / "resumed")]) == 2
    assert "differs on: corruption" in capsys.readouterr().err


def test_resume_from_best_keeps_that_best(workspace, tmp_path, capsys):
    # at this rate the best validation MSE is at iteration 1 and is never beaten
    config = tmp_path / "fast.config"
    config.write_text(SMALL_ARCH + "learning_rate=0.3\n")
    base = ["train", "--data", str(workspace["prices"]), "--config", str(config)]
    part, resumed, full = tmp_path / "part", tmp_path / "resumed", tmp_path / "full"
    assert main(base + ["--iterations", "10", "--out", str(part)]) == 0
    assert main(base + ["--iterations", "20", "--out", str(full)]) == 0
    assert main(base + ["--iterations", "20", "--out", str(resumed),
                        "--resume", str(part / "checkpoint.best")]) == 0
    best = json.loads((resumed / "checkpoint.best").read_text())
    assert best["iteration"] == best["best"]["iteration"] == 1
    # resuming from any checkpoint continues the one trajectory
    for name in ("checkpoint.best", "checkpoint.final"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes(), name
    out = tmp_path / "eval"
    assert main(["eval", str(resumed / "checkpoint.best"), "--data", str(workspace["prices"]),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = read_config_lines(out / "report.txt")
    assert float(report["ensemble_mse"]) == best["best"]["validation_mse"]


def test_resume_keeps_no_checkpoint_document_into_its_first_iteration(workspace, tmp_path, capsys,
                                                                      monkeypatch):
    documents, alive = [], []

    class Document(dict):  # a dict subclass takes a weak reference
        pass

    def load_checkpoint(path):
        document = Document(real_load_checkpoint(path))
        documents.append(weakref.ref(document))
        return document

    def total_loss(*args, **kwargs):
        alive.append([ref() is not None for ref in documents])
        return real_total_loss(*args, **kwargs)

    real_load_checkpoint, real_total_loss = trainer.load_checkpoint, objective.total_loss
    monkeypatch.setattr(trainer, "load_checkpoint", load_checkpoint)
    monkeypatch.setattr(objective, "total_loss", total_loss)
    assert main(_train(workspace, tmp_path, "--iterations", "6",
                       "--resume", str(workspace["run"] / "checkpoint.final"))) == 0
    capsys.readouterr()
    assert alive == [[False], [False]]


@pytest.mark.parametrize("kind", ["generator", "baseline"])
def test_eval_drops_its_checkpoint_document_before_it_reads_prices(workspace, tmp_path, capsys,
                                                                   monkeypatch, kind):
    documents, alive = [], []

    class Document(dict):  # a dict subclass takes a weak reference
        pass

    def load_checkpoint(path):
        document = Document(real_load_checkpoint(path))
        documents.append(weakref.ref(document))
        return document

    def load_prices(*args, **kwargs):
        alive.append([ref() is not None for ref in documents])
        return real_load_prices(*args, **kwargs)

    real_load_checkpoint, real_load_prices = trainer.load_checkpoint, cli.load_prices
    monkeypatch.setattr(trainer, "load_checkpoint", load_checkpoint)
    monkeypatch.setattr(cli, "load_prices", load_prices)
    checkpoint, prices = ((workspace["run"] / "checkpoint.final", workspace["prices"])
                          if kind == "generator" else
                          (V1_FIXTURE / "baseline.checkpoint", V1_FIXTURE / "prices.csv"))
    out = tmp_path / "eval"
    assert main(["eval", str(checkpoint), "--data", str(prices), "--out", str(out)]) == 0
    capsys.readouterr()
    assert alive == [[False]]
    report = read_config_lines(out / "report.txt")
    assert report["checkpoint_kind"].startswith(kind)
    assert report["iteration"] == str(json.loads(checkpoint.read_text())["iteration"])


def test_resume_from_checkpoint_without_its_best_exits_2(workspace, tmp_path, capsys):
    config = tmp_path / "fast.config"
    config.write_text(SMALL_ARCH + "learning_rate=0.3\n")
    base = ["train", "--data", str(workspace["prices"]), "--config", str(config)]
    assert main(base + ["--iterations", "3", "--out", str(tmp_path / "part")]) == 0
    payload = json.loads((tmp_path / "part" / "checkpoint.final").read_text())
    assert payload["best"]["iteration"] == 1 and payload["iteration"] == 3
    del payload["best_state"]
    broken = tmp_path / "checkpoint.final"
    broken.write_text(json.dumps(payload))
    assert main(base + ["--iterations", "6", "--resume", str(broken),
                        "--out", str(tmp_path / "out")]) == 2
    assert "best_state" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("iteration", 1.0), ("optimizer.step", True), ("best.iteration", 1.0),
    ("best.validation_mse", "1e-3"),
])
def test_resume_refuses_a_nested_best_value_of_the_wrong_type(workspace, tmp_path, capsys,
                                                              key, value):
    config = tmp_path / "fast.config"
    config.write_text(SMALL_ARCH + "learning_rate=0.3\n")
    base = ["train", "--data", str(workspace["prices"]), "--config", str(config)]
    assert main(base + ["--iterations", "3", "--out", str(tmp_path / "part")]) == 0
    payload = json.loads((tmp_path / "part" / "checkpoint.final").read_text())
    *path, leaf = key.split(".")
    block = payload["best_state"]
    for name in path:
        block = block[name]
    block[leaf] = value
    broken = tmp_path / "checkpoint.final"
    broken.write_text(json.dumps(payload))
    assert main(base + ["--iterations", "6", "--resume", str(broken),
                        "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and f"best_state.{key} {value!r}" in err


def _reversed_assets(prices: Path, tmp: Path) -> Path:
    """The price CSV at `prices` with its asset columns in reverse order."""
    header, *rows = list(csv.reader(io.StringIO(prices.read_text())))
    assert header[:2] == ["date", "INDEX"]
    path = tmp / "reversed.csv"
    path.write_text("".join(",".join(row[:2] + row[:1:-1]) + "\n" for row in [header, *rows]))
    return path


@pytest.mark.parametrize("case", ["tiny_best", "reversed_assets"])
def test_resume_refuses_a_best_that_does_not_recompute(workspace, tmp_path, capsys, case):
    payload = json.loads((workspace["run"] / "checkpoint.final").read_text())
    prices = workspace["prices"]
    if case == "tiny_best":  # well-formed, and never beaten by the resumed run
        payload["best"]["validation_mse"] = 1e-300
    else:  # each weight would land on another asset
        prices = _reversed_assets(prices, tmp_path)
    checkpoint = tmp_path / "checkpoint.final"
    checkpoint.write_text(json.dumps(payload))
    assert main(["train", "--data", str(prices), "--config", str(workspace["config"]),
                 "--iterations", "6", "--resume", str(checkpoint),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data: checkpoint does not match this data"), err
    assert not (tmp_path / "out" / "checkpoint.best").exists()


def test_checkpoints_holding_dropped_keys_read_as_before(workspace, tmp_path, capsys):
    """Older checkpoints also stored `state.iteration`, and a baseline's best its logits."""
    config = tmp_path / "fast.config"
    config.write_text(SMALL_ARCH + "learning_rate=0.3\n")
    base = ["train", "--data", str(workspace["prices"]), "--config", str(config)]
    assert main(base + ["--iterations", "3", "--out", str(tmp_path / "part")]) == 0
    generator = tmp_path / "part" / "checkpoint.final"
    payload = json.loads(generator.read_text())
    assert "best_state" in payload and "iteration" not in payload["state"]
    for snapshot in (payload, payload["best_state"]):
        snapshot["state"]["iteration"] = snapshot["iteration"]
    old_generator = tmp_path / "old_generator.checkpoint"
    old_generator.write_text(json.dumps(payload))
    baseline = Path(_rprop_checkpoint(workspace, tmp_path)).with_name("checkpoint.best")
    payload = json.loads(baseline.read_text())
    assert "logits" not in payload["best"]
    payload["best"]["logits"] = payload["logits"]
    old_baseline = tmp_path / "old_baseline.checkpoint"
    old_baseline.write_text(json.dumps(payload))
    runs = {"resumed": (base + ["--iterations", "6", "--resume"], generator, old_generator),
            "eval": (["eval", "--data", str(workspace["prices"])], baseline, old_baseline)}
    for command, (argv, *checkpoints) in runs.items():
        new, old = tmp_path / f"{command}_new", tmp_path / f"{command}_old"
        for checkpoint, out in zip(checkpoints, (new, old)):
            assert main(argv + [str(checkpoint), "--out", str(out)]) == 0
        names = {p.name for p in new.iterdir()}
        assert names == {p.name for p in old.iterdir()}
        for name in sorted(names - {"timing.csv"}):
            assert (new / name).read_bytes() == (old / name).read_bytes(), (command, name)
    capsys.readouterr()


# The leaf fuzzer: every leaf of the tree a checkpoint's writer builds is read, and an
# unknown key anywhere is ignored.  A leaf's path is drawn from that tree (the
# configuration left out: `config_from_flat` reads it, and its own tests cover it).

@pytest.fixture(scope="module")
def fuzz_sources(workspace, tmp_path_factory):
    """A generator checkpoint that nests its best, a baseline checkpoint, and what both give."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "fast.config"
    config.write_text(SMALL_ARCH + "learning_rate=0.3\n")
    assert main(["train", "--data", str(workspace["prices"]), "--config", str(config),
                 "--iterations", "3", "--out", str(root / "part")]) == 0
    generator = json.loads((root / "part" / "checkpoint.final").read_text())
    assert "best_state" in generator
    run_config = trainer.config_from_flat(generator["config"])
    split = time_split(compute_log_returns(load_prices(workspace["prices"], "INDEX")), 0.8)
    baseline = trainer.train_baseline(OptimizerKind.RPROP, replace(run_config, iterations=2),
                                      split).final_checkpoint
    sources = {
        "config": config, "run_config": replace(run_config, iterations=6), "split": split,
        "docs": {"generator": generator, "baseline": baseline},
        "trees": {
            "generator": trainer._Snapshot.start(run_config).tree(run_config),
            "baseline": trainer._tree("baseline", run_config, 0, (0, 0.0), optimizer="rprop",
                                      logits=np.zeros(run_config.generator.n_assets)),
        },
    }
    sources["unmutated"] = {kind: _fuzz_run(workspace, sources, kind, doc)
                            for kind, doc in sources["docs"].items()}
    return sources


def _fuzz_commands(workspace, sources, kind, path):
    """argv of `eval` (and of `--resume` for a generator) of the checkpoint at `path`."""
    commands = {"eval": ["eval", str(path), "--data", str(workspace["prices"])]}
    if kind == "generator":
        commands["resume"] = ["train", "--data", str(workspace["prices"]), "--config",
                              str(sources["config"]), "--iterations", "6", "--resume", str(path)]
    return commands


def _fuzz_run(workspace, sources, kind, doc):
    """Each command's (exit code, stderr, written bytes but timing.csv) and each library
    call's result or `DataError`, for the checkpoint document `doc`."""
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint"
        path.write_text(json.dumps(doc))
        for name, argv in _fuzz_commands(workspace, sources, kind, path).items():
            out, err = Path(tmp) / name, io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(argv + ["--out", str(out)])
            written = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.name != "timing.csv"}
            outcomes[name] = (code, err.getvalue(), written)
    calls = {"population": lambda: trainer.checkpoint_population(copy.deepcopy(doc), None)[1].weights}
    if kind == "generator":
        calls["train_generator"] = lambda: _canon_checkpoints(trainer.train_generator(
            sources["run_config"], sources["split"], resume=copy.deepcopy(doc)))
    for name, call in calls.items():
        try:
            outcomes[name] = call()
        except DataError as e:
            outcomes[name] = e
    return outcomes


def _canon_checkpoints(run):
    return json.dumps([run.final_checkpoint, run.best_checkpoint], sort_keys=True)


def _tree_leaves(tree, prefix=()):
    """(path, leaf) of each leaf of a writer's tree, below its configuration."""
    for key, value in tree.items():
        if isinstance(value, dict):
            if prefix or key != "config":
                yield from _tree_leaves(value, (*prefix, key))
        else:
            yield (*prefix, key), value


def _mutations(leaf):
    """The damaging edits of a leaf, each a function of its stored value ("delete" removes it)."""
    edits = {"delete": lambda stored: None}
    wrong = {int: ["7", 1.5, True, None, []], float: ["1e-3", True, None, []],
             str: [5, True, None, []], np.ndarray: ["x", 5, True, None, {}]}[type(leaf)]
    for value in wrong:
        edits[f"type {value!r}"] = lambda stored, value=value: value
    if isinstance(leaf, (int, float)):
        for value in (float("nan"), float("inf"), -float("inf"), -1, -1.0):
            edits[f"number {value!r}"] = lambda stored, value=value: value
    elif isinstance(leaf, str):
        edits["text"] = lambda stored: stored + "x"
    else:
        edits["shape"] = lambda stored: trainer.pack_array(np.zeros(leaf.size + 1))
        for value in (np.nan, np.inf, -np.inf):
            def non_finite(stored, value=value):
                arr = trainer.unpack_array(stored).copy()
                arr.flat[arr.size // 2] = value
                return trainer.pack_array(arr)
            edits[f"non-finite {value!r}"] = non_finite
    return edits


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_damaged_checkpoint_leaf_is_refused_by_its_path(workspace, fuzz_sources, data):
    kind, nested = data.draw(st.sampled_from([("generator", False), ("generator", True),
                                              ("baseline", False)]))
    leaves = dict(_tree_leaves(fuzz_sources["trees"][kind]))
    *parents, leaf_key = path = data.draw(st.sampled_from(list(leaves)))
    edits = _mutations(leaves[path])
    label = data.draw(st.sampled_from(sorted(edits)))
    doc = copy.deepcopy(fuzz_sources["docs"][kind])
    block = doc["best_state"] if nested else doc
    for key in parents:
        block = block[key]
    value = edits[label](block[leaf_key])
    if label == "delete":
        del block[leaf_key]
    else:
        block[leaf_key] = value
    name = ".".join(("best_state", *path) if nested else path)
    outcomes = _fuzz_run(workspace, fuzz_sources, kind, doc)
    if nested:  # eval scores the checkpoint's own state, not its nested best
        assert outcomes.pop("eval") == fuzz_sources["unmutated"][kind]["eval"]
        assert np.array_equal(outcomes.pop("population"),
                              fuzz_sources["unmutated"][kind]["population"])
    for command, outcome in outcomes.items():
        if isinstance(outcome, tuple):
            code, err, _ = outcome
            assert code == 2 and err.startswith("error: data:") and name in err, (command, err)
        else:
            assert isinstance(outcome, DataError) and name in str(outcome), (command, outcome)


def _dict_paths(doc, prefix=()):
    """The path of each JSON object in `doc`, `doc` itself included."""
    yield prefix
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _dict_paths(value, (*prefix, key))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_an_unknown_checkpoint_key_changes_no_byte(workspace, fuzz_sources, data):
    kind = data.draw(st.sampled_from(["generator", "baseline"]))
    doc = copy.deepcopy(fuzz_sources["docs"][kind])
    block = doc
    for key in data.draw(st.sampled_from(list(_dict_paths(doc)))):
        block = block[key]
    block["unknown_key"] = data.draw(st.sampled_from([1, -1.5, "x", None, [], {"shape": [9]}]))
    outcomes = _fuzz_run(workspace, fuzz_sources, kind, doc)
    unmutated = fuzz_sources["unmutated"][kind]
    assert outcomes.pop("population").tobytes() == unmutated["population"].tobytes()
    assert outcomes == {name: value for name, value in unmutated.items() if name != "population"}
    assert all(outcome[0] == 0 for outcome in outcomes.values() if isinstance(outcome, tuple))


def test_resume_names_a_nested_stream_numpy_cannot_hold(workspace, fuzz_sources, tmp_path, capsys):
    doc = copy.deepcopy(fuzz_sources["docs"]["generator"])
    doc["best_state"]["rng"]["noise"]["state"]["state"] = 2**128 + 5
    path = tmp_path / "checkpoint"
    path.write_text(json.dumps(doc))
    argv = _fuzz_commands(workspace, fuzz_sources, "generator", path)["resume"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: data: malformed checkpoint: best_state.rng.noise is not a state numpy can hold\n"
    )


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
                    reason="OpenBLAS runs one thread on one usable CPU")
def test_train_writes_the_same_bytes_on_any_blas_thread_count(tmp_path, capsys):
    # 100 assets at the default window and population: OpenBLAS splits these products
    # across threads, and before `train` ran on one thread the bytes differed
    assert main(["synth", "--out", str(tmp_path / "data"), "--assets", "100", "--days", "400",
                 "--seed", "77"]) == 0
    capsys.readouterr()
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(trainer.__file__).parents[1])}
        subprocess.run([sys.executable, "-m", "qdportfolio.cli", "train",
                        "--data", str(tmp_path / "data" / "prices.csv"), "--iterations", "2",
                        "--seed", "77", "--out", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        written[threads] = [(out / name).read_bytes() for name in ("checkpoint.final", "checkpoint.best")]
    assert written["1"] == written["2"]


def test_every_written_file_is_moved_into_place(workspace, tmp_path, capsys, monkeypatch):
    moved = []
    real_replace = os.replace

    def record(src, dst):
        moved.append(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", record)
    prices = str(workspace["prices"])
    config = str(workspace["config"])
    for argv in (
        ["synth", "--assets", "5", "--days", "60", "--sparse", "2", "--out", str(tmp_path / "synth")],
        ["ingest", "--data", prices, "--out", str(tmp_path / "ingest")],
        ["train", "--data", prices, "--config", config, "--out", str(tmp_path / "train")],
        ["eval", str(tmp_path / "train" / "checkpoint.best"), "--data", prices,
         "--out", str(tmp_path / "eval")],
        ["plot", "--data", str(tmp_path / "eval" / "series.csv"), "--out", str(tmp_path / "plot")],
        ["compare", "--data", prices, "--config", config, "--iterations", "2",
         "--out", str(tmp_path / "compare")],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    on_disk = {p for p in tmp_path.rglob("*") if p.is_file()}
    assert set(moved) == on_disk
    assert not [p for p in on_disk if p.suffix == ".tmp"]


# A finite rate whose first update overflows: RMSprop's first step is ten times the rate.
OVERFLOWING_RATE = "optimizer=rmsprop\nlearning_rate=1e308\n"


def test_numerical_errors_exit_3_after_config_written(workspace, tmp_path, capsys):
    config = tmp_path / "blowup.config"
    config.write_text(SMALL_ARCH + OVERFLOWING_RATE)
    out = tmp_path / "run"
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(config), "--out", str(out)]) == 3
    assert "error: numerical:" in capsys.readouterr().err
    # the configuration is on disk even though training failed
    assert (out / "run.config").exists()
    assert not (out / "loss.csv").exists()


def _train(ws, tmp, *extra):
    return ["train", "--data", str(ws["prices"]), "--config", str(ws["config"]),
            "--out", str(tmp / "out"), *extra]


def _config_file(tmp, text):
    path = tmp / "extra.config"
    path.write_text(SMALL_ARCH + text)
    return str(path)


def _bad_price_cell(tmp):
    path = tmp / "bad.csv"
    path.write_text("date,INDEX,A\n2020-01-01,1.0,1.0\n2020-01-02,1.0,abc\n2020-01-03,1.0,1.0\n")
    return str(path)


def _not_utf8(tmp, text):
    """`text` with byte 0xff, which UTF-8 never uses, in place of its first '?'."""
    path = tmp / "latin.txt"
    path.write_bytes(text.encode("utf-8").replace(b"?", b"\xff", 1))
    return str(path)


def _not_utf8_last_row(tmp):
    """A price CSV of 60,000 rows, far more than one read of the file, whose last cell holds 0xff."""
    first = date(1900, 1, 1).toordinal()
    rows = "".join(f"{date.fromordinal(first + i)},1.0,1.0\n" for i in range(60_000))
    path = tmp / "latin.txt"
    path.write_bytes(b"date,INDEX,A\n" + rows.encode()[:-2] + b"\xff\n")
    return str(path)


def _text_file(tmp, name, text):
    path = tmp / name
    path.write_text(text)
    return str(path)


def _four_price_rows(tmp, fraction, *argv):
    """`argv` on four price rows (three returns) split at `fraction`: 0.4 trains on one row,
    0.7 validates on one."""
    prices = _text_file(tmp, "four.csv", "date,INDEX,A,B,C\n"
                        "2020-01-01,100,10,20,30\n2020-01-02,101,10.5,19.5,30.2\n"
                        "2020-01-03,100.5,10.2,19.8,30.6\n2020-01-06,102,10.8,20.1,30.1\n")
    return [*argv, "--data", prices, "--out", str(tmp / "out"), "--train-fraction", fraction]


_TINY_RUN = ("--iterations", "3", "--population", "4", "--window", "2")


def _one_asset(tmp):
    """40 price rows of the index and one asset."""
    return _text_file(tmp, "one.csv", "date,INDEX,A\n" + "".join(
        f"2020-{1 + day // 28:02d}-{1 + day % 28:02d},{100 + day},{50 + day % 3}\n" for day in range(40)))


def _directory(tmp, name):
    """A directory where a file of that name belongs."""
    path = tmp / "given" / name
    path.mkdir(parents=True)
    return str(path)


def _rprop_checkpoint(ws, tmp):
    assert main(["compare", "--data", str(ws["prices"]), "--config", str(ws["config"]),
                 "--iterations", "2", "--out", str(tmp / "cmp")]) == 0
    return str(tmp / "cmp" / "runs" / "rprop" / "checkpoint.final")


def _other_assets(tmp):
    assert main(["synth", "--out", str(tmp / "six"), "--assets", "6", "--days", "60",
                 "--sparse", "2", "--seed", "3"]) == 0
    return str(tmp / "six" / "prices.csv")


def _overflowing_checkpoint(ws, tmp, **values):
    """Finite stored parameters, each filled with its given value, that overflow in eval."""
    payload = json.loads((ws["run"] / "checkpoint.best").read_text())
    for name, value in values.items():
        shape = payload["params"][name]["shape"]
        payload["params"][name] = trainer.pack_array(np.full(shape, value))
    path = tmp / "checkpoint.best"
    path.write_text(json.dumps(payload))
    return str(path)


def _series_csv(tmp, text):
    path = tmp / "series.csv"
    path.write_text(text)
    return str(path)


def _edited_checkpoint(source, tmp, **values):
    """A copy of the checkpoint at `source` with the given top-level values."""
    payload = json.loads(Path(source).read_text())
    payload.update(values)
    path = tmp / "edited.checkpoint"
    path.write_text(json.dumps(payload))
    return str(path)


def _baseline_without_optimizer(tmp):
    payload = json.loads((V1_FIXTURE / "baseline.checkpoint").read_text())
    del payload["optimizer"]
    path = tmp / "baseline.checkpoint"
    path.write_text(json.dumps(payload))
    return str(path)


def _nan_baseline_logits(tmp):
    payload = json.loads((V1_FIXTURE / "baseline.checkpoint").read_text())
    payload["logits"] = [float("nan")] * len(payload["logits"])
    path = tmp / "baseline.checkpoint"
    path.write_text(json.dumps(payload))
    return str(path)


# Each documented failure: its argv, its exit code, its category and a phrase of its reason.
_DOCUMENTED_FAILURES = {
    "no_command": (lambda ws, tmp: [], 1, "usage", "a command is required"),
    "missing_data": (lambda ws, tmp: ["train", "--out", str(tmp / "out")], 1, "usage", "--data"),
    "unknown_key": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "not_a_key=5\n")),
        1, "usage", "unknown configuration key: not_a_key",
    ),
    "bad_bool": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "corruption=maybe\n")),
        1, "usage", "corruption",
    ),
    "window_1": (lambda ws, tmp: _train(ws, tmp, "--window", "1"), 1, "usage", "window"),
    "cmaes_generator": (
        lambda ws, tmp: _train(ws, tmp, "--optimizer", "cmaes"), 1, "usage", "not cmaes",
    ),
    "train_seed": (lambda ws, tmp: _train(ws, tmp, "--seed", "-1"), 1, "usage", "seed"),
    "synth_seed": (
        lambda ws, tmp: ["synth", "--out", str(tmp / "out"), "--seed", "-1"], 1, "usage", "seed",
    ),
    "eval_seed": (
        lambda ws, tmp: ["eval", str(ws["run"] / "checkpoint.best"), "--data", str(ws["prices"]),
                         "--out", str(tmp / "out"), "--eval-seed", "-1"],
        1, "usage", "eval_seed",
    ),
    "config_seed": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "seed=-1\n")),
        1, "usage", "seed",
    ),
    "synth_sparse_0": (
        lambda ws, tmp: ["synth", "--out", str(tmp / "out"), "--sparse", "0"],
        1, "usage", "k_sparse must lie in [1, 20], got 0",
    ),
    "synth_sparse_over_assets": (
        lambda ws, tmp: ["synth", "--out", str(tmp / "out"), "--assets", "20", "--sparse", "30"],
        1, "usage", "k_sparse must lie in [1, 20], got 30",
    ),
    "synth_days_1": (
        lambda ws, tmp: ["synth", "--out", str(tmp / "out"), "--days", "1"],
        1, "usage", "n_days must be at least 2, got 1",
    ),
    "synth_negative_noise": (
        lambda ws, tmp: ["synth", "--out", str(tmp / "out"), "--noise-scale", "-1"],
        1, "usage", "noise scale must be finite and non-negative, got -1.0",
    ),
    "synth_nan_noise": (
        lambda ws, tmp: ["synth", "--out", str(tmp / "out"), "--noise-scale", "nan"],
        1, "usage", "noise scale must be finite and non-negative, got nan",
    ),
    # a float key is finite: NaN passes every range check, and no run means an infinite one
    "nan_lambda_flag": (
        lambda ws, tmp: _train(ws, tmp, "--lambda", "nan"),
        1, "usage", "bad value for configuration key lambda: nan",
    ),
    "config_infinite_eps": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "eps=inf\n")),
        1, "usage", "bad value for configuration key eps: 'inf'",
    ),
    "config_zero_eps": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "eps=0\n")),
        1, "usage", "eps must be positive",
    ),
    "config_infinite_rate": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "learning_rate=inf\n")),
        1, "usage", "bad value for configuration key learning_rate: 'inf'",
    ),
    "compare_infinite_sigma0": (
        lambda ws, tmp: ["compare", "--data", str(ws["prices"]), "--out", str(tmp / "out"),
                         "--config", _config_file(tmp, "cmaes_sigma0=inf\n")],
        1, "usage", "bad value for configuration key cmaes_sigma0: 'inf'",
    ),
    "train_fraction_flag": (
        lambda ws, tmp: _train(ws, tmp, "--train-fraction", "2"), 1, "usage", "train_fraction",
    ),
    "eval_train_fraction": (
        lambda ws, tmp: ["eval", str(ws["run"] / "checkpoint.best"), "--data", str(ws["prices"]),
                         "--out", str(tmp / "out"), "--train-fraction", "2"],
        1, "usage", "train_fraction",
    ),
    "config_train_fraction": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, "train_fraction=1.5\n")),
        1, "usage", "train_fraction",
    ),
    "ingest_seed": (
        lambda ws, tmp: ["ingest", "--data", str(ws["prices"]), "--out", str(tmp / "out"),
                         "--seed", "1"],
        1, "usage", "unrecognized arguments: --seed 1",
    ),
    "eval_seed_flag": (
        lambda ws, tmp: ["eval", str(ws["run"] / "checkpoint.best"), "--data", str(ws["prices"]),
                         "--out", str(tmp / "out"), "--seed", "1"],
        1, "usage", "unrecognized arguments: --seed 1",
    ),
    "config_is_a_directory": (
        lambda ws, tmp: _train(ws, tmp, "--config", _directory(tmp, "run.config")),
        1, "usage", os.path.join("given", "run.config"),
    ),
    "missing_csv": (
        lambda ws, tmp: ["train", "--data", str(tmp / "absent.csv"), "--out", str(tmp / "out")],
        2, "data", "no such file",
    ),
    "price_csv_is_a_directory": (
        lambda ws, tmp: ["ingest", "--data", _directory(tmp, "prices.csv"), "--out", str(tmp / "out")],
        2, "data", os.path.join("given", "prices.csv"),
    ),
    "checkpoint_is_a_directory": (
        lambda ws, tmp: ["eval", _directory(tmp, "checkpoint.best"), "--data", str(ws["prices"]),
                         "--out", str(tmp / "out")],
        2, "data", os.path.join("given", "checkpoint.best"),
    ),
    "series_csv_is_a_directory": (
        lambda ws, tmp: ["plot", "--data", _directory(tmp, "series.csv"), "--out", str(tmp / "out")],
        2, "data", os.path.join("given", "series.csv"),
    ),
    "price_csv_not_utf8": (
        lambda ws, tmp: ["ingest", "--data", _not_utf8(tmp, "date,INDEX,A?\n2020-01-01,1.0,1.0\n"),
                         "--out", str(tmp / "out")],
        2, "data", "latin.txt is not UTF-8 text",
    ),
    # the bad byte lies beyond the header's read, where the parse of the rows meets it
    "price_csv_not_utf8_in_last_row": (
        lambda ws, tmp: ["ingest", "--data", _not_utf8_last_row(tmp), "--out", str(tmp / "out")],
        2, "data", "latin.txt is not UTF-8 text",
    ),
    "train_price_csv_not_utf8_in_last_row": (
        lambda ws, tmp: ["train", "--data", _not_utf8_last_row(tmp), "--out", str(tmp / "out")],
        2, "data", "latin.txt is not UTF-8 text",
    ),
    "price_csv_empty": (
        lambda ws, tmp: ["ingest", "--data", _text_file(tmp, "empty.csv", ""),
                         "--out", str(tmp / "out")],
        2, "data", "empty file:",
    ),
    # a side of one row is refused as the split is made, before any file or worker
    "train_one_training_row": (
        lambda ws, tmp: _four_price_rows(tmp, "0.4", "train", *_TINY_RUN),
        2, "data", "a return panel needs at least two rows, got 1",
    ),
    "compare_one_training_row": (
        lambda ws, tmp: _four_price_rows(tmp, "0.4", "compare", *_TINY_RUN),
        2, "data", "a return panel needs at least two rows, got 1",
    ),
    # a window longer than the training side fails every draw: refused before any file or run
    "train_window_over_training_side": (
        lambda ws, tmp: _train(ws, tmp, "--window", "49"),
        2, "data", "window length 49 exceeds available rows 48",
    ),
    "compare_window_over_training_side": (
        lambda ws, tmp: ["compare", "--data", str(ws["prices"]), "--config", str(ws["config"]),
                         "--out", str(tmp / "out"), "--window", "49"],
        2, "data", "window length 49 exceeds available rows 48",
    ),
    "compare_population_below_cmaes_floor": (
        lambda ws, tmp: ["compare", "--data", str(ws["prices"]), "--config", str(ws["config"]),
                         "--out", str(tmp / "out"), "--population", "3"],
        1, "usage", "cmaes needs a population of at least 4, got 3",
    ),
    # ingest takes a one-asset CSV; a return panel refuses it
    "train_one_asset": (
        lambda ws, tmp: ["train", "--data", _one_asset(tmp), "--out", str(tmp / "out")],
        2, "data", "a return panel needs at least two assets, got 1",
    ),
    "compare_one_asset": (
        lambda ws, tmp: ["compare", "--data", _one_asset(tmp), "--out", str(tmp / "out")],
        2, "data", "a return panel needs at least two assets, got 1",
    ),
    "eval_one_asset": (
        lambda ws, tmp: ["eval", str(ws["run"] / "checkpoint.best"), "--data", _one_asset(tmp),
                         "--out", str(tmp / "out")],
        2, "data", "a return panel needs at least two assets, got 1",
    ),
    "train_one_validation_row": (
        lambda ws, tmp: _four_price_rows(tmp, "0.7", "train", *_TINY_RUN),
        2, "data", "a return panel needs at least two rows, got 1",
    ),
    "eval_one_validation_row": (
        lambda ws, tmp: _four_price_rows(tmp, "0.7", "eval", str(ws["run"] / "checkpoint.best")),
        2, "data", "a return panel needs at least two rows, got 1",
    ),
    "price_csv_blank_rows": (
        lambda ws, tmp: ["ingest", "--data", _text_file(tmp, "blank.csv", "date,INDEX,A\n\n\n"),
                         "--out", str(tmp / "out")],
        2, "data", "need at least two data rows",
    ),
    "checkpoint_not_utf8": (
        lambda ws, tmp: ["eval", _not_utf8(tmp, '{"kind": "?"}'), "--data", str(ws["prices"]),
                         "--out", str(tmp / "out")],
        2, "data", "latin.txt: 'utf-8' codec can't decode byte 0xff",
    ),
    "config_not_utf8": (
        lambda ws, tmp: _train(ws, tmp, "--config", _not_utf8(tmp, "# caf? au lait\nwindow=10\n")),
        1, "usage", "latin.txt is not UTF-8 text",
    ),
    "series_csv_not_utf8": (
        lambda ws, tmp: ["plot", "--data", _not_utf8(tmp, "date,index?\n2020-01-01,0.1\n"),
                         "--out", str(tmp / "out")],
        2, "data", "latin.txt: 'utf-8' codec can't decode byte 0xff",
    ),
    "bad_price_cell": (
        lambda ws, tmp: ["ingest", "--data", _bad_price_cell(tmp), "--index-column", "INDEX",
                         "--out", str(tmp / "out")],
        2, "data", "column A: invalid number",
    ),
    "resume_changed_lambda": (
        lambda ws, tmp: _train(ws, tmp, "--iterations", "6", "--lambda", "0.5",
                               "--resume", str(ws["run"] / "checkpoint.final")),
        2, "data", "differs on: lambda",
    ),
    "resume_from_baseline": (
        lambda ws, tmp: _train(ws, tmp, "--iterations", "6", "--resume", _rprop_checkpoint(ws, tmp)),
        2, "data", "does not describe a generator run",
    ),
    "resume_other_format_version": (
        lambda ws, tmp: _train(ws, tmp, "--iterations", "6", "--resume", _edited_checkpoint(
            ws["run"] / "checkpoint.final", tmp, format_version=2)),
        2, "data", "checkpoint format_version 2 cannot be resumed: format_version 3",
    ),
    "resume_at_target": (
        lambda ws, tmp: _train(ws, tmp, "--resume", str(ws["run"] / "checkpoint.final")),
        2, "data", "nothing to do before 4",
    ),
    "eval_other_assets": (
        lambda ws, tmp: ["eval", str(ws["run"] / "checkpoint.best"), "--data", _other_assets(tmp),
                         "--out", str(tmp / "out")],
        2, "data", "config expects 5 assets, data has 6",
    ),
    "eval_config_not_an_object": (
        lambda ws, tmp: ["eval", _edited_checkpoint(ws["run"] / "checkpoint.best", tmp, config=5),
                         "--data", str(ws["prices"]), "--out", str(tmp / "out")],
        2, "data", "config is not a JSON object",
    ),
    "resume_config_null": (
        lambda ws, tmp: _train(ws, tmp, "--iterations", "6", "--resume",
                               _edited_checkpoint(ws["run"] / "checkpoint.best", tmp, config=None)),
        2, "data", "config is not a JSON object",
    ),
    "eval_baseline_text_iteration": (
        lambda ws, tmp: ["eval", _edited_checkpoint(V1_FIXTURE / "baseline.checkpoint", tmp,
                                                    iteration="abc"),
                         "--data", str(V1_FIXTURE / "prices.csv"), "--out", str(tmp / "out")],
        2, "data", "iteration 'abc' is not an integer >= 0",
    ),
    "eval_seed_of_baseline": (
        lambda ws, tmp: ["eval", str(V1_FIXTURE / "baseline.checkpoint"),
                         "--data", str(V1_FIXTURE / "prices.csv"), "--out", str(tmp / "out"),
                         "--eval-seed", "7"],
        1, "usage", "eval_seed 7 draws noise, and a baseline checkpoint has none",
    ),
    "eval_baseline_without_optimizer": (
        lambda ws, tmp: ["eval", _baseline_without_optimizer(tmp),
                         "--data", str(V1_FIXTURE / "prices.csv"), "--out", str(tmp / "out")],
        2, "data", "baseline checkpoint names no optimizer: None",
    ),
    "eval_baseline_unknown_optimizer": (
        lambda ws, tmp: ["eval", _edited_checkpoint(V1_FIXTURE / "baseline.checkpoint", tmp,
                                                    optimizer="lbfgs"),
                         "--data", str(V1_FIXTURE / "prices.csv"), "--out", str(tmp / "out")],
        2, "data", "baseline checkpoint names no optimizer: 'lbfgs'",
    ),
    "eval_nan_logits": (
        lambda ws, tmp: ["eval", _nan_baseline_logits(tmp), "--data", str(V1_FIXTURE / "prices.csv"),
                         "--out", str(tmp / "out")],
        2, "data", "logits holds non-finite values",
    ),
    "infinite_rate": (
        lambda ws, tmp: _train(ws, tmp, "--config", _config_file(tmp, OVERFLOWING_RATE)),
        3, "numerical", "iteration 1",
    ),
    "eval_overflow": (
        lambda ws, tmp: ["eval", _overflowing_checkpoint(ws, tmp, conv_w=1.7e308, conv_b=1.7e308),
                         "--data", str(ws["prices"]), "--out", str(tmp / "out")],
        3, "numerical", "non-finite value produced by primitive",
    ),
    # --resume scores the stored best state before its first iteration, as eval scores it
    "resume_overflow": (
        lambda ws, tmp: _train(ws, tmp, "--iterations", "6", "--resume",
                               _overflowing_checkpoint(ws, tmp, conv_w=1.7e308, conv_b=1.7e308)),
        3, "numerical", "non-finite value produced by primitive 'conv1d_valid'",
    ),
    # the matmuls overflow and their sum is invalid: no numpy warning precedes the error line
    "eval_lstm_overflow": (
        lambda ws, tmp: ["eval", _overflowing_checkpoint(ws, tmp, lstm_wx=1.7e308, lstm_wh=-1.7e308),
                         "--data", str(ws["prices"]), "--out", str(tmp / "out")],
        3, "numerical", "'lstm_cell'",
    ),
    "plot_nan_cell": (
        lambda ws, tmp: ["plot", "--data", _series_csv(tmp, "date,index,ensemble\n"
                         "2020-01-01,0.1,0.2\n2020-01-02,0.3,nan\n"), "--out", str(tmp / "out")],
        2, "data", "series 'ensemble' has a non-finite cumulative sum",
    ),
    "plot_header_without_date": (
        lambda ws, tmp: ["plot", "--data", _series_csv(tmp, "day,index\n"
                         "2020-01-01,0.1\n2020-01-02,0.2\n"), "--out", str(tmp / "out")],
        2, "data", "expected a header starting with 'date'",
    ),
    "plot_series_row_short_of_a_cell": (
        lambda ws, tmp: ["plot", "--data", _series_csv(tmp, "date,index,ensemble\n"
                         "2020-01-01,0.1,0.2\n2020-01-02,0.3\n"), "--out", str(tmp / "out")],
        2, "data", "malformed series row: list index out of range",
    ),
    "plot_series_cell_not_a_number": (
        lambda ws, tmp: ["plot", "--data", _series_csv(tmp, "date,index\n"
                         "2020-01-01,0.1\n2020-01-02,abc\n"), "--out", str(tmp / "out")],
        2, "data", "malformed series row: could not convert string to float: 'abc'",
    ),
    "plot_overflowing_series": (
        lambda ws, tmp: ["plot", "--data", _series_csv(tmp, "date,index\n"
                         "2020-01-01,1e308\n2020-01-02,1e308\n"), "--out", str(tmp / "out")],
        2, "data", "series 'index' has a non-finite cumulative sum",
    ),
    # each cumulative sum is finite, but the span between them is not
    "plot_overflowing_span": (
        lambda ws, tmp: ["plot", "--data", _series_csv(tmp, "date,a,b\n"
                         "2020-01-01,1e308,-1e308\n2020-01-02,0,0\n"), "--out", str(tmp / "out")],
        2, "data", "cumulative sums from -1e+308 to 1e+308 span more than a float holds",
    ),
}


# `train` writes its run.config before it reads --resume's checkpoint or runs an iteration;
# every other documented failure is refused before any file is written
_FAIL_AFTER_WRITING = {"resume_changed_lambda", "resume_from_baseline", "resume_other_format_version",
                       "resume_at_target", "resume_config_null", "resume_overflow", "infinite_rate"}


@pytest.mark.parametrize("case", list(_DOCUMENTED_FAILURES))
@pytest.mark.filterwarnings("error")  # the error line is the only report of a failure
def test_documented_failures_map_to_their_exit_codes(workspace, tmp_path, capsys, case):
    build, code, category, reason = _DOCUMENTED_FAILURES[case]
    argv = build(workspace, tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {category}:")
    assert err.count("\n") == 1
    assert reason in err
    if case not in _FAIL_AFTER_WRITING:
        assert not (tmp_path / "out").exists()  # refused before anything is written


# ----------------------------------------------------------------------
# the flags: each configuration key's flag comes from the config schema

_PATHS = {"--config", "--data", "--out"}
_RUN_FLAGS = _PATHS | {"--index-column", "--seed", "--iterations", "--population", "--lambda",
                       "--window", "--optimizer", "--train-fraction", "--eval-seed"}
_FLAGS = {
    "ingest": _PATHS | {"--index-column"},
    "synth": {"--config", "--out", "--index-column", "--seed",
              "--assets", "--days", "--sparse", "--noise-scale"},
    "train": _RUN_FLAGS | {"--resume"},
    "eval": _PATHS | {"--index-column", "--train-fraction", "--eval-seed"},
    "compare": _RUN_FLAGS,
    "plot": {"--data", "--out"},
}


def _subcommands() -> dict:
    (commands,) = [action.choices for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return commands


def test_each_command_takes_exactly_its_flags():
    commands = _subcommands()
    assert set(commands) == set(_FLAGS)
    for name, parser in commands.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags - {"-h", "--help"} == _FLAGS[name], name
        positionals = [action.dest for action in parser._actions if not action.option_strings]
        assert positionals == (["checkpoint"] if name == "eval" else []), name


def test_each_config_key_flag_converts_as_its_schema_type():
    expected = {"seed": 7, "iterations": 7, "population": 7, "window": 7, "eval_seed": 7,
                "lambda": 7.0, "train_fraction": 7.0, "optimizer": "7", "index_column": "7"}
    seen = set()
    for name, parser in _subcommands().items():
        positional = ["ckpt"] if name == "eval" else []
        for action in parser._actions:
            key = action.option_strings[-1][2:].replace("-", "_") if action.option_strings else ""
            if key not in cli._KEYS:
                continue
            value = getattr(parser.parse_args([*action.option_strings, "7", *positional]), action.dest)
            assert (type(value), value) == (type(expected[key]), expected[key]), (name, key)
            seen.add(key)
    assert seen == set(expected)
    with pytest.raises(UsageError, match="invalid int value: '7.5'"):
        cli._build_parser().parse_args(["train", "--window", "7.5"])


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_every_command_prints_its_help(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qdportfolio {command}")


def test_readme_lists_every_config_key():
    """README's `Keys:` list, plus `n_assets` (described on its own), is the schema's key set."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    listed = readme.split("\nKeys: ", 1)[1].split(". Unknown keys", 1)[0]
    listed = re.sub(r"\([^)]*\)", "", listed)  # a key's values, such as bag_mode's
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) == len(set(names))
    assert set(names) | {"n_assets"} == set(cli._KEYS)


# ----------------------------------------------------------------------
# config parsing and SVG units

def test_parse_config_file_details(tmp_path):
    config = tmp_path / "c"
    config.write_text("# comment\n\niterations = 7\ncorruption=off\neval_seed=\n")
    values = parse_config_file(config)
    assert values == {"iterations": 7, "corruption": False, "eval_seed": None}
    config.write_text("iterations\n")
    with pytest.raises(UsageError, match="expected key=value"):
        parse_config_file(config)
    config.write_text("banana=1\n")
    with pytest.raises(UsageError, match=r"c:1: unknown configuration key"):
        parse_config_file(config)
    config.write_text("iterations=7\ncorruption=maybe\n")
    with pytest.raises(UsageError, match=r"c:2: bad value for configuration key corruption"):
        parse_config_file(config)
    with pytest.raises(UsageError, match="no such config"):
        parse_config_file(tmp_path / "ghost")


def test_flat_key_parse_reads_text_and_json_alike():
    corruption = trainer.FLAT_KEYS["corruption"]
    for value, expected in [("true", True), ("Yes", True), (" on ", True), ("1", True), (1, True),
                            (True, True), ("false", False), ("NO", False), ("off", False),
                            ("0", False), (0, False), (False, False)]:
        assert corruption.parse(value) is expected, value
    for value in ("maybe", "", None, 2, 1.0):
        with pytest.raises(DataError, match="configuration key corruption"):
            corruption.parse(value)
    # blank or null leaves a key that is unset by default unset
    for name in ("learning_rate", "eval_seed"):
        assert trainer.FLAT_KEYS[name].parse(" ") is None
        assert trainer.FLAT_KEYS[name].parse(None) is None
    with pytest.raises(DataError, match="window"):
        trainer.FLAT_KEYS["window"].parse(None)
    assert trainer.FLAT_KEYS["window"].parse(" 30 ") == trainer.FLAT_KEYS["window"].parse(30) == 30
    # a JSON value keeps its type: a fraction is no count, and true and false are no numbers
    assert trainer.FLAT_KEYS["lambda"].parse(0) == trainer.FLAT_KEYS["lambda"].parse("0") == 0.0
    for name, value in [("window", 20.9), ("window", 20.0), ("window", True), ("seed", False),
                        ("lambda", True), ("lambda", False), ("lambda", 10**400)]:
        with pytest.raises(DataError, match=f"configuration key {name}"):
            trainer.FLAT_KEYS[name].parse(value)
    assert trainer.DATA_KEYS["train_fraction"].parse("0.75") == 0.75


_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def train_configs(draw):
    seeds = st.integers(0, 2**64 - 1)
    seed, noise_dim = draw(seeds), draw(st.integers(1, 12))
    generator = GeneratorConfig(  # the run seed is the generator's
        n_assets=draw(st.integers(2, 40)), noise_dim=noise_dim,
        conv_channels=draw(st.integers(1, 8)), conv_kernel=draw(st.integers(1, noise_dim)),
        lstm_hidden=draw(st.integers(1, 8)), population=draw(st.integers(1, 8)), seed=seed,
    )
    loss = LossConfig(
        diversity_weight=draw(st.floats(0.0, 1e3, **_FINITE)),
        p_zero=draw(st.floats(0.0, 1.0)),
        noise_sigma=draw(st.floats(0.0, 1.0)),
        corruption_enabled=draw(st.booleans()),
    )
    step_min = draw(st.floats(1e-12, 1.0, exclude_min=True))
    hyper = Hyper(
        learning_rate=draw(st.floats(1e-9, 10.0)),
        beta1=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta2=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eps=draw(st.floats(1e-300, 1.0)),
        weight_decay=draw(st.floats(0.0, 1.0)),
        rmsprop_alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        rprop_eta_plus=draw(st.floats(1.0, 10.0, exclude_min=True)),
        rprop_eta_minus=draw(st.floats(0.0, 1.0, exclude_max=True)),
        rprop_step_min=step_min,
        rprop_step_max=draw(st.floats(step_min, 1e3, exclude_min=True)),
        cmaes_sigma0=draw(st.floats(1e-6, 10.0)),
    )
    return TrainConfig(
        generator=generator,
        loss=loss,
        optimizer=draw(st.sampled_from(GRADIENT_KINDS)),
        hyper=hyper,
        iterations=draw(st.integers(1, 10**6)),
        window=draw(st.integers(2, 10**4)),
        seed=seed,
        eval_seed=draw(st.none() | seeds),
        eval_every=draw(st.integers(1, 100)),
        bag_mode=draw(st.sampled_from(BAG_MODES)),
    )


@given(config=train_configs(),
       train_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       index_column=st.text("ABCXYZ_0123456789", min_size=1, max_size=8))
def test_config_round_trips_through_run_config_and_json(tmp_path_factory, config,
                                                        train_fraction, index_column):
    flat = trainer.config_to_flat(config)
    path = tmp_path_factory.mktemp("config") / "run.config"
    trainer.write_config({**flat, "train_fraction": train_fraction,
                          "index_column": index_column}, path)
    parsed = parse_config_file(path)
    assert (parsed.pop("train_fraction"), parsed.pop("index_column")) == (train_fraction,
                                                                          index_column)
    assert trainer.config_from_flat(parsed) == config
    assert trainer.config_from_flat(json.loads(json.dumps(flat))) == config


def test_defaults_cover_every_config_key():
    assert DEFAULTS["lambda"] == 1e-6
    assert DEFAULTS["optimizer"] == "adamw"
    assert DEFAULTS["learning_rate"] is None
    assert DEFAULTS["window"] == 252
    assert DEFAULTS["population"] == 64


def test_render_svg_validation():
    with pytest.raises(UsageError):
        render_svg(["a"], [np.zeros(5), np.zeros(5)])
    with pytest.raises(Exception):
        render_svg(["a", "b"], [np.zeros(1), np.zeros(1)])
    svg = render_svg(["index", "ensemble", "sub_0000"],
                     [np.ones(5), np.zeros(5), -np.ones(5)])
    root = ET.fromstring(svg)
    assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == 3


def test_render_svg_flat_series_has_no_nan():
    svg = render_svg(["index"], [np.zeros(4)])
    assert "nan" not in svg.lower()
    ET.fromstring(svg)
