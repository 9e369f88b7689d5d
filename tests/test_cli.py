"""Command-line interface: exit codes, artifact layout, determinism, SVG."""
import base64
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qdportfolio import trainer
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


_CHECKPOINT_FAULTS = {
    "bad_value": (lambda payload: payload["config"].update(window="abc"), "window"),
    "missing_section": (lambda payload: payload.pop("params"), "params"),
    "short_array": (_drop_last_value, "bytes"),
    "truncated": (None, "unreadable checkpoint"),
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


def test_resume_from_v1_checkpoint_matches_its_v2_encoding(tmp_path, capsys):
    v1 = trainer.load_checkpoint(V1_FIXTURE / "generator.checkpoint")
    assert v1["format_version"] == 1
    config = trainer.config_from_flat(v1["config"])
    best = trainer._Snapshot.decode(v1["best_state"]).encode(config)
    v2 = trainer._Snapshot.decode(v1).encode(config, best)
    assert v2["format_version"] == 2
    trainer.save_checkpoint(v2, tmp_path / "v2.checkpoint")
    base = ["train", "--data", str(V1_FIXTURE / "prices.csv"),
            "--config", str(V1_FIXTURE / "small.config"), "--seed", "4", "--iterations", "4"]
    runs = {}
    for name, checkpoint in [("v1", V1_FIXTURE / "generator.checkpoint"),
                             ("v2", tmp_path / "v2.checkpoint")]:
        runs[name] = tmp_path / name
        assert main(base + ["--resume", str(checkpoint), "--out", str(runs[name])]) == 0
    capsys.readouterr()
    names = {p.name for p in runs["v1"].iterdir()} - {"timing.csv"}
    for name in sorted(names):
        assert (runs["v1"] / name).read_bytes() == (runs["v2"] / name).read_bytes(), name
    # the continuation is the one format version 1's code computed
    for name in ("loss.csv", "eval.csv"):
        assert (runs["v1"] / name).read_text() == (V1_FIXTURE / f"resumed.{name}").read_text()


def test_numerical_errors_exit_3_after_config_written(workspace, tmp_path, capsys):
    config = tmp_path / "blowup.config"
    config.write_text(SMALL_ARCH + "optimizer=sgd\nlearning_rate=inf\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(workspace["prices"]),
                 "--config", str(config), "--out", str(out)]) == 3
    assert "error: numerical:" in capsys.readouterr().err
    # the configuration is on disk even though training failed
    assert (out / "run.config").exists()
    assert not (out / "loss.csv").exists()


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
    with pytest.raises(UsageError, match="no such config"):
        parse_config_file(tmp_path / "ghost")


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
