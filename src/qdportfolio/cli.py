"""Command-line surface: ingest, synth, train, eval, compare, plot.

Configuration resolves in three layers (defaults, then a flat key=value
config file, then command-line flags) and the fully resolved result is
written to the output directory before any computation starts.  Exit
codes: 0 success, 1 usage error, 2 data error, 3 numerical failure; every
such failure prints one `error: <category>: <reason>` line on stderr.  Any
other exception is a bug and ends in a traceback.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import trainer
from .marketdata import (
    DataError,
    RangeError,
    compute_log_returns,
    load_prices,
    panel_to_prices,
    synth_dataset,
    time_split,
    write_prices,
    write_text,
)
from .optim import BASELINE_HYPER, GENERATOR_HYPER, Hyper
from .trainer import TrainConfig, TrainError, config_to_flat, format_value

__all__ = ["main", "UsageError", "DEFAULTS", "parse_config_file", "render_svg"]

PLOT_SVG = "plot.svg"
SERIES_CSV = "series.csv"
REPORT_TXT = "report.txt"
WEIGHTS_CSV = "weights.csv"

INDEX_COLOR = "#d62728"
ENSEMBLE_COLOR = "#1f77b4"
SUB_COLOR = "#b0b0b0"
SVG_WIDTH = 900
SVG_HEIGHT = 480


class UsageError(Exception):
    """Bad flags, bad config keys or malformed option values."""


_KEYS = {**trainer.FLAT_KEYS, **trainer.DATA_KEYS}
DEFAULTS: dict = {name: key.default for name, key in _KEYS.items() if key.default is not MISSING}


def parse_config_file(path: str | Path) -> dict:
    """Flat key=value lines; blank lines and full-line # comments skipped."""
    path = Path(path)
    if not path.is_file():
        raise UsageError(f"no such config file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"{path} is not UTF-8 text ({e.reason})") from None
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown configuration key: {key}")
        try:
            values[key] = _KEYS[key].parse(raw)
        except DataError as e:
            raise UsageError(f"{path}:{lineno}: {e}") from None
    return values


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit(2) on a bad command line; route through
    # our usage category instead so exit codes stay pinned.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdportfolio", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name: str, help: str, *keys: str, paths=("config", "data", "out")) -> _Parser:
        """Subcommand `name`, taking `--<path>` per path and `--<key>` per configuration key.

        A key's flag converts its value as the key's type when that is a number;
        any other stays text (`--optimizer`), which `config_from_flat` parses.
        """
        p = sub.add_parser(name, help=help)
        for path in paths:
            p.add_argument(f"--{path}")
        for key in keys:
            number = _KEYS[key].type if _KEYS[key].type in (int, float) else None
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=number)
        return p

    run_keys = ("index_column", "seed", "iterations", "population", "lambda", "window",
                "optimizer", "train_fraction", "eval_seed")
    command("ingest", "validate and normalize a price CSV", "index_column")
    p_synth = command("synth", "write a synthetic sparse-index dataset", "index_column", "seed",
                      paths=("config", "out"))
    p_synth.add_argument("--assets", metavar="N", type=int, default=20)
    p_synth.add_argument("--days", metavar="T", type=int, default=400)
    p_synth.add_argument("--sparse", metavar="K", type=int, default=5)
    p_synth.add_argument("--noise-scale", metavar="F", type=float, default=0.0)
    p_train = command("train", "meta-train the portfolio generator", *run_keys)
    p_train.add_argument("--resume", metavar="CHECKPOINT")
    p_eval = command("eval", "score a checkpoint on the validation panel",
                     "index_column", "train_fraction", "eval_seed")
    p_eval.add_argument("checkpoint", metavar="CHECKPOINT")
    command("compare", "run every optimizer plus the generator", *run_keys)
    command("plot", "render cumulative-return curves as SVG", paths=("data", "out"))
    return parser


def _resolve(args) -> dict:
    """Layer defaults, then the config file, then explicit flags."""
    resolved = dict(DEFAULTS)
    if args.config:
        resolved.update(parse_config_file(args.config))
    resolved.update({k: v for k, v in vars(args).items() if k in _KEYS and v is not None})
    for key in ("seed", "eval_seed"):
        if resolved[key] is not None and resolved[key] < 0:
            raise UsageError(f"{key} must be non-negative, got {resolved[key]}")
    return resolved


def _require(args, name: str) -> str:
    value = getattr(args, name.replace("-", "_"), None)
    if not value:
        raise UsageError(f"--{name} is required for this command")
    return value


def _role_rate(resolved: dict, role: Hyper) -> float:
    """The configured learning rate, or the role's own when it is unset."""
    rate = resolved["learning_rate"]
    return role.learning_rate if rate is None else rate


def _build_train_config(resolved: dict, n_assets: int) -> TrainConfig:
    # a replayed run.config names the asset count it was trained on
    if resolved.get("n_assets", n_assets) != n_assets:
        raise DataError(f"config expects {resolved['n_assets']} assets, data has {n_assets}")
    flat = {
        **resolved,
        "n_assets": n_assets,
        "learning_rate": _role_rate(resolved, GENERATOR_HYPER),
    }
    try:
        return trainer.config_from_flat(flat)
    except DataError as e:
        raise UsageError(str(e)) from None


def _with_data_keys(flat: dict, resolved: dict) -> dict:
    return {**flat, **{key: resolved[key] for key in trainer.DATA_KEYS}}


def _load_split(args, resolved: dict):
    table = load_prices(_require(args, "data"), resolved["index_column"])
    panel = compute_log_returns(table)
    return panel, time_split(panel, resolved["train_fraction"])


# --------------------------------------------------------------------------
# commands

def _cmd_ingest(args) -> int:
    resolved = _resolve(args)
    table = load_prices(_require(args, "data"), resolved["index_column"])
    write_prices(table, Path(_require(args, "out")) / "prices.csv")
    print(f"rows={table.n_rows} assets={table.n_assets} index={table.index_name}")
    return 0


def _cmd_synth(args) -> int:
    resolved = _resolve(args)
    panel, true_weights = synth_dataset(
        n_assets=args.assets,
        n_days=args.days,
        k_sparse=args.sparse,
        noise_scale=args.noise_scale,
        seed=resolved["seed"],
    )
    out = Path(_require(args, "out"))
    table = panel_to_prices(panel, index_name=resolved["index_column"])
    write_prices(table, out / "prices.csv")
    trainer.write_rows(out / "true_weights.csv", ["ticker", "weight"], [
        (ticker, weight) for ticker, weight in zip(panel.tickers, true_weights) if weight > 0
    ])
    print(f"rows={table.n_rows} assets={table.n_assets} support={int((true_weights > 0).sum())}")
    return 0


def _cmd_train(args) -> int:
    resolved = _resolve(args)
    panel, split = _load_split(args, resolved)
    config = _build_train_config(resolved, panel.n_assets)
    out = Path(_require(args, "out"))
    flat = _with_data_keys(config_to_flat(config), resolved)
    trainer.write_config(flat, out / trainer.RUN_CONFIG)

    # no name keeps the resume document: train_generator drops it once decoded
    artifacts = trainer.train_generator(
        config, split, resume=trainer.load_checkpoint(args.resume) if args.resume else None)
    artifacts.config = flat
    trainer.save_run(artifacts, out)
    print(
        f"best_validation_mse={format_value(artifacts.best_validation_mse)} "
        f"iteration={artifacts.best_iteration}"
    )
    return 0


def _cmd_eval(args) -> int:
    resolved = _resolve(args)
    payload = trainer.load_checkpoint(args.checkpoint)
    config, population = trainer.checkpoint_population(payload, resolved["eval_seed"])
    kind, rule, iteration = payload["kind"], payload.get("optimizer"), payload["iteration"]
    del payload  # read: its JSON tree is freed before the prices are
    validation = _load_split(args, resolved)[1].validation
    out = Path(_require(args, "out"))
    flat = config_to_flat(config)
    if kind == "baseline":  # a CMA-ES config block holds a gradient rule in the rule's place
        flat["optimizer"] = rule
        kind = f"baseline:{rule}"
    trainer.write_config(_with_data_keys(flat, resolved), out / trainer.RUN_CONFIG)
    if config.generator.n_assets != validation.n_assets:
        raise DataError(
            f"checkpoint expects {config.generator.n_assets} assets, "
            f"data has {validation.n_assets}"
        )
    report = ens.evaluate_population(population, validation, bag_mode=config.bag_mode)
    ens_eval = ens.evaluate(report.ensemble_weights, validation)

    trainer.write_config({
        "ensemble_mse": report.ensemble_mse,
        "ensemble_l2": ens_eval.l2_norm,
        "mean_sub_mse": report.mean_sub_mse,
        "max_corr": report.max_corr,
        "support_size": int(np.count_nonzero(report.ensemble_weights)),
        "population": population.weights.shape[0],
        "validation_rows": validation.n_rows,
        "checkpoint_kind": kind,
        "iteration": iteration,
        "eval_seed": resolved["eval_seed"],  # unset: the checkpoint's stored noise
    }, out / REPORT_TXT)
    members = [f"sub_{i:04d}" for i in range(population.weights.shape[0])]
    trainer.write_rows(out / SERIES_CSV, ["date", "index", "ensemble", *members], (
        (day.isoformat(), index, ensemble, *subs)
        for day, index, ensemble, subs in zip(
            validation.dates, validation.index_returns.tolist(),
            ens_eval.returns.tolist(),
            ens.member_returns(population.weights, validation).T.tolist(),
        )
    ))
    trainer.write_rows(out / WEIGHTS_CSV, ["ticker", "weight"], [
        (ticker, weight) for ticker, weight in zip(validation.tickers, report.ensemble_weights)
        if weight >= ens.EXPORT_WEIGHT_FLOOR
    ])
    print(f"ensemble_mse={format_value(report.ensemble_mse)}")
    return 0


def _cmd_compare(args) -> int:
    resolved = _resolve(args)
    panel, split = _load_split(args, resolved)
    config = _build_train_config(resolved, panel.n_assets)
    out = Path(_require(args, "out"))
    # the configured rate, not the generator's: unset, each role runs at its own
    flat = {**config_to_flat(config), "learning_rate": resolved["learning_rate"]}
    trainer.write_config(_with_data_keys(flat, resolved), out / trainer.RUN_CONFIG)

    result = trainer.compare_optimizers(
        config, split, baseline_rate=_role_rate(resolved, BASELINE_HYPER)
    )
    for art in result.artifacts.values():
        art.config = _with_data_keys(art.config, resolved)
    trainer.save_comparison(result, out)
    top = result.rows[0]
    if top.status != "ok":  # failures sort last, so every run failed
        raise DataError("no run succeeded; see failures.csv")
    print(f"best={top.optimizer} mse={format_value(top.best_validation_mse)}")
    return 0


def render_svg(names: list[str], series: list[np.ndarray]) -> str:
    """Line chart of cumulative sums; self-contained SVG, no external refs."""
    if not names or len(names) != len(series):
        raise UsageError("plot needs one name per series")
    length = len(series[0])
    if length < 2 or any(len(s) != length for s in series):
        raise DataError("plot needs at least two rows of equal-length series")
    cumulative = [np.cumsum(np.asarray(s, dtype=np.float64)) for s in series]
    for name, c in zip(names, cumulative):
        if not np.isfinite(c).all():
            raise DataError(f"series {name!r} has a non-finite cumulative sum")
    lo = min(float(c.min()) for c in cumulative)
    hi = max(float(c.max()) for c in cumulative)
    span = hi - lo if hi > lo else 1.0
    if not np.isfinite(span):  # each sum is finite, but their spread is not
        raise DataError(f"cumulative sums from {lo!r} to {hi!r} span more than a float holds")
    margin = 40.0
    plot_w = SVG_WIDTH - 2 * margin
    plot_h = SVG_HEIGHT - 2 * margin

    def sx(t: int) -> float:
        return margin + plot_w * t / (length - 1)

    def sy(v: float) -> float:
        return margin + plot_h * (1.0 - (v - lo) / span)

    def color_for(name: str) -> str:
        if name == "index":
            return INDEX_COLOR
        if name == "ensemble":
            return ENSEMBLE_COLOR
        return SUB_COLOR

    # draw the highlighted pair last so they sit on top of the gray lines
    order = sorted(range(len(names)), key=lambda i: (names[i] in ("index", "ensemble"), names[i]))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    for i in order:
        points = " ".join(
            f"{sx(t):.3f},{sy(float(cumulative[i][t])):.3f}" for t in range(length)
        )
        stroke_width = "1.5" if names[i] in ("index", "ensemble") else "0.75"
        parts.append(
            f'<polyline fill="none" stroke="{color_for(names[i])}" '
            f'stroke-width="{stroke_width}" points="{points}"/>'
        )
    parts.append(
        f'<text x="{margin}" y="{margin - 8:.1f}" font-family="monospace" '
        f'font-size="12" fill="#333333">cumulative log return</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_plot(args) -> int:
    path = Path(_require(args, "data"))
    if not path.is_file():
        raise DataError(f"no such series file: {path}")
    try:
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"), newline="")))
    except (UnicodeDecodeError, csv.Error) as e:  # not UTF-8, or a field over csv's size limit
        raise DataError(f"unreadable series file {path}: {e}") from None
    if not rows or rows[0][:1] != ["date"] or len(rows[0]) < 2:
        raise DataError(f"{path}: expected a header starting with 'date'")
    names = rows[0][1:]
    try:
        data = [
            np.asarray([float(row[j + 1]) for row in rows[1:]])
            for j in range(len(names))
        ]
    except (ValueError, IndexError) as e:
        raise DataError(f"{path}: malformed series row: {e}") from None
    target = Path(_require(args, "out")) / PLOT_SVG
    write_text(target, render_svg(names, data))
    print(f"wrote {target}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "plot": _cmd_plot,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (ingest, synth, train, eval, compare, plot)")
        trainer.one_blas_thread()  # a command's bytes then do not depend on OPENBLAS_NUM_THREADS
        # a non-finite result is reported once, by the error line below, not also as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except (UsageError, RangeError) as e:  # a RangeError is a DataError too, so it is caught first
        print(f"error: usage: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"error: data: {e}", file=sys.stderr)
        return 2
    except (TrainError, ArithmeticError) as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
