"""The benchmark's workloads: inputs made from a seed, one job, its checks.

Every workload is a closed loop of one job at a time.  A run builds the
workload's `datasets` input sets, each from its own seed derived from
the run's seed, and cycles its jobs through them.  Each instance is a synthetic
panel whose index is an equal-weight basket of a few assets plus
Gaussian noise, so the validation MSE of the true weights (the noise
floor) is known.  Quality is reported as the job's best validation MSE
divided by that floor, averaged over the input sets: the raw MSE varies
several-fold between seeds, the ratio to the floor much less.
"""
from __future__ import annotations

import contextlib
import gc
import io
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qdportfolio import cli, generator, marketdata, optim, trainer

TRAIN_FRACTION = 0.8
NOISE_SCALE = 0.002
K_SPARSE = 5


@dataclass
class Outcome:
    """What one job produced, judged after its clock stopped."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    best_mse: float = math.nan
    ratio: float = math.nan
    artifact_bytes: int = 0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


def dataset_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _noisy_instance(n_assets: int, n_days: int, seed: int):
    """The synthetic panel, its split and the validation noise floor."""
    panel, true_weights = marketdata.synth_dataset(
        n_assets=n_assets, n_days=n_days, k_sparse=K_SPARSE,
        noise_scale=NOISE_SCALE, seed=seed,
    )
    split = marketdata.time_split(panel, TRAIN_FRACTION)
    val = split.validation
    deviation = val.returns @ true_weights - val.index_returns
    return panel, split, float(np.mean(deviation * deviation))


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _train_config(n_assets: int, iterations: int, seed: int, **fields) -> trainer.TrainConfig:
    """The library's default configuration at this width and length."""
    return trainer.TrainConfig(
        generator=generator.GeneratorConfig(n_assets=n_assets, seed=seed),
        iterations=iterations, seed=seed, **fields,
    )


def _sizes(config: trainer.TrainConfig, **extra) -> dict:
    g = config.generator
    return {"assets": g.n_assets, "iterations": config.iterations, "population": g.population,
            "window": config.window, "lstm_hidden": g.lstm_hidden,
            "eval_every": config.eval_every, "noise_scale": NOISE_SCALE, **extra}


class _LibraryInput:
    """Inputs for a library call: the default config, the split and the floor."""

    n_assets, n_days = 100, 500

    def config(self, seed: int) -> trainer.TrainConfig:
        return _train_config(self.n_assets, self.iterations, seed)

    def make_input(self, seed: int, workdir: Path):
        _, split, floor = _noisy_instance(self.n_assets, self.n_days, seed)
        return self.config(seed), split, floor


class TrainS(_LibraryInput):
    """Library `train_generator` on the criterion-05 protocol, noisy arm."""

    name = "train_s"
    iterations = 200
    # the best MSE of one training run sits 0-40% above the noise floor
    # depending on the instance, so quality is averaged over nine
    datasets = 9

    def sizes(self) -> dict:
        return _sizes(self.config(0), days=self.n_days, datasets=self.datasets)

    def job(self, inp, out: Path):
        config, split, _ = inp
        run = trainer.train_generator(config, split)
        trainer.save_checkpoint(run.best_checkpoint, out / trainer.CHECKPOINT_BEST)
        return run

    def judge(self, inp, run, out: Path) -> Outcome:
        _, _, floor = inp
        outcome = Outcome(attempted=1)
        outcome.best_mse = run.best_validation_mse
        outcome.ratio = run.best_validation_mse / floor
        outcome.artifact_bytes = _tree_bytes(out)
        on_simplex = all(
            r.report.ensemble_weights.min() >= 0.0
            and abs(r.report.ensemble_weights.sum() - 1.0) <= 1e-9
            for r in run.evals
        )
        outcome.check(on_simplex, "an ensemble weight row is off the simplex")
        bagging = all(
            r.report.ensemble_mse <= r.report.mean_sub_mse * (1.0 + 1e-12) for r in run.evals
        )
        outcome.check(bagging, "ensemble_mse exceeds mean_sub_mse")
        outcome.check(len(run.evals) == self.iterations, f"{len(run.evals)} validations")
        return outcome


class PipelineWide:
    """The CLI: train half, resume to the full count, eval the best checkpoint."""

    name = "pipeline_wide"
    # checkpoint and CSV I/O is the point, so training stays short and a
    # run covers eight instances; at this width validation error after 40
    # iterations spans 1.0-1.6x the floor, after 100 it spans 1.0-2.9x
    n_assets, n_days, iterations = 500, 1000, 40
    datasets = 8

    def sizes(self) -> dict:
        # the CLI resolves the library defaults plus the run.config below
        config = _train_config(self.n_assets, self.iterations, 0, eval_every=self.iterations)
        return _sizes(config, days=self.n_days, resume_at=self.iterations // 2,
                      datasets=self.datasets)

    def make_input(self, seed: int, workdir: Path):
        panel, _, floor = _noisy_instance(self.n_assets, self.n_days, seed)
        workdir.mkdir(parents=True, exist_ok=True)
        prices = workdir / "prices.csv"
        marketdata.write_prices(marketdata.panel_to_prices(panel, index_name="INDEX"), prices)
        config = workdir / "run.config"
        config.write_text(f"eval_every = {self.iterations}\n")
        return prices, config, seed, floor

    def job(self, inp, out: Path):
        prices, config, seed, _ = inp
        common = ["--data", str(prices), "--config", str(config), "--seed", str(seed)]
        steps = [
            ["train", *common, "--out", str(out / "half"),
             "--iterations", str(self.iterations // 2)],
            ["train", *common, "--out", str(out / "full"),
             "--iterations", str(self.iterations),
             "--resume", str(out / "half" / trainer.CHECKPOINT_FINAL)],
            ["eval", str(out / "full" / trainer.CHECKPOINT_BEST),
             "--data", str(prices), "--out", str(out / "eval")],
        ]
        results = []
        for argv in steps:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = cli.main(argv)
            results.append((code, printed.getvalue()))
            if code != 0:
                break
        return results

    def judge(self, inp, results, out: Path) -> Outcome:
        *_, floor = inp
        outcome = Outcome(attempted=3)
        outcome.failed = 3 - sum(code == 0 for code, _ in results)
        if outcome.failed:
            outcome.problems.append(f"cli exit codes {[code for code, _ in results]}")
            return outcome
        resumed, scored = results[1][1], results[2][1]
        resumed_best = dict(item.split("=", 1) for item in resumed.split())["best_validation_mse"]
        evaluated = scored.strip().split("=", 1)[1]
        report = dict(
            line.split("=", 1) for line in (out / "eval" / "report.txt").read_text().split()
        )
        outcome.check(
            float(evaluated) == float(resumed_best) and report["ensemble_mse"] == resumed_best,
            f"eval ensemble_mse {evaluated} != resumed best_validation_mse {resumed_best}",
        )
        outcome.best_mse = float(evaluated)
        outcome.ratio = outcome.best_mse / floor
        outcome.artifact_bytes = _tree_bytes(out)
        return outcome


class Compare(_LibraryInput):
    """`compare_optimizers`: nine gradient rules, CMA-ES and the generator."""

    name = "compare"
    iterations = 100
    datasets = 3
    rows = len(optim.GRADIENT_KINDS) + 2

    def sizes(self) -> dict:
        return _sizes(self.config(0), days=self.n_days, runs=self.rows, datasets=self.datasets)

    def job(self, inp, out: Path):
        config, split, _ = inp
        result = trainer.compare_optimizers(config, split)
        # the table is the deliverable; per-run directories are not written
        trainer.save_comparison(trainer.ComparisonResult(rows=result.rows, artifacts={}), out)
        return result

    def judge(self, inp, result, out: Path) -> Outcome:
        *_, floor = inp
        outcome = Outcome(attempted=self.rows)
        failed = [row.optimizer for row in result.rows if row.status != "ok"]
        outcome.failed = len(failed) + max(0, self.rows - len(result.rows))
        if outcome.failed:
            outcome.problems.append(f"{len(result.rows)} rows, failed: {failed}")
        outcome.artifact_bytes = _tree_bytes(out)
        if result.rows and result.rows[0].status == "ok":  # failed rows sort last
            outcome.best_mse = result.rows[0].best_validation_mse
            outcome.ratio = outcome.best_mse / floor
        return outcome


WORKLOADS = {w.name: w for w in (TrainS(), PipelineWide(), Compare())}


def run_jobs(workload, inputs, work: Path, seconds: float, min_jobs: int, label: str,
             after_job=None):
    """Closed loop of one job at a time, cycling through the input sets.

    Runs at least `min_jobs` jobs and keeps going until `seconds` have
    passed.  Only the job itself is timed; its outputs are judged and
    deleted after the clock stops, and then `after_job`, if given, is called.
    """
    times, outcomes = [], []
    loop_start = time.perf_counter()
    while len(times) < min_jobs or time.perf_counter() - loop_start < seconds:
        n = len(times)
        inp = inputs[n % len(inputs)]
        out = work / f"{label}-{n}"
        out.mkdir(parents=True)
        gc.collect()
        began = time.perf_counter()
        try:
            produced = workload.job(inp, out)
        except Exception:  # a raised job is a failed operation, not a crash
            times.append(time.perf_counter() - began)
            outcome = Outcome(attempted=1, failed=1, problems=[traceback.format_exc()])
        else:
            times.append(time.perf_counter() - began)
            outcome = workload.judge(inp, produced, out)
        shutil.rmtree(out)
        outcomes.append(outcome)
        if after_job:
            after_job()
    return times, outcomes


def same_results(outcomes, reference, what: str) -> Outcome:
    """Bit-for-bit equality of each job's best MSE with its input's first job."""
    check = Outcome()
    for n, outcome in enumerate(outcomes):
        expected = reference[n % len(reference)].best_mse
        check.check(
            outcome.best_mse.hex() == expected.hex(),
            f"{what} job {n}: best MSE {outcome.best_mse!r} != {expected!r}",
        )
    return check
