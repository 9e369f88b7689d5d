"""Training orchestration: seeding, loops, checkpoints and comparisons.

A master seed expands into independent sub-streams (noise, windows,
corruption, initialisation, evaluation) so that changing one consumer
never perturbs the others.  Checkpoints are a versioned JSON document
carrying the configuration, all parameter and optimizer arrays, the
recurrent state, the random-stream positions and the fixed evaluation
noise: loading one and resuming is bit-identical to the uninterrupted
run.  Every float64 array is stored as the base64 of its raw
little-endian bytes, so a checkpoint holds each value exactly and decodes
without parsing decimals.  Wall-clock timings are recorded but excluded
from artifact comparisons.
"""
from __future__ import annotations

import base64
import csv
import enum
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import diffcore as dc
from . import ensemble as ens
from . import generator as gen
from . import objective as obj
from .marketdata import DataError, ReturnPanel, SplitPanels, sample_window, write_text
from .optim import (
    BASELINE_HYPER,
    GENERATOR_HYPER,
    GRADIENT_KINDS,
    Hyper,
    OptimError,
    OptimizerKind,
    OptimizerState,
    cmaes_run,
    init_state,
    step,
)

__all__ = [
    "TrainError",
    "TrainConfig",
    "EvalRecord",
    "RunArtifacts",
    "ComparisonRow",
    "ComparisonResult",
    "CHECKPOINT_VERSION",
    "train_generator",
    "train_baseline",
    "compare_optimizers",
    "FlatKey",
    "FLAT_KEYS",
    "DATA_KEYS",
    "config_to_flat",
    "config_from_flat",
    "checkpoint_population",
    "save_checkpoint",
    "load_checkpoint",
    "save_run",
    "save_comparison",
    "format_value",
    "write_rows",
]

CHECKPOINT_VERSION = 2
# Version 1 stored arrays as decimal JSON lists; it is still read.
_READABLE_VERSIONS = (1, CHECKPOINT_VERSION)

RUN_CONFIG = "run.config"
LOSS_CSV = "loss.csv"
EVAL_CSV = "eval.csv"
TIMING_CSV = "timing.csv"
CHECKPOINT_FINAL = "checkpoint.final"
CHECKPOINT_BEST = "checkpoint.best"
TABLE_CSV = "table.csv"
FAILURES_CSV = "failures.csv"


class TrainError(RuntimeError):
    """A numerical failure inside a run: a non-finite value or a refused step."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything one run needs besides the data itself."""

    generator: gen.GeneratorConfig
    loss: obj.LossConfig = obj.LossConfig()
    optimizer: OptimizerKind = OptimizerKind.ADAMW
    hyper: Hyper = GENERATOR_HYPER
    iterations: int = 50
    window: int = 252
    seed: int = 0
    eval_seed: int | None = None
    eval_every: int = 1
    bag_mode: str = "sparsify_rows"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.eval_every < 1:
            raise ValueError("evaluation cadence must be at least 1")
        if self.bag_mode not in ens.BAG_MODES:
            raise ValueError(f"unknown bag mode {self.bag_mode!r}")
        if OptimizerKind(self.optimizer) is OptimizerKind.CMAES:
            raise ValueError("the generator is trained with a gradient rule, not cmaes")
        for name in ("seed", "eval_seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True)
class EvalRecord:
    iteration: int
    report: ens.EvalReport


@dataclass
class RunArtifacts:
    """In-memory result of one run; `save_run` writes the on-disk layout."""

    config: dict
    losses: list[obj.LossReport]
    evals: list[EvalRecord]
    best_iteration: int
    best_validation_mse: float
    final_checkpoint: dict
    best_checkpoint: dict
    evaluations_used: int
    wall_clock: list[float]
    start_iteration: int = 0


@dataclass(frozen=True)
class ComparisonRow:
    optimizer: str
    status: str
    best_validation_mse: float
    evaluations_used: int
    seed: int
    error: str = ""


@dataclass
class ComparisonResult:
    rows: list[ComparisonRow]
    artifacts: dict[str, RunArtifacts]


# --------------------------------------------------------------------------
# configuration <-> flat mapping
#
# The config dataclasses are the schema: each flat key is one field of
# TrainConfig or of its generator/loss/hyper sections, with that field's
# type and default.  Only what the fields cannot say is written here.

_RENAMED = {"diversity_weight": "lambda", "corruption_enabled": "corruption"}
# Unset by default: the run's role picks the rate (GENERATOR_HYPER for the
# generator, BASELINE_HYPER for the baselines).
_UNSET_BY_DEFAULT = {"learning_rate"}
_BOOL_WORDS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
               **dict.fromkeys(("false", "no", "off", "0"), False)}


@dataclass(frozen=True)
class FlatKey:
    """One flat configuration key: its values and where it lives in TrainConfig."""

    name: str
    type: type           # int, float, bool, str or OptimizerKind
    optional: bool       # None is a valid value in TrainConfig
    default: object      # in flat form; MISSING when the key has none (n_assets)
    section: str | None = None  # the TrainConfig field holding the key; None: TrainConfig itself
    field: str | None = None    # None: a data key, outside TrainConfig

    def parse(self, value):
        """This key's value from config-file text or from a checkpoint's JSON.

        Blank text or null leaves a key that is unset by default unset.
        """
        text = value.strip() if isinstance(value, str) else value
        if text in (None, "") and self.default is None:
            return None
        try:
            if self.type is bool:
                return _BOOL_WORDS[str(text).lower()]
            return self.type(text)
        except (KeyError, TypeError, ValueError):
            raise DataError(f"bad value for configuration key {self.name}: {value!r}") from None


# Keys besides TrainConfig's: how a price CSV becomes the train/validation split.
DATA_KEYS = {
    "train_fraction": FlatKey("train_fraction", float, optional=False, default=0.8),
    "index_column": FlatKey("index_column", str, optional=False, default="INDEX"),
}


def _flat_value(value):
    return value.value if isinstance(value, enum.Enum) else value


_SECTIONS = {
    name: hint for name, hint in get_type_hints(TrainConfig).items() if is_dataclass(hint)
}


def _flat_keys() -> dict[str, FlatKey]:
    keys = {}
    for section, cls in [(None, TrainConfig), *_SECTIONS.items()]:
        hints = get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            if is_dataclass(hint) or (section, f.name) == ("generator", "seed"):
                continue  # a section of its own; the generator's seed is the run seed
            name = _RENAMED.get(f.name, f.name)
            types = [t for t in get_args(hint) if t is not type(None)]
            keys[name] = FlatKey(
                name=name,
                type=types[0] if types else hint,
                optional=len(types) < len(get_args(hint)),
                default=None if name in _UNSET_BY_DEFAULT else _flat_value(f.default),
                section=section,
                field=f.name,
            )
    return keys


FLAT_KEYS = _flat_keys()


def config_to_flat(config: TrainConfig) -> dict:
    return {
        name: _flat_value(getattr(getattr(config, key.section) if key.section else config, key.field))
        for name, key in FLAT_KEYS.items()
    }


def config_from_flat(flat: dict) -> TrainConfig:
    missing = [name for name in FLAT_KEYS if name not in flat]
    if missing:
        raise DataError(f"configuration lacks key: {', '.join(missing)}")
    values: dict = {None: {}, **{section: {} for section in _SECTIONS}}
    for name, key in FLAT_KEYS.items():
        value = key.parse(flat[name])
        if value is None and not key.optional:
            raise DataError(f"configuration key {name} is unset")
        values[key.section][key.field] = value
    top = values.pop(None)
    values["generator"]["seed"] = top["seed"]
    try:
        sections = {section: cls(**values[section]) for section, cls in _SECTIONS.items()}
        return TrainConfig(**top, **sections)
    except ValueError as e:
        raise DataError(f"invalid configuration: {e}") from None


# --------------------------------------------------------------------------
# checkpoint (de)serialisation

def pack_array(arr: np.ndarray) -> dict:
    """A float64 array as its shape and the base64 of its C-order little-endian bytes."""
    arr = np.asarray(arr, dtype=np.float64)
    raw = arr.astype("<f8", copy=False).tobytes()
    return {"shape": list(arr.shape), "f64le": base64.b64encode(raw).decode("ascii")}


def unpack_array(blob: dict | list) -> np.ndarray:
    """The float64 array `pack_array` stored, or a version-1 list or shape/data pair."""
    try:
        if isinstance(blob, list):  # version 1: generator params, baseline logits
            return np.asarray(blob, dtype=np.float64)
        shape = [int(n) for n in blob["shape"]]
        if "data" in blob:  # version 1
            return np.asarray(blob["data"], dtype=np.float64).reshape(shape)
        raw = base64.b64decode(blob["f64le"], validate=True)
    except KeyError as e:
        raise DataError(f"stored array lacks field {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"malformed stored array: {e}") from None
    if min(shape, default=0) < 0 or len(raw) != 8 * math.prod(shape):
        raise DataError(f"stored array of shape {shape} holds {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _unpack_as(blob: dict | list, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The stored array `name`, which the configuration gives `shape`."""
    try:
        arr = unpack_array(blob)
    except DataError as e:
        raise DataError(f"{name}: {e}") from None
    if isinstance(blob, list) and arr.size == math.prod(shape):
        arr = arr.reshape(shape)  # version 1 stored parameters flat
    if arr.shape != tuple(shape):
        raise DataError(
            f"stored array {name} has shape {list(arr.shape)}, its configuration gives {list(shape)}"
        )
    if not np.isfinite(arr).all():
        raise DataError(f"stored array {name} holds non-finite values")
    return arr


def save_checkpoint(payload: dict, path: str | Path) -> None:
    write_text(path, json.dumps(payload, sort_keys=True))


# The top-level fields of each kind of checkpoint; nested fields are
# checked where they are decoded.
_CHECKPOINT_FIELDS = {
    "generator": ("config", "iteration", "params", "state", "optimizer", "rng", "eval_noise", "best"),
    "baseline": ("config", "iteration", "logits", "best"),
}


def load_checkpoint(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"no such checkpoint: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"unreadable checkpoint {path}: {e}") from None
    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path} is not a JSON object")
    version = payload.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise DataError(
            f"unsupported checkpoint format_version {version!r} (expected one of {_READABLE_VERSIONS})"
        )
    missing = [name for name in _CHECKPOINT_FIELDS.get(payload.get("kind"), ()) if name not in payload]
    if missing:
        raise DataError(f"checkpoint {path} lacks field: {', '.join(missing)}")
    return payload


# --------------------------------------------------------------------------
# generator run state

# The random streams a run draws from on every iteration.  The run seed's
# other two children, initialisation and evaluation noise, are spent at
# iteration 0.
_CARRIED_STREAMS = ("noise", "windows", "corruption")


def _rng_from_state(state: dict) -> np.random.Generator:
    bit = np.random.PCG64()
    bit.state = state
    return np.random.Generator(bit)


@dataclass(frozen=True)
class _Snapshot:
    """A generator run's whole state after `iteration` iterations.

    The fields are references, not copies: `step` and `gen.forward` return
    fresh arrays, so a snapshot kept as the best is never overwritten.
    """

    iteration: int
    theta: np.ndarray  # the flat parameter vector, in PARAM_ORDER
    state: gen.GeneratorState
    optimizer: OptimizerState
    rng: dict  # bit-generator state of each carried stream
    eval_noise: np.ndarray
    best_iteration: int = 0
    best_mse: float = float("inf")

    @classmethod
    def start(cls, config: TrainConfig) -> "_Snapshot":
        """Iteration 0, drawn from independent children of the run seed."""
        *carried, init, evaluation = np.random.SeedSequence(config.seed).spawn(5)
        if config.eval_seed is not None:
            evaluation = np.random.SeedSequence(config.eval_seed)
        return cls(
            iteration=0,
            theta=gen.init_params(config.generator, np.random.default_rng(init)).flatten(),
            state=gen.GeneratorState.zeros(config.generator),
            optimizer=init_state(config.optimizer, config.generator.parameter_count, config.hyper),
            rng={name: np.random.PCG64(seq).state for name, seq in zip(_CARRIED_STREAMS, carried)},
            eval_noise=gen.sample_noise(config.generator, np.random.default_rng(evaluation)),
        )

    def encode(self, config: TrainConfig, best_state: dict | None = None) -> dict:
        """The checkpoint document; `best_state` is nested when given."""
        params = gen.GeneratorParams.from_flat(config.generator, self.theta)
        payload = {
            "format_version": CHECKPOINT_VERSION,
            "kind": "generator",
            "config": config_to_flat(config),
            "iteration": self.iteration,
            "params": {name: pack_array(arr) for name, arr in params.as_dict().items()},
            "state": {
                "h": pack_array(self.state.h),
                "c": pack_array(self.state.c),
                "iteration": self.state.iteration,
            },
            "optimizer": {
                "kind": self.optimizer.kind.value,
                "step": self.optimizer.step,
                "arrays": {name: pack_array(arr) for name, arr in self.optimizer.arrays.items()},
            },
            "rng": self.rng,
            "eval_noise": pack_array(self.eval_noise),
            "best": {"iteration": self.best_iteration, "validation_mse": self.best_mse},
        }
        if best_state is not None:
            payload["best_state"] = best_state
        return payload

    @classmethod
    def decode(cls, payload: dict, config: TrainConfig) -> "_Snapshot":
        """Read a checkpoint document of any readable version.

        Every array is checked against `config`, the configuration already parsed from it.
        """
        try:
            sizes = config.generator
            rows = (sizes.population, sizes.lstm_hidden)
            kind = OptimizerKind(config.optimizer)
            blob = payload["optimizer"]
            if blob["kind"] != kind.value:
                raise DataError(f"optimizer state is for {blob['kind']!r}, not {kind.value}")
            initial = init_state(kind, sizes.parameter_count, config.hyper)
            return cls(
                iteration=int(payload["iteration"]),
                theta=np.concatenate([
                    _unpack_as(payload["params"][name], f"params.{name}", shape).ravel()
                    for name, shape in gen.param_shapes(sizes).items()
                ]),
                state=gen.GeneratorState(
                    h=_unpack_as(payload["state"]["h"], "state.h", rows),
                    c=_unpack_as(payload["state"]["c"], "state.c", rows),
                    iteration=int(payload["state"]["iteration"]),
                ),
                optimizer=OptimizerState(
                    kind=kind,
                    step=int(blob["step"]),
                    arrays={
                        name: _unpack_as(blob["arrays"][name], f"optimizer.{name}", arr.shape)
                        for name, arr in initial.arrays.items()
                    },
                ),
                rng={  # a state numpy refuses is refused here, not mid-run
                    name: _rng_from_state(payload["rng"][name]).bit_generator.state
                    for name in _CARRIED_STREAMS
                },
                eval_noise=_unpack_as(
                    payload["eval_noise"], "eval_noise", (sizes.population, sizes.noise_dim)
                ),
                best_iteration=int(payload["best"]["iteration"]),
                best_mse=float(payload["best"]["validation_mse"]),
            )
        except KeyError as e:
            raise DataError(f"checkpoint lacks field {e}") from None
        except DataError:
            raise
        except (TypeError, ValueError) as e:
            raise DataError(f"malformed checkpoint: {e}") from None


def checkpoint_population(payload: dict, eval_seed: int | None) -> tuple[TrainConfig, gen.Population]:
    """A checkpoint's configuration and the population it scores.

    That is the generator's evaluation pass on its stored noise (on fresh
    noise from `eval_seed` if given), or the sparsemax of a baseline's logits.
    """
    kind = payload.get("kind")
    if kind not in _CHECKPOINT_FIELDS:
        raise DataError(f"checkpoint kind {kind!r} is not scoreable")
    config = config_from_flat(payload["config"])
    if kind == "baseline":
        logits = _unpack_as(payload["logits"], "logits", (config.generator.n_assets,))
        return config, gen.sparse_population(logits)
    snapshot = _Snapshot.decode(payload, config)
    noise = snapshot.eval_noise
    if eval_seed is not None:
        noise = gen.sample_noise(config.generator, np.random.default_rng(eval_seed))
    params = gen.GeneratorParams.from_flat(config.generator, snapshot.theta)
    return config, gen.forward(params, snapshot.state, noise, mode="eval").population


def _resume_from(config: TrainConfig, resume: dict) -> tuple[_Snapshot, _Snapshot]:
    """The checkpoint's snapshot and its best, once it is known to continue `config`."""
    if resume.get("kind") != "generator":
        raise DataError("checkpoint does not describe a generator run")
    saved = config_from_flat(resume["config"])
    current, stored = config_to_flat(config), config_to_flat(saved)
    mismatched = [k for k in current if k != "iterations" and current[k] != stored[k]]
    if mismatched:
        raise DataError(f"checkpoint configuration differs on: {', '.join(sorted(mismatched))}")
    start = _Snapshot.decode(resume, saved)
    if start.iteration >= config.iterations:
        raise DataError(
            f"checkpoint is at iteration {start.iteration}, "
            f"nothing to do before {config.iterations}"
        )
    if "best_state" in resume:
        return start, _Snapshot.decode(resume["best_state"], saved)
    if start.best_iteration == start.iteration:  # a checkpoint.best, or a final at its best
        return start, start
    raise DataError(f"checkpoint lacks best_state for its best iteration {start.best_iteration}")


# --------------------------------------------------------------------------
# the bookkeeping every run shares

class _RunRecord:
    """One run's losses, validation cadence, best iteration and timings."""

    def __init__(self, config: TrainConfig, validation: ReturnPanel,
                 best_iteration: int = 0, best_mse: float = float("inf")):
        self.config, self.validation = config, validation
        self.best_iteration, self.best_mse = best_iteration, best_mse  # a resumed snapshot's best
        self.losses, self.evals, self.wall_clock = [], [], []  # LossReport, EvalRecord, seconds

    def record(self, i: int, loss: obj.LossReport, population, started: float) -> bool:
        """Keep iteration `i`; validate `population()` on the cadence.  True at a new best.

        `started` is the `time.monotonic()` at which the iteration began.
        """
        self.losses.append(loss)
        best = False
        if i % self.config.eval_every == 0 or i == self.config.iterations:
            report = ens.evaluate_population(
                population(), self.validation, bag_mode=self.config.bag_mode
            )
            self.evals.append(EvalRecord(iteration=i, report=report))
            best = report.ensemble_mse < self.best_mse
            if best:
                self.best_iteration, self.best_mse = i, report.ensemble_mse
        self.wall_clock.append(time.monotonic() - started)
        return best

    def artifacts(self, final_checkpoint: dict, best_checkpoint: dict,
                  evaluations_used: int, start_iteration: int = 0) -> RunArtifacts:
        return RunArtifacts(
            config=config_to_flat(self.config), losses=self.losses, evals=self.evals,
            best_iteration=self.best_iteration, best_validation_mse=self.best_mse,
            final_checkpoint=final_checkpoint, best_checkpoint=best_checkpoint,
            evaluations_used=evaluations_used, wall_clock=self.wall_clock,
            start_iteration=start_iteration,
        )


# --------------------------------------------------------------------------
# generator training

def train_generator(
    config: TrainConfig,
    data: SplitPanels,
    resume: dict | None = None,
) -> RunArtifacts:
    """Meta-train the generator and validate its ensemble every few steps.

    Per iteration: draw one shared window from the training panel, one
    noise batch, evaluate the corrupted training objective, backpropagate,
    apply the configured rule to the flat parameter vector, then carry the
    detached recurrent state forward.  On the evaluation cadence the
    population produced from the fixed evaluation noise is bagged and
    scored on the validation panel.
    """
    if data.train.n_assets != config.generator.n_assets:
        raise DataError(
            f"config expects {config.generator.n_assets} assets, data has {data.train.n_assets}"
        )
    kind = OptimizerKind(config.optimizer)
    if resume is None:
        start, best = _Snapshot.start(config), None
    else:
        start, best = _resume_from(config, resume)
    theta, state, opt_state = start.theta, start.state, start.optimizer
    rngs = {name: _rng_from_state(rng_state) for name, rng_state in start.rng.items()}
    run = _RunRecord(config, data.validation, start.best_iteration, start.best_mse)

    def snapshot(i: int) -> _Snapshot:
        rng_states = {name: rng.bit_generator.state for name, rng in rngs.items()}
        return _Snapshot(
            i, theta, state, opt_state, rng_states, start.eval_noise, run.best_iteration, run.best_mse
        )

    params = gen.GeneratorParams.from_flat(config.generator, theta)
    for i in range(start.iteration + 1, config.iterations + 1):
        t0 = time.monotonic()
        try:
            window = sample_window(data.train, config.window, rngs["windows"])
            noise = gen.sample_noise(config.generator, rngs["noise"])
            result = obj.total_loss(
                params, state, noise, window, config.loss, rngs["corruption"]
            )
            dc.backward(result.loss)
            grads = np.concatenate([result.param_nodes[name].grad.ravel() for name in gen.PARAM_ORDER])
            theta, opt_state = step(kind, theta, grads, opt_state, config.hyper)
            params, state = gen.GeneratorParams.from_flat(config.generator, theta), result.new_state
            if run.record(i, result.report,
                          lambda: gen.forward(params, state, start.eval_noise, mode="eval").population,
                          t0):
                best = snapshot(i)
        except (dc.NonFiniteError, OptimError) as e:
            raise TrainError(f"iteration {i}: {e}") from e

    # set by now: a resumed run starts from its best, and a fresh one validates its
    # last iteration, whose finite MSE beats the initial inf
    best_checkpoint = best.encode(config)
    final_checkpoint = (best_checkpoint if best.iteration == config.iterations  # its own best
                        else snapshot(config.iterations).encode(config, best_checkpoint))
    return run.artifacts(
        final_checkpoint, best_checkpoint,
        evaluations_used=config.generator.population * config.iterations,
        start_iteration=start.iteration,
    )


# --------------------------------------------------------------------------
# baselines

def _baseline_payload(config: TrainConfig, kind: OptimizerKind, iteration: int,
                      logits: np.ndarray, run: _RunRecord, best_logits: np.ndarray) -> dict:
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": "baseline",
        "optimizer": kind.value,
        "config": config_to_flat(config),
        "iteration": iteration,
        "logits": pack_array(logits),
        "best": {
            "iteration": run.best_iteration,
            "validation_mse": run.best_mse,
            "logits": pack_array(best_logits),
        },
    }


def train_baseline(kind: OptimizerKind, config: TrainConfig, data: SplitPanels) -> RunArtifacts:
    """Directly optimise one logits vector on the full training panel.

    No windows, no corruption and no diversity term: the baseline sees the
    plain tracking MSE of its softmax weights.  Validation applies
    sparsemax to the current logits, mirroring the generator's evaluation
    head.  CMA-ES treats the same training loss as a black box with the
    generator's population size, keeping evaluation budgets comparable.
    """
    kind = OptimizerKind(kind)
    n = data.train.n_assets
    run = _RunRecord(config, data.validation)
    best_logits = np.zeros(n)

    def record(i: int, logits: np.ndarray, mse: float, started: float) -> None:
        nonlocal best_logits
        loss = obj.LossReport(tracking_mse=mse, max_corr=0.0, total=mse, window_start=0)
        if run.record(i, loss, lambda: gen.sparse_population(logits), started):
            best_logits = logits.copy()

    if kind is OptimizerKind.CMAES:
        returns = data.train.returns
        index = data.train.index_returns

        def objective(v: np.ndarray) -> float:
            shifted = v - v.max()
            e = np.exp(shifted)
            w = e / e.sum()
            deviation = returns @ w - index
            return float(np.mean(deviation * deviation))

        seed = int(np.random.SeedSequence(config.seed).generate_state(1)[0])
        result = cmaes_run(
            objective,
            dim=n,
            popsize=config.generator.population,
            iterations=config.iterations,
            seed=seed,
            sigma0=config.hyper.cmaes_sigma0,
        )
        for g in result.generations:  # timed as the generation's own work plus its validation
            record(g.generation, g.best_x, g.best_f, time.monotonic() - g.seconds)
        logits = result.generations[-1].best_x
        evaluations_used = result.evaluations
    else:
        logits = np.zeros(n)
        opt_state = init_state(kind, n, config.hyper)
        for i in range(1, config.iterations + 1):
            t0 = time.monotonic()
            try:
                leaf = dc.Node(logits.copy(), op="logits")
                weights = dc.softmax(dc.reshape(leaf, (1, n)))
                series = obj.portfolio_returns(weights, data.train)
                loss = obj.tracking_loss(series, data.train.index_returns)
                dc.backward(loss)
                logits, opt_state = step(kind, logits, leaf.grad, opt_state, config.hyper)
                record(i, logits, float(loss.value), t0)
            except (dc.NonFiniteError, OptimError) as e:
                raise TrainError(f"iteration {i}: {e}") from e
        evaluations_used = config.iterations

    art = run.artifacts(
        _baseline_payload(config, kind, config.iterations, logits, run, best_logits),
        _baseline_payload(config, kind, run.best_iteration, best_logits, run, best_logits),
        evaluations_used=evaluations_used,
    )
    art.config["optimizer"] = kind.value  # a CMA-ES config holds a gradient rule in its place
    return art


# --------------------------------------------------------------------------
# comparison harness

def _compare_task(config: TrainConfig, data: SplitPanels, kind: OptimizerKind | None,
                  run_seed: int, baseline_rate: float) -> RunArtifacts:
    """One run of `compare_optimizers`: baseline `kind`, or the generator when None."""
    if kind is None:
        return train_generator(replace(config, seed=run_seed), data)
    baseline_config = replace(
        config,
        seed=run_seed,
        hyper=replace(config.hyper, learning_rate=baseline_rate),
        optimizer=OptimizerKind.ADAMW if kind is OptimizerKind.CMAES else kind,
    )
    return train_baseline(kind, baseline_config, data)


def _start_worker(parent: int) -> None:
    """`compare_optimizers`' worker set-up: one BLAS thread, and end with the parent.

    The workers already fill every usable CPU; OpenBLAS's own threads, one
    per CPU in each worker, made a compare 1.7-3.1x slower than one process.
    A worker ends at Ctrl-C, as its caller does, and on Linux when its caller
    is killed: otherwise a killed `compare` leaves forked workers blocked on
    the task queue for good.
    """
    import ctypes
    import signal

    # Ctrl-C reaches the whole process group; a caller that ignores it keeps its workers
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    if sys.platform == "linux":
        with open("/proc/self/maps") as maps:  # the OpenBLAS numpy loaded, if any
            blas = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
        for path in blas:
            lib = ctypes.CDLL(path)
            for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
                if hasattr(lib, name):
                    getattr(lib, name)(1)
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG: killed when the parent ends
        if os.getppid() != parent:  # it ended before prctl took effect
            os._exit(1)


def _in_workers(runs: list, order: list[int], workers: int) -> list:
    """Start each of `runs`, picklable calls, in `workers` worker processes.

    Workers take the runs in `order`. Returns, in the order of `runs`, a call
    that gives each one's result or raises its error; a run whose worker died
    raises `BrokenProcessPool`. No worker is left when this returns or raises.
    """
    # Imported here, not at module level: only this function starts processes,
    # and every other entry point would pay their import time and memory.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    # fork: the workers inherit the imported package instead of importing it again
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    others = set(multiprocessing.active_children())
    pool = ProcessPoolExecutor(workers, mp_context=context,
                               initializer=_start_worker, initargs=(os.getpid(),))
    try:
        futures = {idx: pool.submit(runs[idx]) for idx in order}
        wait(futures.values())
    except BaseException:  # an interrupt ends the running runs too, not only the queued ones
        pool.shutdown(wait=False, cancel_futures=True)
        for worker in set(multiprocessing.active_children()) - others:
            worker.kill()
        raise
    pool.shutdown()
    return [futures[idx].result for idx in range(len(runs))]


def compare_optimizers(
    config: TrainConfig,
    data: SplitPanels,
    kinds: tuple[OptimizerKind, ...] | list[OptimizerKind] = GRADIENT_KINDS + (OptimizerKind.CMAES,),
    baseline_rate: float = BASELINE_HYPER.learning_rate,
) -> ComparisonResult:
    """Run every requested baseline plus the proposed method.

    Each run gets its own seed derived from the master seed and its task
    index.  The baselines run at `config.hyper` with `baseline_rate` as
    their learning rate.  The runs are independent, so where more than one
    CPU is usable they run in worker processes, one per CPU at most, each
    on one BLAS thread; on one CPU each runs here.  Either way a run computes
    what it would in a process on one CPU.  A failed run, or one whose worker
    died, is recorded as failed with its error message, never dropped.  Rows
    are sorted by best validation MSE, failures last.
    """
    ordered = list(dict.fromkeys(OptimizerKind(kind) for kind in kinds))
    tasks = [*ordered, None]  # None: the proposed generator
    seeds = [int(np.random.SeedSequence([config.seed, idx]).generate_state(1)[0])
             for idx in range(len(tasks))]
    runs = [partial(_compare_task, config, data, kind, run_seed, baseline_rate)
            for kind, run_seed in zip(tasks, seeds)]
    # the CPUs this process may run on; not every platform can say
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if min(len(runs), cpus) > 1:
        # The generator, then CMA-ES, run longest (0.82 s and 0.41 s of the
        # 1.7 s that a 100-asset, 100-iteration compare takes in one process).
        # Started first, they do not end the call alone after the short runs:
        # on two CPUs that compare took 0.71 s against 0.80 s in task order.
        order = sorted(range(len(tasks)), key=lambda idx: (tasks[idx] is not None,
                                                           tasks[idx] is not OptimizerKind.CMAES))
        runs = _in_workers(runs, order, min(len(runs), cpus))
    # on one CPU each run is called here, in task order: a worker would run
    # nothing beside this process and only add its fork and the pickling
    rows: list[ComparisonRow] = []
    artifacts: dict[str, RunArtifacts] = {}
    for kind, run_seed, run in zip(tasks, seeds, runs):
        label = "proposed" if kind is None else kind.value
        try:
            art = run()
        except Exception as e:  # a failed run, or a dead worker, is recorded, not raised
            rows.append(
                ComparisonRow(
                    optimizer=label, status="failed",
                    best_validation_mse=float("nan"),
                    evaluations_used=0, seed=run_seed, error=f"{type(e).__name__}: {e}",
                )
            )
            continue
        artifacts[label] = art
        rows.append(
            ComparisonRow(
                optimizer=label, status="ok",
                best_validation_mse=art.best_validation_mse,
                evaluations_used=art.evaluations_used, seed=run_seed,
            )
        )
    rows.sort(key=lambda r: (r.status != "ok", r.best_validation_mse if r.status == "ok" else 0.0, r.optimizer))
    return ComparisonResult(rows=rows, artifacts=artifacts)


# --------------------------------------------------------------------------
# on-disk artifacts

def format_value(value) -> str:
    """Render one configuration or CSV value deterministically."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's own repr names its type
    return str(value)


def write_config(flat: dict, path: str | Path) -> None:
    """Sorted `key=value` lines: a run.config, or eval's report.txt."""
    write_text(path, "".join(f"{key}={format_value(flat[key])}\n" for key in sorted(flat)))


def write_rows(path: str | Path, header: list[str], rows) -> None:
    """A CSV file: the header, then one line of `format_value` cells per row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(format_value, row) for row in rows)
    write_text(path, buffer.getvalue())


def save_run(artifacts: RunArtifacts, out_dir: str | Path) -> None:
    """Write the run directory: config, curves, checkpoints, timings."""
    out = Path(out_dir)
    first = artifacts.start_iteration + 1
    write_config(artifacts.config, out / RUN_CONFIG)
    write_rows(out / LOSS_CSV, ["iteration", "tracking_mse", "max_corr", "total"], (
        (i, r.tracking_mse, r.max_corr, r.total) for i, r in enumerate(artifacts.losses, first)
    ))
    write_rows(out / EVAL_CSV, ["iteration", "ensemble_mse", "mean_sub_mse", "max_corr"], (
        (e.iteration, e.report.ensemble_mse, e.report.mean_sub_mse, e.report.max_corr)
        for e in artifacts.evals
    ))
    write_rows(out / TIMING_CSV, ["iteration", "seconds"], (
        (i, f"{s:.6f}") for i, s in enumerate(artifacts.wall_clock, first)  # fixed width: same size every run
    ))
    save_checkpoint(artifacts.final_checkpoint, out / CHECKPOINT_FINAL)
    save_checkpoint(artifacts.best_checkpoint, out / CHECKPOINT_BEST)


def save_comparison(result: ComparisonResult, out_dir: str | Path) -> None:
    """Write table.csv (plus failures.csv when needed) and per-run artifacts."""
    out = Path(out_dir)
    write_rows(out / TABLE_CSV, ["optimizer", "best_validation_mse", "evaluations_used", "seed"], (
        (row.optimizer, row.best_validation_mse, row.evaluations_used, row.seed)
        for row in result.rows
    ))
    failures = [(r.optimizer, r.error) for r in result.rows if r.status != "ok"]
    if failures:
        write_rows(out / FAILURES_CSV, ["optimizer", "error"], failures)
    for label, art in result.artifacts.items():
        save_run(art, out / "runs" / label)
