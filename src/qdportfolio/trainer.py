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
import ctypes
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
from .marketdata import DataError, RangeError, SplitPanels, sample_window, write_text
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
        """This key's value from config-file text, a flag or a checkpoint's JSON.

        Blank text or null leaves a key that is unset by default unset.  A float
        must be finite: NaN would pass every range check its dataclass makes.
        """
        text = value.strip() if isinstance(value, str) else value
        if text in (None, "") and self.default is None:
            return None
        try:
            if self.type is bool:
                return _BOOL_WORDS[str(text).lower()]
            if isinstance(text, bool) or (self.type is int and isinstance(text, float)):
                raise TypeError  # JSON true and false are no numbers, and a fraction no count
            parsed = self.type(text)
            if self.type is float and not math.isfinite(parsed):
                raise ValueError
            return parsed
        except (KeyError, TypeError, ValueError, OverflowError):
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
        shape = blob["shape"]
        if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"shape {shape!r} is not a list of integers >= 0")
        if "data" in blob:  # version 1
            return np.asarray(blob["data"], dtype=np.float64).reshape(shape)
        raw = base64.b64decode(blob["f64le"], validate=True)
    except KeyError as e:
        raise DataError(f"stored array lacks field {e}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"malformed stored array: {e}") from None
    if len(raw) != 8 * math.prod(shape):
        raise DataError(f"stored array of shape {shape} holds {len(raw)} bytes")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _tree(kind: str, config: TrainConfig, iteration: int, best: tuple[int, float], **body) -> dict:
    """A checkpoint, arrays unpacked: `body` in every kind's envelope, `best` (iteration, MSE) last."""
    return {
        "format_version": CHECKPOINT_VERSION,
        "kind": kind,
        "config": config_to_flat(config),
        "iteration": iteration,
        **body,
        "best": {"iteration": best[0], "validation_mse": best[1]},
    }


def _packed(tree):
    """`tree` with each numpy array and numpy scalar stored by `pack_array`."""
    if isinstance(tree, dict):
        return {key: _packed(value) for key, value in tree.items()}
    return pack_array(tree) if isinstance(tree, (np.ndarray, np.generic)) else tree


def _read(doc, template, path: str = ""):
    """The stored tree `doc`, at key path `path`, read against the tree its writer builds.

    Every template key is required, and any other key is ignored.  An array must
    unpack to the template's shape with finite values, an integer be a JSON
    integer >= 0, a float a finite JSON number >= 0, and text equal the
    template's.  Returns the template's keys, holding unpacked arrays.
    """
    if isinstance(template, dict):
        if not isinstance(doc, dict):
            raise DataError(f"malformed checkpoint: {path} is not a JSON object")
        paths = {key: f"{path}.{key}".lstrip(".") for key in template}
        missing = [paths[key] for key in template if key not in doc]
        if missing:
            raise DataError(f"checkpoint lacks field: {', '.join(missing)}")
        return {key: _read(doc[key], sub, paths[key]) for key, sub in template.items()}
    if isinstance(template, np.ndarray):
        try:
            arr = unpack_array(doc)
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
        if isinstance(doc, list) and arr.size == template.size:
            arr = arr.reshape(template.shape)  # version 1 stored parameters flat
        if arr.shape != template.shape:
            raise DataError(f"stored array {path} has shape {list(arr.shape)}, "
                            f"its configuration gives {list(template.shape)}")
        if not np.isfinite(arr).all():
            raise DataError(f"stored array {path} holds non-finite values")
        return arr
    if isinstance(template, str):
        ok, expected = doc == template, repr(template)
    elif isinstance(template, int):
        ok, expected = type(doc) is int and doc >= 0, "an integer >= 0"
    else:  # a float: a JSON integer is a number too, and true and false are not
        ok = type(doc) in (int, float) and 0 <= doc <= sys.float_info.max
        expected = "a finite number >= 0"
    if not ok:
        raise DataError(f"malformed checkpoint: {path} {doc!r} is not {expected}")
    return float(doc) if isinstance(template, float) else doc


def save_checkpoint(payload: dict, path: str | Path) -> None:
    write_text(path, json.dumps(payload, sort_keys=True, allow_nan=False))


def load_checkpoint(path: str | Path) -> dict:
    """A JSON object of a readable format version; its users read the rest (`_read`)."""
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
    return payload


def _config_of(payload: dict) -> TrainConfig:
    """The configuration a checkpoint stores; its other values are read against it."""
    _read(payload, {"config": {}})  # a JSON object, whose keys config_from_flat reads
    return config_from_flat(payload["config"])


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

    def tree(self, config: TrainConfig) -> dict:
        """The generator checkpoint document with its arrays unpacked."""
        return _tree(
            "generator", config, self.iteration, (self.best_iteration, self.best_mse),
            params=gen.GeneratorParams.from_flat(config.generator, self.theta).as_dict(),
            state={"h": self.state.h, "c": self.state.c},
            optimizer={
                "kind": self.optimizer.kind.value,
                "step": self.optimizer.step,
                "arrays": self.optimizer.arrays,
            },
            rng=self.rng,
            eval_noise=self.eval_noise,
        )

    @classmethod
    def template(cls, config: TrainConfig) -> dict:
        """The tree a generator checkpoint of `config` is read against: a fresh run's."""
        return {**cls.start(config).tree(config), "config": {}}  # config: parsed already

    @classmethod
    def decode(cls, payload: dict, template: dict, path: str = "") -> "_Snapshot":
        """A generator checkpoint of any readable version, at key path `path`, read against `template`."""
        tree = _read(payload, template, path)
        rng = {}
        for name, state in tree["rng"].items():  # a state numpy refuses is refused here, not mid-run
            try:
                rng[name] = _rng_from_state(state).bit_generator.state
            except OverflowError:  # a state, inc or uinteger too large for numpy's C types
                key = f"{path}.rng.{name}".lstrip(".")
                raise DataError(f"malformed checkpoint: {key} is not a state numpy can hold") from None
        return cls(
            iteration=tree["iteration"],
            theta=np.concatenate([tree["params"][name].ravel() for name in gen.PARAM_ORDER]),
            state=gen.GeneratorState(**tree["state"]),
            optimizer=OptimizerState(OptimizerKind(tree["optimizer"]["kind"]), tree["optimizer"]["step"],
                                     tree["optimizer"]["arrays"]),
            rng=rng,
            eval_noise=tree["eval_noise"],
            best_iteration=tree["best"]["iteration"],
            best_mse=tree["best"]["validation_mse"],
        )


def checkpoint_population(payload: dict, eval_seed: int | None) -> tuple[TrainConfig, gen.Population]:
    """A checkpoint's configuration and the population it scores.

    That is the generator's evaluation pass on its stored noise (on fresh
    noise from `eval_seed` if given), or the sparsemax of a baseline's logits,
    which draws no noise and so takes no `eval_seed`.
    """
    kind = payload.get("kind")
    if kind not in ("generator", "baseline"):
        raise DataError(f"checkpoint kind {kind!r} is not scoreable")
    config = _config_of(payload)
    if kind == "baseline":
        if eval_seed is not None:
            raise RangeError(f"eval_seed {eval_seed} draws noise, and a baseline checkpoint has none")
        rule = payload.get("optimizer")
        if rule not in [k.value for k in OptimizerKind]:
            raise DataError(f"baseline checkpoint names no optimizer: {rule!r}")
        template = _tree("baseline", config, 0, (0, 0.0), optimizer=rule,
                         logits=np.zeros(config.generator.n_assets))
        logits = _read(payload, {**template, "config": {}})["logits"]  # config: parsed above
        return config, gen.sparse_population(logits)
    snapshot = _Snapshot.decode(payload, _Snapshot.template(config))
    noise = snapshot.eval_noise
    if eval_seed is not None:
        noise = gen.sample_noise(config.generator, np.random.default_rng(eval_seed))
    params = gen.GeneratorParams.from_flat(config.generator, snapshot.theta)
    return config, gen.sparse_population(gen.forward(params, snapshot.state, noise).logits.value)


def _resume_from(config: TrainConfig, resume: dict) -> tuple[_Snapshot, _Snapshot]:
    """The checkpoint's snapshot and its best, once it is known to continue `config`."""
    if resume.get("kind") != "generator":
        raise DataError(f"checkpoint kind {resume.get('kind')!r} does not describe a generator run")
    saved = _config_of(resume)
    current, stored = config_to_flat(config), config_to_flat(saved)
    mismatched = [k for k in current if k != "iterations" and current[k] != stored[k]]
    if mismatched:
        raise DataError(f"checkpoint configuration differs on: {', '.join(sorted(mismatched))}")
    template = _Snapshot.template(saved)
    start = _Snapshot.decode(resume, template)
    if start.iteration >= config.iterations:
        raise DataError(
            f"checkpoint is at iteration {start.iteration}, "
            f"nothing to do before {config.iterations}"
        )
    if "best_state" in resume:
        return start, _Snapshot.decode(resume["best_state"], template, "best_state")
    if start.best_iteration == start.iteration:  # a checkpoint.best, or a final at its best
        return start, start
    raise DataError(f"checkpoint lacks best_state for its best iteration {start.best_iteration}")


# --------------------------------------------------------------------------
# the bookkeeping every run shares

class _RunRecord:
    """One run's losses, validation cadence, best iteration and timings."""

    def __init__(self, config: TrainConfig, data: SplitPanels):
        if data.train.n_assets != config.generator.n_assets:
            raise DataError(
                f"config expects {config.generator.n_assets} assets, data has {data.train.n_assets}"
            )
        self.config, self.validation = config, data.validation
        self.best_iteration, self.best_mse = 0, float("inf")  # a resumed run sets its snapshot's
        self.losses, self.evals, self.wall_clock = [], [], []  # LossReport, EvalRecord, seconds

    def record(self, i: int, loss: obj.LossReport, population, started: float,
               last: bool = False) -> bool:
        """Keep iteration `i`; validate `population()` on the cadence.  True at a new best.

        `started` is the `time.monotonic()` at which the iteration began.  The
        last iteration is validated too: `config.iterations`, or an earlier
        one marked `last` where the run stops early.
        """
        self.losses.append(loss)
        best = False
        if last or i % self.config.eval_every == 0 or i == self.config.iterations:
            report = self.score(population())
            self.evals.append(EvalRecord(iteration=i, report=report))
            best = report.ensemble_mse < self.best_mse
            if best:
                self.best_iteration, self.best_mse = i, report.ensemble_mse
        self.wall_clock.append(time.monotonic() - started)
        return best

    def score(self, population: gen.Population) -> ens.EvalReport:
        return ens.evaluate_population(population, self.validation, bag_mode=self.config.bag_mode)

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

    A resumed run first scores its checkpoint's best state the same way and
    requires the stored best MSE bit for bit, so the checkpoint must fit this
    data and be resumed on the BLAS thread count that wrote it (the CLI runs
    one thread; `one_blas_thread` sets it for a library caller).
    """
    kind = OptimizerKind(config.optimizer)
    run = _RunRecord(config, data)
    if resume is None:
        start, best = _Snapshot.start(config), None
    else:
        start, best = _resume_from(config, resume)
        del resume  # decoded: its JSON tree is freed before the first iteration
    run.best_iteration, run.best_mse = start.best_iteration, start.best_mse

    def population(params: gen.GeneratorParams, state: gen.GeneratorState) -> gen.Population:
        return gen.sparse_population(gen.forward(params, state, start.eval_noise).logits.value)

    if best is not None:
        params = gen.GeneratorParams.from_flat(config.generator, best.theta)
        recomputed = run.score(population(params, best.state)).ensemble_mse
        if not recomputed == start.best_mse == best.best_mse:
            raise DataError(f"checkpoint does not match this data: its best validation MSE "
                            f"{start.best_mse!r} recomputes to {recomputed!r}")
    theta, state, opt_state = start.theta, start.state, start.optimizer
    rngs = {name: _rng_from_state(rng_state) for name, rng_state in start.rng.items()}

    def snapshot(i: int) -> _Snapshot:
        rng_states = {name: rng.bit_generator.state for name, rng in rngs.items()}
        return _Snapshot(
            i, theta, state, opt_state, rng_states, start.eval_noise, run.best_iteration, run.best_mse
        )

    def gradient(params: gen.GeneratorParams, state: gen.GeneratorState):
        """One iteration's flat gradient, loss report and carried state; its graph dies on return."""
        window = sample_window(data.train, config.window, rngs["windows"])
        noise = gen.sample_noise(config.generator, rngs["noise"])
        result = obj.total_loss(params, state, noise, window, config.loss, rngs["corruption"])
        dc.backward(result.loss)
        grads = np.concatenate([result.param_nodes[name].grad.ravel() for name in gen.PARAM_ORDER])
        return grads, result.report, result.new_state

    params = gen.GeneratorParams.from_flat(config.generator, theta)
    for i in range(start.iteration + 1, config.iterations + 1):
        t0 = time.monotonic()
        try:
            grads, report, state = gradient(params, state)
            theta, opt_state = step(kind, theta, grads, opt_state, config.hyper)
            params = gen.GeneratorParams.from_flat(config.generator, theta)
            if run.record(i, report, partial(population, params, state), t0):
                best = snapshot(i)
        except (dc.NonFiniteError, OptimError) as e:
            raise TrainError(f"iteration {i}: {e}") from e

    # set by now: a resumed run starts from its best, and a fresh one validates its
    # last iteration, whose finite MSE beats the initial inf
    best_checkpoint = _packed(best.tree(config))
    final_checkpoint = (best_checkpoint if best.iteration == config.iterations  # its own best
                        else {**_packed(snapshot(config.iterations).tree(config)),
                              "best_state": best_checkpoint})
    return run.artifacts(
        final_checkpoint, best_checkpoint,
        evaluations_used=config.generator.population * config.iterations,
        start_iteration=start.iteration,
    )


# --------------------------------------------------------------------------
# baselines

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
    run = _RunRecord(config, data)
    best_logits = np.zeros(n)

    def record(i: int, logits: np.ndarray, mse: float, started: float, last: bool = False) -> None:
        nonlocal best_logits
        loss = obj.LossReport(tracking_mse=mse, max_corr=0.0, total=mse)
        if run.record(i, loss, lambda: gen.sparse_population(logits), started, last):
            best_logits = logits.copy()

    if kind is OptimizerKind.CMAES:
        def objective(v: np.ndarray) -> float:  # the softmax weights' tracking MSE
            e = np.exp(v - v.max())
            deviation = data.train.returns @ (e / e.sum()) - data.train.index_returns
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
        # before config.iterations when the run stopped on C's condition number
        last = result.generations[-1].generation
        for g in result.generations:  # timed as the generation's own work plus its validation
            record(g.generation, g.best_x, g.best_f, time.monotonic() - g.seconds,
                   last=g.generation == last)
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
        last = evaluations_used = config.iterations

    best = (run.best_iteration, run.best_mse)
    art = run.artifacts(
        _packed(_tree("baseline", config, last, best, optimizer=kind.value, logits=logits)),
        _packed(_tree("baseline", config, run.best_iteration, best, optimizer=kind.value,
                      logits=best_logits)),
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


def one_blas_thread() -> None:
    """Set the OpenBLAS numpy loaded to one thread, so no result depends on the thread count."""
    if sys.platform == "linux":  # elsewhere, the library's own setting stands
        with open("/proc/self/maps") as maps:
            blas = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
        for path in blas:
            lib = ctypes.CDLL(path)
            for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
                if hasattr(lib, name):
                    getattr(lib, name)(1)


def _start_worker(parent: int) -> None:
    """`compare_optimizers`' worker set-up: one BLAS thread, and end with the parent.

    The workers already fill every usable CPU; OpenBLAS's own threads, one
    per CPU in each worker, made a compare 1.7-3.1x slower than one process.
    A worker ends at Ctrl-C, as its caller does, and on Linux when its caller
    is killed: otherwise a killed `compare` leaves forked workers blocked on
    the task queue for good.
    """
    import signal

    # Ctrl-C reaches the whole process group; a caller that ignores it keeps its workers
    if signal.getsignal(signal.SIGINT) is signal.default_int_handler:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    one_blas_thread()  # here too: compare_optimizers called as a library keeps the caller's setting
    if sys.platform == "linux":
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
