"""Training loops: determinism, resume, checkpoints, baselines, comparison."""
import base64
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from contextlib import suppress
from pathlib import Path
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from test_marketdata import _traced_rise

from qdportfolio import diffcore as dc
from qdportfolio import ensemble as ens
from qdportfolio import objective as obj
from qdportfolio import trainer
from qdportfolio.generator import GeneratorConfig
from qdportfolio.marketdata import DataError, RangeError, synth_dataset, time_split
from qdportfolio.objective import LossConfig
from qdportfolio.optim import GENERATOR_HYPER, GRADIENT_KINDS, Hyper, OptimizerKind
from qdportfolio.trainer import (
    CHECKPOINT_VERSION,
    ComparisonRow,
    TrainConfig,
    TrainError,
    checkpoint_population,
    compare_optimizers,
    config_from_flat,
    config_to_flat,
    format_value,
    load_checkpoint,
    save_checkpoint,
    save_comparison,
    pack_array,
    save_run,
    train_baseline,
    train_generator,
    unpack_array,
    write_config,
)

GEN = GeneratorConfig(
    n_assets=5, noise_dim=4, conv_channels=2, conv_kernel=2, lstm_hidden=3, population=4, seed=0
)


def make_data(seed=3, n_assets=5):
    panel, _ = synth_dataset(n_assets=n_assets, n_days=60, k_sparse=2, noise_scale=0.001, seed=seed)
    return time_split(panel, 0.8)


def make_config(**overrides):
    base = dict(generator=GEN, iterations=6, window=10, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


def canon(payload):
    return json.dumps(payload, sort_keys=True)


def test_train_config_validation():
    with pytest.raises(ValueError):
        make_config(iterations=0)
    with pytest.raises(ValueError):
        make_config(window=1)
    with pytest.raises(ValueError):
        make_config(eval_every=0)
    with pytest.raises(ValueError):
        make_config(bag_mode="mean")
    with pytest.raises(ValueError):
        make_config(optimizer=OptimizerKind.CMAES)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        make_config(seed=-1)
    with pytest.raises(ValueError, match="eval_seed must be non-negative, got -1"):
        make_config(eval_seed=-1)


def test_config_flat_round_trip():
    config = make_config(
        generator=GeneratorConfig(
            n_assets=5, noise_dim=4, conv_channels=2, conv_kernel=2,
            lstm_hidden=3, population=4, seed=1),
        eval_seed=77,
        eval_every=2,
        bag_mode="sparsify_mean",
        optimizer=OptimizerKind.RPROP,
        loss=LossConfig(diversity_weight=0.5, p_zero=0.2, noise_sigma=0.03,
                        corruption_enabled=False),
        hyper=Hyper(learning_rate=0.05, weight_decay=0.2),
    )
    flat = config_to_flat(config)
    again = config_from_flat(flat)
    assert again == config
    # the flat form keeps a single seed: the generator inherits the run seed
    derived = config_from_flat(config_to_flat(make_config(seed=42)))
    assert derived.generator.seed == 42
    assert config_to_flat(make_config())["eval_seed"] is None


def test_config_from_flat_rejects_bad_values():
    flat = config_to_flat(make_config())
    with pytest.raises(DataError, match="window: 'abc'"):
        config_from_flat({**flat, "window": "abc"})
    with pytest.raises(DataError, match="seed: None"):
        config_from_flat({**flat, "seed": None})
    with pytest.raises(DataError, match="optimizer: 'lbfgs'"):
        config_from_flat({**flat, "optimizer": "lbfgs"})
    with pytest.raises(DataError, match="window must be at least 2"):
        config_from_flat({**flat, "window": 1})
    with pytest.raises(DataError, match="learning rate must be positive"):
        config_from_flat({**flat, "learning_rate": -1.0})


def test_train_generator_is_deterministic():
    data = make_data()
    config = make_config()
    a = train_generator(config, data)
    b = train_generator(config, data)
    assert canon(a.final_checkpoint) == canon(b.final_checkpoint)
    assert canon(a.best_checkpoint) == canon(b.best_checkpoint)
    assert [r.total for r in a.losses] == [r.total for r in b.losses]
    assert [e.report.ensemble_mse for e in a.evals] == [
        e.report.ensemble_mse for e in b.evals
    ]
    different = train_generator(make_config(seed=2), data)
    assert canon(different.final_checkpoint) != canon(a.final_checkpoint)


def test_train_generator_bookkeeping():
    data = make_data()
    config = make_config()
    run = train_generator(config, data)
    assert len(run.losses) == 6
    assert len(run.wall_clock) == 6
    assert run.evaluations_used == GEN.population * 6
    assert [e.iteration for e in run.evals] == [1, 2, 3, 4, 5, 6]
    best = min(run.evals, key=lambda e: e.report.ensemble_mse)
    assert run.best_validation_mse == best.report.ensemble_mse
    assert run.best_iteration == best.iteration
    assert run.best_checkpoint["best"]["iteration"] == best.iteration
    assert run.final_checkpoint["iteration"] == 6


_RUN_KINDS = {
    "generator": train_generator,
    "rprop": lambda config, data: train_baseline(OptimizerKind.RPROP, config, data),
    "cmaes": lambda config, data: train_baseline(OptimizerKind.CMAES, config, data),
}


@pytest.mark.parametrize("kind", list(_RUN_KINDS))
def test_eval_cadence_includes_final_iteration(kind):
    run = _RUN_KINDS[kind](make_config(iterations=7, eval_every=3), make_data())
    assert [e.iteration for e in run.evals] == [3, 6, 7]
    assert len(run.losses) == len(run.wall_clock) == 7
    first_best = run.evals[int(np.argmin([e.report.ensemble_mse for e in run.evals]))]
    assert run.best_iteration == first_best.iteration
    assert run.best_validation_mse == first_best.report.ensemble_mse
    assert run.best_checkpoint["best"]["iteration"] == run.best_iteration
    if kind == "generator":
        assert run.evaluations_used == GEN.population * 7


def test_cmaes_baseline_times_each_generation():
    run = train_baseline(OptimizerKind.CMAES, make_config(iterations=6), make_data())
    assert len(run.wall_clock) == 6
    assert len(set(run.wall_clock)) > 1  # not the run's total spread evenly


def test_cmaes_baseline_ends_at_the_generation_where_cmaes_stopped():
    # at these sizes cond(C) passes its limit near generation 660; without the
    # stop, positive definiteness is lost at generation 802
    config = make_config(iterations=1000, eval_every=50)
    run = train_baseline(OptimizerKind.CMAES, config, make_data())
    last = len(run.losses)
    assert last < config.iterations and last % config.eval_every != 0
    assert len(run.wall_clock) == last
    assert [e.iteration for e in run.evals] == [*range(50, last, 50), last]
    assert run.final_checkpoint["iteration"] == last
    assert run.evaluations_used == GEN.population * last
    assert run.best_checkpoint["best"]["iteration"] == run.best_iteration


def test_an_iteration_graph_is_freed_before_its_validation_and_the_next_forward(monkeypatch):
    graphs, alive = [], []  # weak references to each iteration's graph; how many live, and when

    def total_loss(*args, **kwargs):
        alive.append(("forward", sum(ref() is not None for ref in graphs)))
        result = real_total_loss(*args, **kwargs)
        # a Node takes no weak reference; the loss node's value array, held by it alone, stands in
        graphs.extend(map(weakref.ref, (result, result.loss.value)))
        return result

    def evaluate_population(*args, **kwargs):
        alive.append(("validation", sum(ref() is not None for ref in graphs)))
        return real_evaluate_population(*args, **kwargs)

    real_total_loss, real_evaluate_population = obj.total_loss, ens.evaluate_population
    monkeypatch.setattr(obj, "total_loss", total_loss)
    monkeypatch.setattr(ens, "evaluate_population", evaluate_population)
    train_generator(make_config(iterations=4, eval_every=2), make_data())
    assert alive == [("forward", 0), ("forward", 0), ("validation", 0),
                     ("forward", 0), ("forward", 0), ("validation", 0)]


def test_a_fresh_run_drops_its_initial_snapshot_after_its_first_step(monkeypatch):
    arrays, alive = [], []  # weak references to iteration 0's theta, m and v; how many live

    def start(config):
        snapshot = real_start(config)
        arrays.extend(map(weakref.ref, (snapshot.theta, *snapshot.optimizer.arrays.values())))
        return snapshot

    def total_loss(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in arrays))
        return real_total_loss(*args, **kwargs)

    real_start, real_total_loss = trainer._Snapshot.start, obj.total_loss
    monkeypatch.setattr(trainer._Snapshot, "start", start)
    monkeypatch.setattr(obj, "total_loss", total_loss)
    train_generator(make_config(iterations=4), make_data())
    assert alive == [3, 0, 0, 0]


@pytest.mark.parametrize("kind", GRADIENT_KINDS, ids=lambda k: k.value)
def test_resume_is_bit_identical_to_uninterrupted(kind):
    """Each rule's optimizer state round-trips, Nadam's numpy-scalar `mu_product` included."""
    data = make_data()
    full = train_generator(make_config(iterations=8, optimizer=kind), data)
    first = train_generator(make_config(iterations=4, optimizer=kind), data)
    assert first.final_checkpoint["optimizer"]["kind"] == kind.value
    resumed = train_generator(make_config(iterations=8, optimizer=kind), data,
                              resume=first.final_checkpoint)
    assert resumed.start_iteration == 4
    assert canon(resumed.final_checkpoint) == canon(full.final_checkpoint)
    assert canon(resumed.best_checkpoint) == canon(full.best_checkpoint)
    assert [r.total for r in resumed.losses] == [r.total for r in full.losses[4:]]


@settings(max_examples=15, deadline=None)
@given(split=st.integers(1, 7), eval_every=st.integers(1, 3))
def test_resume_at_any_split_point_is_bit_identical(split, eval_every):
    data = make_data(seed=4, n_assets=6)
    config = make_config(generator=replace(GEN, n_assets=6), iterations=8, eval_every=eval_every)
    full = train_generator(config, data)
    first = train_generator(replace(config, iterations=split), data)
    resumed = train_generator(config, data, resume=first.final_checkpoint)
    assert canon(resumed.final_checkpoint) == canon(full.final_checkpoint)
    assert canon(resumed.best_checkpoint) == canon(full.best_checkpoint)


@pytest.mark.xfail(strict=True, reason="a run validates its last iteration even off the cadence, "
                   "and a run resumed from it keeps that validation as its best")
def test_resume_off_the_cadence_keeps_the_uninterrupted_best():
    config = make_config(iterations=8, eval_every=2, hyper=Hyper(learning_rate=0.3),
                         generator=replace(GEN, n_assets=6))
    data = make_data(seed=4, n_assets=6)
    full = train_generator(config, data)
    first = train_generator(replace(config, iterations=3), data)
    resumed = train_generator(config, data, resume=first.final_checkpoint)
    assert resumed.best_iteration == full.best_iteration == 2


def test_resume_carries_a_best_it_never_beats():
    data = make_data()
    config = make_config(iterations=8, hyper=Hyper(learning_rate=0.3))
    full = train_generator(config, data)
    assert full.best_iteration == 3          # before the resume point, never beaten
    first = train_generator(replace(config, iterations=4), data)
    resumed = train_generator(config, data, resume=first.final_checkpoint)
    assert resumed.best_iteration == 3
    assert canon(resumed.final_checkpoint) == canon(full.final_checkpoint)
    assert canon(resumed.best_checkpoint) == canon(full.best_checkpoint)


def test_final_checkpoint_nests_only_another_iterations_best():
    data = make_data()
    own = train_generator(make_config(iterations=4, eval_every=4), data)
    assert own.best_iteration == 4
    assert own.final_checkpoint == own.best_checkpoint
    assert "best_state" not in own.final_checkpoint
    earlier = train_generator(make_config(iterations=8, hyper=Hyper(learning_rate=0.3)), data)
    assert earlier.best_iteration == 3
    assert "best_state" not in earlier.best_checkpoint
    assert earlier.final_checkpoint["best_state"] == earlier.best_checkpoint


def test_resume_rejects_mismatched_config():
    data = make_data()
    first = train_generator(make_config(iterations=4), data)
    with pytest.raises(DataError, match="differs on"):
        train_generator(make_config(iterations=8, seed=9), data,
                        resume=first.final_checkpoint)
    with pytest.raises(DataError, match="nothing to do"):
        train_generator(make_config(iterations=4), data,
                        resume=first.final_checkpoint)
    with pytest.raises(DataError, match="does not describe a generator"):
        baseline = train_baseline(OptimizerKind.SGD, make_config(), data)
        train_generator(make_config(iterations=8), data,
                        resume=baseline.final_checkpoint)


@pytest.mark.parametrize("edit", ["final", "nested", "data"])
def test_resume_refuses_a_best_that_does_not_recompute(edit):
    """The stored best MSE, at the top or in the nested best, must be what the data scores."""
    data = make_data()
    config = make_config(iterations=8, hyper=Hyper(learning_rate=0.3))
    first = train_generator(replace(config, iterations=4), data)
    assert first.best_iteration == 3
    resume = json.loads(canon(first.final_checkpoint))
    best = resume if edit == "final" else resume["best_state"]
    if edit == "data":
        data = make_data(seed=5)
    else:  # one unit in the last place
        best["best"]["validation_mse"] = float(np.nextafter(best["best"]["validation_mse"], 1.0))
    with pytest.raises(DataError, match="checkpoint does not match this data"):
        train_generator(config, data, resume=resume)


def test_train_generator_input_validation():
    data = make_data()
    with pytest.raises(DataError, match="assets"):
        train_generator(
            make_config(generator=GeneratorConfig(
                n_assets=4, noise_dim=4, conv_channels=2, conv_kernel=2,
                lstm_hidden=3, population=4)),
            data,
        )
    with pytest.raises(DataError, match="window"):
        train_generator(make_config(window=1000), data)


@pytest.mark.parametrize("kind", [*GRADIENT_KINDS, OptimizerKind.CMAES], ids=lambda kind: kind.value)
def test_baseline_refuses_a_panel_of_another_asset_count_before_it_starts(monkeypatch, kind):
    def started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(trainer, "step", started)
    monkeypatch.setattr(trainer, "cmaes_run", started)
    with pytest.raises(DataError, match="^config expects 8 assets, data has 5$"):
        train_baseline(kind, make_config(generator=replace(GEN, n_assets=8)), make_data())


@pytest.mark.parametrize("config, error, message", [
    (make_config(generator=replace(GEN, n_assets=8)), DataError, "config expects 8 assets, data has 5"),
    (make_config(window=49), DataError, "window length 49 exceeds available rows 48"),
    (make_config(generator=replace(GEN, population=3)), RangeError,
     "cmaes needs a population of at least 4, got 3"),
], ids=["asset_count", "window", "population"])
def test_compare_refuses_a_misfit_before_any_run(monkeypatch, config, error, message):
    # once, not in each of the 11 runs: no run starts, here or in a worker
    monkeypatch.setattr(trainer, "_called", lambda run: pytest.fail("a run started"))
    monkeypatch.setattr(trainer, "_in_workers", lambda *args: pytest.fail("a run started"))
    with pytest.raises(error, match=f"^{message}$"):
        compare_optimizers(config, make_data())


def test_a_population_below_the_cmaes_floor_compares_without_cmaes():
    config = make_config(iterations=2, generator=replace(GEN, population=3))
    result = compare_optimizers(config, make_data(), kinds=[OptimizerKind.ADAM])
    assert {(row.optimizer, row.status) for row in result.rows} == {("adam", "ok"), ("proposed", "ok")}


def test_a_training_side_of_one_row_is_refused_before_compare_starts():
    # one training row: the gradient rules could not form a return series, and
    # CMA-ES would fit the one row; the split refuses it, so no run starts
    panel, _ = synth_dataset(n_assets=5, n_days=10, k_sparse=2, noise_scale=0.001, seed=3)
    with pytest.raises(DataError, match="^a return panel needs at least two rows, got 1$"):
        time_split(panel, 0.15)
    # a compare worker unpickles its split through the constructor, so it refuses one too
    split = time_split(panel, 0.8)
    for name in ("dates", "returns", "index_returns"):
        object.__setattr__(split.train, name, getattr(split.train, name)[:1])
    with pytest.raises(DataError, match="^a return panel needs at least two rows, got 1$"):
        pickle.loads(pickle.dumps(split))


def test_numerical_blowup_becomes_train_error():
    config = make_config(optimizer=OptimizerKind.SGD,
                         hyper=Hyper(learning_rate=float("inf")))
    with pytest.raises(TrainError):
        train_generator(config, make_data())


def test_non_finite_validation_names_its_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise dc.NonFiniteError("sparsemax")

    monkeypatch.setattr(trainer.ens, "evaluate_population", refuse)
    with pytest.raises(TrainError, match="iteration 1: non-finite value produced by primitive"):
        train_generator(make_config(), make_data())
    with pytest.raises(TrainError, match="iteration 1: non-finite value produced by primitive"):
        train_baseline(OptimizerKind.SGD, make_config(), make_data())


def test_baseline_blowup_names_its_iteration():
    config = make_config(optimizer=OptimizerKind.SGD, hyper=Hyper(learning_rate=float("inf")))
    with pytest.raises(TrainError, match="iteration 1: update produced non-finite parameters"):
        train_baseline(OptimizerKind.SGD, config, make_data())


def test_checkpoint_file_round_trip(tmp_path):
    data = make_data()
    run = train_generator(make_config(), data)
    path = tmp_path / "checkpoint.final"
    save_checkpoint(run.final_checkpoint, path)
    loaded = load_checkpoint(path)
    assert canon(loaded) == canon(run.final_checkpoint)
    config, population = checkpoint_population(loaded, None)
    assert config == config_from_flat(config_to_flat(make_config()))
    assert loaded["iteration"] == 6
    expected = checkpoint_population(run.final_checkpoint, None)[1]
    np.testing.assert_array_equal(population.weights, expected.weights)


def test_save_checkpoint_writes_no_non_finite_number(tmp_path):
    path = tmp_path / "checkpoint"
    with pytest.raises(ValueError):
        save_checkpoint({"best": {"validation_mse": float("nan")}}, path)
    assert not path.exists()
    # streamed, the NaN is met mid-write: the old file stays whole and no temp file is left
    save_checkpoint({"best": {"validation_mse": 0.5}, "iteration": 1}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_checkpoint({"best": {"validation_mse": float("nan")}, "iteration": 2}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


_V1_GENERATOR = Path(__file__).parent / "data" / "checkpoint_v1" / "generator.checkpoint"


@pytest.mark.parametrize("payload", [
    # best at iteration 1 of 2, so the final nests best_state
    lambda: train_generator(make_config(iterations=2), make_data()).final_checkpoint,
    lambda: train_baseline(OptimizerKind.CMAES, make_config(), make_data()).final_checkpoint,
    # its mu_product is a packed numpy scalar
    lambda: train_generator(make_config(optimizer=OptimizerKind.NADAM), make_data()).final_checkpoint,
    lambda: load_checkpoint(_V1_GENERATOR),  # decimal lists
], ids=["generator_final", "cmaes", "nadam", "v1"])
def test_save_checkpoint_writes_exactly_json_dumps_text(tmp_path, payload):
    payload = payload()
    path = tmp_path / "checkpoint"
    save_checkpoint(payload, path)
    assert path.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True, allow_nan=False)


def test_save_checkpoint_holds_less_than_the_text_it_writes(tmp_path):
    data = time_split(synth_dataset(n_assets=60, n_days=120, k_sparse=5, noise_scale=0.002,
                                    seed=4)[0], 0.8)
    config = TrainConfig(generator=GeneratorConfig(n_assets=60), iterations=1, window=20, seed=1)
    payload = train_generator(config, data).final_checkpoint
    path = tmp_path / "checkpoint.final"
    rise = _traced_rise(lambda: save_checkpoint(payload, path))
    # json.dumps held the whole text and its pieces: 2.0 times the 1.7 MB file
    assert rise < path.stat().st_size


def test_load_checkpoint_errors(tmp_path):
    with pytest.raises(DataError, match="no such"):
        load_checkpoint(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.write_text("not json {")
    with pytest.raises(DataError, match="unreadable checkpoint"):
        load_checkpoint(bad)
    wrong = tmp_path / "wrong"
    wrong.write_text(json.dumps({"format_version": CHECKPOINT_VERSION + 1}))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(wrong)


def test_load_checkpoint_rejects_incomplete_documents(tmp_path):
    payload = train_generator(make_config(iterations=2), make_data()).final_checkpoint
    assert payload["best"]["iteration"] == 1  # so the final nests its best
    path = tmp_path / "checkpoint.final"
    save_checkpoint({k: v for k, v in payload.items() if k != "state"}, path)
    with pytest.raises(DataError, match="lacks field: state"):
        checkpoint_population(load_checkpoint(path), None)
    path.write_text("[2]")
    with pytest.raises(DataError, match="not a JSON object"):
        load_checkpoint(path)
    del payload["best_state"]["state"]["h"]
    with pytest.raises(DataError, match="lacks field: state.h"):
        checkpoint_population(payload["best_state"], None)


def test_save_checkpoint_leaves_the_old_file_when_the_move_fails(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.final"
    save_checkpoint({"format_version": CHECKPOINT_VERSION, "step": 1}, path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint({"format_version": CHECKPOINT_VERSION, "step": 2}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# Bit patterns a decimal or lossy encoding could get wrong.
_SPECIAL_BITS = [
    0x0000000000000000,  # 0.0
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest subnormal
    0x800FFFFFFFFFFFFF,  # largest negative subnormal
    0x7FF0000000000000,  # inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # quiet NaN
    0x7FF0000000000001,  # signalling NaN
    0xFFFDEADBEEF12345,  # negative NaN with a payload
]


@given(
    bits=hnp.arrays(
        np.uint64,
        hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
        elements=st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)),
    ),
    transpose=st.booleans(),
)
def test_pack_array_round_trip_is_bit_exact(bits, transpose):
    arr = bits.view(np.float64)
    if transpose:
        arr = arr.T  # not C-contiguous
    blob = json.loads(json.dumps(pack_array(arr)))
    out = unpack_array(blob)
    assert out.dtype == np.float64
    assert out.shape == arr.shape
    assert out.tobytes() == arr.tobytes()
    assert out.flags.writeable


def test_unpack_array_reads_version_1_forms():
    np.testing.assert_array_equal(unpack_array([0.5, -2.0]), [0.5, -2.0])
    two_by_two = unpack_array({"shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0]})
    np.testing.assert_array_equal(two_by_two, [[1.0, 2.0], [3.0, 4.0]])
    assert unpack_array({"shape": [], "data": [0.25]}).shape == ()


@pytest.mark.parametrize("blob, message", [
    ({"shape": [2]}, "lacks field 'f64le'"),
    ({"f64le": ""}, "lacks field 'shape'"),
    ({"shape": [1], "f64le": "AAAA!AAAAAA="}, "malformed"),
    ({"shape": [2], "f64le": base64.b64encode(bytes(8)).decode()}, "holds 8 bytes"),
    ({"shape": [-1, -1], "f64le": base64.b64encode(bytes(8)).decode()}, "malformed"),
    ({"shape": [2, 2], "data": [1.0, 2.0, 3.0]}, "malformed"),
    ({"shape": "x", "f64le": ""}, "malformed"),
    # a shape entry keeps its JSON type: neither text nor a fraction is rounded to a count
    ({"shape": "6", "f64le": base64.b64encode(bytes(48)).decode()}, "malformed"),
    ({"shape": [6.9], "f64le": base64.b64encode(bytes(48)).decode()}, "malformed"),
    ({"shape": [True], "data": [1.0]}, "malformed"),
])
def test_unpack_array_rejects_malformed_blobs(blob, message):
    with pytest.raises(DataError, match=message):
        unpack_array(blob)


@pytest.mark.parametrize("kind", GRADIENT_KINDS, ids=lambda k: k.value)
def test_baselines_run_and_budget(kind):
    data = make_data()
    run = train_baseline(kind, make_config(optimizer=kind), data)
    assert len(run.losses) == 6
    assert run.evaluations_used == 6
    assert math.isfinite(run.best_validation_mse)
    assert run.final_checkpoint["kind"] == "baseline"
    assert [e.iteration for e in run.evals] == [1, 2, 3, 4, 5, 6]


def test_cmaes_baseline_budget_matches_population():
    data = make_data()
    run = train_baseline(OptimizerKind.CMAES, make_config(), data)
    assert run.evaluations_used == GEN.population * 6
    assert len(run.losses) == 6
    assert math.isfinite(run.best_validation_mse)


def test_baseline_is_deterministic_across_calls():
    data = make_data()
    a = train_baseline(OptimizerKind.ADAM, make_config(), data)
    b = train_baseline(OptimizerKind.ADAM, make_config(), data)
    assert canon(a.final_checkpoint) == canon(b.final_checkpoint)
    assert a.best_validation_mse == b.best_validation_mse


def test_compare_schema_and_determinism():
    data = make_data()
    config = make_config(iterations=3)
    result = compare_optimizers(config, data)
    labels = {row.optimizer for row in result.rows}
    assert labels == {k.value for k in GRADIENT_KINDS} | {"cmaes", "proposed"}
    assert len(result.rows) == 11
    assert all(row.status == "ok" for row in result.rows)
    mses = [row.best_validation_mse for row in result.rows]
    assert mses == sorted(mses)
    # per-task seeds are derived, not positional accidents
    again = compare_optimizers(config, data)
    assert result.rows == again.rows


def test_repeated_runs_in_one_process_are_bit_identical(tmp_path):
    data = make_data()
    config = make_config(iterations=4, eval_every=2)

    def outputs(label):
        runs = {"generator": train_generator(config, data)}
        runs.update(compare_optimizers(config, data).artifacts)
        files = {}
        for name, art in runs.items():
            for kind, payload in (("best", art.best_checkpoint), ("final", art.final_checkpoint)):
                path = tmp_path / label / f"{name}.{kind}"
                save_checkpoint(payload, path)
                files[path.name] = path.read_bytes()
            files[f"{name}.losses"] = [(r.tracking_mse, r.max_corr, r.total) for r in art.losses]
            files[f"{name}.evals"] = [
                (e.iteration, e.report.ensemble_mse, e.report.mean_sub_mse) for e in art.evals
            ]
        return files

    first, second = outputs("first"), outputs("second")
    assert len(first) == 12 * 4
    assert first == second


@pytest.fixture
def two_cpus(monkeypatch):
    """compare_optimizers starts its worker processes even where one CPU is usable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def private_tempdir(tmp_path, monkeypatch):
    """The directory `tempfile` makes its directories in, for this test alone."""
    path = tmp_path / "tempdir"
    path.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(path))
    return path


def test_each_compare_worker_computes_what_one_process_computes(tmp_path, two_cpus, private_tempdir):
    data = make_data()
    config = make_config(iterations=4, eval_every=2)
    result = compare_optimizers(config, data)
    assert multiprocessing.active_children() == []
    assert list(private_tempdir.iterdir()) == []  # each result file is read and removed
    tasks = [*GRADIENT_KINDS, OptimizerKind.CMAES, None]
    assert set(result.artifacts) == {"proposed" if k is None else k.value for k in tasks}
    for idx, kind in enumerate(tasks):
        seed = int(np.random.SeedSequence([config.seed, idx]).generate_state(1)[0])
        if kind is None:
            label, direct = "proposed", train_generator(replace(config, seed=seed), data)
        else:
            label, direct = kind.value, train_baseline(kind, replace(
                config, seed=seed, hyper=replace(config.hyper, learning_rate=0.1),
                optimizer=OptimizerKind.ADAMW if kind is OptimizerKind.CMAES else kind,
            ), data)
        pooled = result.artifacts[label]
        for name in ("best", "final"):
            paths = [tmp_path / f"{label}.{side}.{name}" for side in ("pooled", "direct")]
            save_checkpoint(getattr(pooled, f"{name}_checkpoint"), paths[0])
            save_checkpoint(getattr(direct, f"{name}_checkpoint"), paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes(), (label, name)
        assert pooled.losses == direct.losses, label
        assert [(e.iteration, e.report.ensemble_mse, e.report.mean_sub_mse) for e in pooled.evals] \
            == [(e.iteration, e.report.ensemble_mse, e.report.mean_sub_mse) for e in direct.evals], label
        assert pooled.config == direct.config, label


def test_compare_holds_no_result_twice(two_cpus):
    """The caller reads a result from a file a frame at a time, not whole from the pool's pipe."""
    panel, _ = synth_dataset(n_assets=60, n_days=300, k_sparse=5, noise_scale=0.001, seed=3)
    config = TrainConfig(generator=GeneratorConfig(n_assets=60), iterations=3, window=50,
                         eval_every=2, seed=1)
    data = time_split(panel, 0.8)
    import concurrent.futures.process  # noqa: F401  (a pooled compare imports it: not part of a result)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = compare_optimizers(config, data)
        held, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(result.artifacts) == 11
    # through the pool's pipe the caller held a message, its copy and the result at once: 2.0x
    assert peak < 1.6 * held, (peak, held)


def test_compare_records_a_worker_that_dies(monkeypatch, two_cpus, private_tempdir):
    real = trainer.train_baseline

    def dying(kind, config, data):
        if kind is OptimizerKind.RPROP:
            os._exit(1)  # the worker process ends without a result
        return real(kind, config, data)

    monkeypatch.setattr(trainer, "train_baseline", dying)
    result = compare_optimizers(make_config(iterations=2), make_data())
    assert multiprocessing.active_children() == []
    assert list(private_tempdir.iterdir()) == []
    assert len(result.rows) == 11
    rows = {row.optimizer: row for row in result.rows}
    assert rows["rprop"].status == "failed"
    assert rows["rprop"].error.startswith("BrokenProcessPool: ")
    assert "rprop" not in result.artifacts
    for row in result.rows:  # a run lost with the pool is failed, never dropped
        assert (row.status == "ok") == (row.optimizer in result.artifacts)


def test_compare_on_one_cpu_calls_each_run_here_and_computes_the_same(monkeypatch, two_cpus):
    config, data = make_config(iterations=4, eval_every=2), make_data()
    pooled = compare_optimizers(config, data)
    callers = []
    real = trainer._compare_task

    def here(*args):
        callers.append(os.getpid())
        return real(*args)

    monkeypatch.setattr(trainer, "_compare_task", here)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = compare_optimizers(config, data)
    assert callers == [os.getpid()] * 11  # no worker: nothing would run beside this process
    assert alone.rows == pooled.rows
    for label, art in pooled.artifacts.items():
        assert alone.artifacts[label].losses == art.losses, label
        assert canon(alone.artifacts[label].best_checkpoint) == canon(art.best_checkpoint), label


# Every run of a compare marks its worker with a file named by its pid, then hangs.
_HANGING_COMPARE = """
import os, signal, sys, time
from pathlib import Path
from qdportfolio import trainer
from qdportfolio.generator import GeneratorConfig
from qdportfolio.marketdata import synth_dataset, time_split

signal.signal(signal.SIGINT, signal.default_int_handler)  # as in an interactive shell
os.sched_getaffinity = lambda pid: {0, 1}  # workers even where one CPU is usable

def hang(*args):
    Path(sys.argv[1], str(os.getpid())).touch()
    time.sleep(120)

trainer.train_generator = trainer.train_baseline = hang
panel, _ = synth_dataset(n_assets=5, n_days=60, k_sparse=2, noise_scale=0.001, seed=3)
config = trainer.TrainConfig(generator=GeneratorConfig(n_assets=5), iterations=2, window=10)
trainer.compare_optimizers(config, time_split(panel, 0.8))
"""


def _running(pid):
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")  # a zombie has ended; nothing may reap it here


@pytest.mark.skipif(sys.platform != "linux", reason="workers end with their parent on Linux")
@pytest.mark.parametrize("how", ["interrupt", "interrupt_caller_only", "kill"])
def test_compare_workers_end_with_an_interrupted_or_killed_caller(tmp_path, how):
    marks, tempdir = tmp_path / "workers", tmp_path / "tempdir"
    marks.mkdir()
    tempdir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(trainer.__file__).parents[1]), "TMPDIR": str(tempdir)}
    caller = subprocess.Popen([sys.executable, "-c", _HANGING_COMPARE, str(marks)], env=env,
                              start_new_session=True, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not any(marks.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.05)
        workers = [int(mark.name) for mark in marks.iterdir()]
        assert workers, "no run started"
        if how == "interrupt":  # Ctrl-C reaches the caller and its workers
            os.killpg(caller.pid, signal.SIGINT)
        elif how == "interrupt_caller_only":  # as a notebook kernel's interrupt
            os.kill(caller.pid, signal.SIGINT)
        else:
            caller.kill()
        caller.wait(timeout=30)  # an interrupt does not wait for the hanging runs
        deadline = time.monotonic() + 30
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers))
        left = [path.name for path in tempdir.iterdir()]
        if how == "kill":  # a killed caller cannot remove its result directory
            assert len(left) <= 1 and all(name.startswith("qdportfolio-compare-") for name in left)
        else:
            assert left == []
    finally:
        with suppress(ProcessLookupError):
            os.killpg(caller.pid, signal.SIGKILL)
        caller.wait()


def test_compare_runs_baselines_at_the_config_hyper_with_the_baseline_rate():
    config = make_config(iterations=2, hyper=replace(GENERATOR_HYPER, beta1=0.5))
    result = compare_optimizers(config, make_data(), kinds=[OptimizerKind.ADAM])
    assert set(result.artifacts) == {"adam", "proposed"}
    for label, art in result.artifacts.items():
        assert art.config["beta1"] == 0.5
        assert art.config["learning_rate"] == (0.01 if label == "proposed" else 0.1)


def test_compare_records_failures(monkeypatch, private_tempdir):
    real = trainer.train_baseline

    def flaky(kind, config, data):
        if kind is OptimizerKind.RPROP:
            raise TrainError("synthetic failure")
        return real(kind, config, data)

    monkeypatch.setattr(trainer, "train_baseline", flaky)
    for cpus in ({0}, {0, 1}):  # each run called here, then in workers
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        result = compare_optimizers(make_config(iterations=2), make_data())
        failed = [row for row in result.rows if row.status == "failed"]
        assert len(failed) == 1
        assert failed[0].optimizer == "rprop"
        assert "synthetic failure" in failed[0].error
        assert math.isnan(failed[0].best_validation_mse)
        assert failed[0].evaluations_used == 0
        assert result.rows[-1] is failed[0]          # failures sort last
        assert "rprop" not in result.artifacts
        assert multiprocessing.active_children() == []
        assert list(private_tempdir.iterdir()) == []


def test_format_value():
    assert format_value(None) == ""
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.1) == "0.1"
    assert format_value(1e-06) == "1e-06"
    assert format_value(7) == "7"
    assert format_value("sgd") == "sgd"


def test_write_config_sorted(tmp_path):
    path = tmp_path / "run.config"
    write_config({"b": 2, "a": 1.5, "c": None}, path)
    assert path.read_text() == "a=1.5\nb=2\nc=\n"


def test_save_run_layout(tmp_path):
    data = make_data()
    run = train_generator(make_config(iterations=3), data)
    run.config = config_to_flat(make_config(iterations=3))
    save_run(run, tmp_path)
    for name in ("run.config", "loss.csv", "eval.csv", "timing.csv",
                 "checkpoint.final", "checkpoint.best"):
        assert (tmp_path / name).exists(), name
    loss_lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "iteration,tracking_mse,max_corr,total"
    assert len(loss_lines) == 4
    assert loss_lines[1].startswith("1,")
    eval_lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert eval_lines[0] == "iteration,ensemble_mse,mean_sub_mse,max_corr"
    assert len(eval_lines) == 4
    timing_lines = (tmp_path / "timing.csv").read_text().splitlines()
    assert timing_lines[0] == "iteration,seconds"
    assert [line.split(",")[0] for line in timing_lines[1:]] == ["1", "2", "3"]
    for line in timing_lines[1:]:  # a fixed width, whatever the clock read
        assert re.fullmatch(r"\d+\.\d{6}", line.split(",")[1]), line
    reloaded = load_checkpoint(tmp_path / "checkpoint.final")
    assert canon(reloaded) == canon(run.final_checkpoint)


def test_save_comparison_layout(tmp_path):
    result = compare_optimizers(
        make_config(iterations=2), make_data(),
        kinds=(OptimizerKind.SGD, OptimizerKind.ADAM),
    )
    result.rows.append(
        ComparisonRow(optimizer="broken", status="failed",
                      best_validation_mse=float("nan"), evaluations_used=0,
                      seed=0, error="oops, bad")
    )
    save_comparison(result, tmp_path)
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == "optimizer,best_validation_mse,evaluations_used,seed"
    assert len(table) == 5        # sgd, adam, proposed, broken
    failures = (tmp_path / "failures.csv").read_text().splitlines()
    assert failures == ["optimizer,error", 'broken,"oops, bad"']
    for label in ("sgd", "adam", "proposed"):
        assert (tmp_path / "runs" / label / "run.config").exists()
        assert (tmp_path / "runs" / label / "checkpoint.best").exists()
