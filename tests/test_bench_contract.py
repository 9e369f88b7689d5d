"""The traced benchmark's view of the package.

`perfbench/spantrace.py` names the functions it wraps and reads the path a
checkpoint was saved to from the call's second argument; a refactor that
renames, nests or re-signs one of them would break the traced benchmark
without failing any other test.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

from qdportfolio import cli, trainer  # the tracer wraps cli.main, so cli must be loaded
from qdportfolio.generator import GeneratorConfig
from qdportfolio.marketdata import synth_dataset, time_split

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def load_spantrace():
    spec = importlib.util.spec_from_file_location("spantrace", SPANTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_module_level_function():
    for module_name, fn_name in load_spantrace().TRACED:
        module = importlib.import_module(f"qdportfolio.{module_name}")
        fn = getattr(module, fn_name, None)
        assert inspect.isfunction(fn), f"{module_name}.{fn_name}"
        assert (fn.__module__, fn.__qualname__) == (module.__name__, fn_name)


def test_save_checkpoint_takes_payload_then_path():
    parameters = list(inspect.signature(trainer.save_checkpoint).parameters)
    assert parameters[:2] == ["payload", "path"]


def test_tracer_counts_the_checkpoints_save_run_writes(tmp_path):
    panel, _ = synth_dataset(n_assets=5, n_days=60, k_sparse=2, noise_scale=0.001, seed=3)
    generator = GeneratorConfig(n_assets=5, noise_dim=4, conv_channels=2, conv_kernel=2,
                                lstm_hidden=3, population=4)
    config = trainer.TrainConfig(generator=generator, iterations=2, window=10)
    run = trainer.train_generator(config, time_split(panel, 0.8))
    tracer = load_spantrace().Tracer()
    tracer.install()
    try:
        trainer.save_run(run, tmp_path)
    finally:
        problems = tracer.uninstall()
    assert problems == []
    totals, counters = tracer.take()
    assert totals["trainer.save_checkpoint"][1] == 2
    written = sum((tmp_path / name).stat().st_size
                  for name in (trainer.CHECKPOINT_FINAL, trainer.CHECKPOINT_BEST))
    assert counters["trainer.checkpoint_bytes"] == written
