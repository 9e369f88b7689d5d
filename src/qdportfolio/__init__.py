"""Generative quality-diversity training for sparse index tracking.

A noise-conditioned convolutional/recurrent generator emits a population
of portfolio weight rows (softmax during training, sparsemax at
evaluation).  The population is meta-trained against a corrupted
Monte-Carlo tracking objective plus a behavioral-diversity penalty, then
bagged into one sparse ensemble portfolio.  Everything runs on a small
self-contained reverse-mode autodiff core so gradients stay checkable
against finite differences.
"""
from .diffcore import GradCheckError, GraphError, Node, NonFiniteError, backward, grad_check
from .ensemble import EnsemblePortfolio, EvalReport, bag, evaluate, evaluate_population
from .generator import (
    ForwardResult,
    GeneratorConfig,
    GeneratorParams,
    GeneratorState,
    Population,
    forward,
    init_params,
    sample_noise,
    sparsemax,
)
from .marketdata import (
    DataError,
    PriceTable,
    RangeError,
    ReturnPanel,
    SplitPanels,
    compute_log_returns,
    load_prices,
    sample_window,
    synth_dataset,
    time_split,
)
from .objective import LossConfig, LossReport, corrupt, total_loss
from .optim import (
    Hyper,
    OptimError,
    OptimizerKind,
    OptimizerState,
    cmaes_run,
    init_state,
    step,
)
from .trainer import (
    RunArtifacts,
    TrainConfig,
    TrainError,
    compare_optimizers,
    load_checkpoint,
    save_checkpoint,
    train_baseline,
    train_generator,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Node", "backward", "grad_check", "GraphError", "NonFiniteError", "GradCheckError",
    "DataError", "RangeError", "PriceTable", "ReturnPanel", "SplitPanels",
    "load_prices", "compute_log_returns", "time_split", "sample_window", "synth_dataset",
    "GeneratorConfig", "GeneratorParams", "GeneratorState", "Population", "ForwardResult",
    "init_params", "sample_noise", "forward", "sparsemax",
    "LossConfig", "LossReport", "corrupt", "total_loss",
    "Hyper", "OptimError", "OptimizerKind", "OptimizerState",
    "init_state", "step", "cmaes_run",
    "EnsemblePortfolio", "EvalReport", "bag", "evaluate", "evaluate_population",
    "TrainConfig", "TrainError", "RunArtifacts",
    "train_generator", "train_baseline", "compare_optimizers",
    "save_checkpoint", "load_checkpoint",
]
