"""Bagging of population members into one portfolio and its evaluation.

The ensemble is the plain average of the sub-portfolio weight rows; since
every row lies on the simplex, so does the average, and because portfolio
returns are linear in the weights the ensemble tracking MSE can never
exceed the mean sub-portfolio MSE.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import Population, sparsemax
from .marketdata import ReturnPanel
from .objective import pairwise_correlations

__all__ = [
    "EnsemblePortfolio",
    "PortfolioEval",
    "EvalReport",
    "bag",
    "evaluate",
    "evaluate_population",
    "member_returns",
    "EXPORT_WEIGHT_FLOOR",
]

# Weights below this are omitted from exports.
EXPORT_WEIGHT_FLOOR = 1e-12

BAG_MODES = ("sparsify_rows", "sparsify_mean")


@dataclass(frozen=True)
class EnsemblePortfolio:
    """Averaged portfolio weights and the size of their support."""

    weights: np.ndarray
    support_size: int


@dataclass(frozen=True)
class PortfolioEval:
    """Tracking quality of one weight vector on one panel."""

    mse: float
    l2_norm: float
    returns: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Out-of-sample summary of a population and its bagged ensemble.

    It holds no return series: `evaluate(...).returns` and `member_returns`
    give those.
    """

    ensemble_mse: float
    ensemble_l2: float
    mean_sub_mse: float
    sub_mse: tuple[float, ...]
    max_corr: float
    support_size: int
    ensemble_weights: np.ndarray


def bag(population: Population, mode: str = "sparsify_rows") -> EnsemblePortfolio:
    """Average the population weight rows into one portfolio.

    `sparsify_rows` (default) averages the rows as produced by the
    population head; `sparsify_mean` instead projects the mean logit row
    with sparsemax, for comparing the two orderings of sparsification and
    averaging.  No renormalisation is needed: an average of simplex rows
    stays on the simplex.
    """
    if mode not in BAG_MODES:
        raise ValueError(f"unknown bag mode {mode!r}")
    if population.weights.ndim != 2 or population.weights.shape[0] < 1:
        raise ValueError("population must contain at least one member")
    if mode == "sparsify_mean":
        weights = sparsemax(population.logits.mean(axis=0))
    else:
        weights = population.weights.mean(axis=0)
    return EnsemblePortfolio(
        weights=weights,
        support_size=int(np.count_nonzero(weights)),
    )


def evaluate(weights: np.ndarray, panel: ReturnPanel) -> PortfolioEval:
    """Tracking MSE and deviation norm of one weight vector on a panel."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (panel.n_assets,):
        raise ValueError(
            f"weights shape {weights.shape} does not match panel assets {panel.n_assets}"
        )
    series = panel.returns @ weights
    deviation = series - panel.index_returns
    return PortfolioEval(
        mse=float(np.mean(deviation * deviation)),
        l2_norm=float(np.linalg.norm(deviation)),
        returns=series,
    )


def member_returns(weights: np.ndarray, panel: ReturnPanel) -> np.ndarray:
    """Daily returns of each weight row on a panel, shape (B, T).

    One matrix-vector product per row: a single (B, N) @ (N, T) product
    rounds differently in the last bits.
    """
    return np.vstack([panel.returns @ row for row in weights])


def evaluate_population(
    population: Population, panel: ReturnPanel, bag_mode: str = "sparsify_rows"
) -> EvalReport:
    """Evaluate every member and the bagged ensemble on one panel."""
    ensemble = bag(population, mode=bag_mode)
    ens_eval = evaluate(ensemble.weights, panel)
    sub_returns = member_returns(population.weights, panel)
    deviation = sub_returns - panel.index_returns
    sub_mse = np.mean(deviation * deviation, axis=1)
    if len(sub_mse) > 1:
        corr = pairwise_correlations(sub_returns)
        iu, ju = np.triu_indices(len(sub_mse), k=1)
        max_corr = float(corr[iu, ju].max())
    else:
        max_corr = 0.0
    return EvalReport(
        ensemble_mse=ens_eval.mse,
        ensemble_l2=ens_eval.l2_norm,
        mean_sub_mse=float(np.mean(sub_mse)),
        sub_mse=tuple(sub_mse.tolist()),
        max_corr=max_corr,
        support_size=ensemble.support_size,
        ensemble_weights=ensemble.weights,
    )
