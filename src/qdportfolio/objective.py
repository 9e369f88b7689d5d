"""Training objective: tracking error plus a population-diversity penalty.

The population weights are first corrupted (random zeroing plus additive
noise, clamped and renormalised) so the tracking term is optimised under
perturbation; the diversity term is the maximum off-diagonal Pearson
correlation between the sub-portfolio return series, whose subgradient
flows only through the two series attaining the maximum.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import generator as gen
from .marketdata import ReturnPanel, WindowSample

__all__ = [
    "LossConfig",
    "LossReport",
    "TotalLossResult",
    "portfolio_returns",
    "tracking_loss",
    "pairwise_correlations",
    "max_offdiag_corr",
    "corrupt",
    "total_loss",
]


@dataclass(frozen=True)
class LossConfig:
    """Loss weights and corruption parameters.

    The default diversity weight is small on purpose: daily log-return
    MSE sits around 1e-5 while the correlation term is order one, so a
    weight near 1e-6 keeps tracking dominant early in training.  Larger
    weights (0.01) buy visibly decorrelated sub-portfolios at a real cost
    in tracking error.
    """

    diversity_weight: float = 1e-6
    p_zero: float = 0.1
    noise_sigma: float = 0.01
    corruption_enabled: bool = True

    def __post_init__(self):
        if self.diversity_weight < 0:
            raise ValueError("diversity weight must be non-negative")
        if not (0.0 <= self.p_zero <= 1.0):
            raise ValueError("p_zero must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")


@dataclass(frozen=True)
class LossReport:
    """Scalar summary of one training objective evaluation."""

    tracking_mse: float
    max_corr: float
    total: float
    window_start: int


@dataclass
class TotalLossResult:
    loss: dc.Node
    report: LossReport
    param_nodes: dict[str, dc.Node]
    new_state: gen.GeneratorState
    population: gen.Population


def portfolio_returns(weights, window: WindowSample | ReturnPanel) -> dc.Node:
    """Daily return series of each sub-portfolio over one window.

    Row i is the weighted sum of asset log returns under weights[i]; this
    linear blend is the standard first-order portfolio approximation.
    """
    if window.returns.shape[0] < 2:
        raise dc.GraphError("window must contain at least two rows")
    return dc.matmul(weights, dc.as_node(window.returns.T.copy()))


def tracking_loss(series: dc.Node, index_returns: np.ndarray) -> dc.Node:
    """Mean squared deviation between every sub-portfolio and the index."""
    series = dc.as_node(series)
    index_returns = np.asarray(index_returns, dtype=np.float64)
    if series.value.shape[1] != index_returns.shape[0]:
        raise dc.GraphError("series length does not match the index series")
    deviation = dc.sub(series, dc.as_node(index_returns[None, :]))
    return dc.mean_all(dc.square(deviation))


def pairwise_correlations(series: np.ndarray) -> np.ndarray:
    """Correlation matrix of row series with the variance guard applied.

    Rows whose population variance falls below the guard threshold are
    treated as constant: their correlation with anything is 0.
    """
    series = np.asarray(series, dtype=np.float64)
    rows, length = series.shape
    centred = series - series.mean(axis=1, keepdims=True)
    sq = (centred * centred).sum(axis=1)
    valid = (sq / length) >= dc.VARIANCE_GUARD
    norms = np.sqrt(np.where(valid, sq, 1.0))
    corr = (centred @ centred.T) / np.outer(norms, norms)
    corr[~valid, :] = 0.0
    corr[:, ~valid] = 0.0
    np.fill_diagonal(corr, np.where(valid, 1.0, 0.0))
    return corr


def max_offdiag_corr(series: dc.Node) -> dc.Node:
    """Largest pairwise correlation between sub-portfolio return series.

    A hard max: the value scans all pairs, but the gradient flows only
    through the argmax pair (ties resolve to the lexicographically first
    pair).  With a single sub-portfolio the term is the constant 0.
    """
    series = dc.as_node(series)
    rows = series.value.shape[0]
    if rows < 2:
        return dc.as_node(0.0)
    matrix = pairwise_correlations(series.value)
    iu, ju = np.triu_indices(rows, k=1)
    best = int(np.argmax(matrix[iu, ju]))
    i, j = int(iu[best]), int(ju[best])
    return dc.pearson_corr(dc.take_row(series, i), dc.take_row(series, j))


def corrupt(weights, config: LossConfig, rng: np.random.Generator) -> dc.Node:
    """Randomly zero entries and jitter the survivors, staying on the simplex.

    Each entry is zeroed with probability p_zero; Gaussian noise of scale
    noise_sigma is added to the survivors; the row is clamped at zero and
    renormalised.  A row corrupted to all zeros is restored untouched.
    The masks and noise are constants, so gradients flow only through the
    surviving weight values.
    """
    weights = dc.as_node(weights)
    if weights.value.ndim != 2:
        raise dc.GraphError("corrupt expects a (population, assets) matrix")
    batch, n = weights.value.shape
    keep = (rng.random((batch, n)) >= config.p_zero).astype(np.float64)
    noise = config.noise_sigma * rng.standard_normal((batch, n))
    clamped = dc.relu(dc.mul(dc.add(weights, dc.as_node(noise)), dc.as_node(keep)))
    sums = dc.sum_last(clamped)
    alive = (sums.value > 0).astype(np.float64)  # (B, 1)
    safe = dc.add(sums, dc.as_node(1.0 - alive))
    normalised = dc.div(clamped, safe)
    return dc.add(
        dc.mul(normalised, dc.as_node(alive)),
        dc.mul(weights, dc.as_node(1.0 - alive)),
    )


def total_loss(
    params: gen.GeneratorParams,
    state: gen.GeneratorState,
    noise: np.ndarray,
    window: WindowSample,
    config: LossConfig,
    rng: np.random.Generator | None = None,
) -> TotalLossResult:
    """Compose the full training graph for one iteration.

    Runs the generator in train mode, corrupts the population weights if
    enabled (this consumes `rng`), and returns the scalar loss node
    tracking_mse + diversity_weight * max_corr together with its report.
    """
    fwd = gen.forward(params, state, noise, mode="train")
    weights = fwd.population.weights_node
    assert weights is not None
    if config.corruption_enabled:
        if rng is None:
            raise ValueError("corruption requires a random stream")
        weights = corrupt(weights, config, rng)
    series = portfolio_returns(weights, window)
    track = tracking_loss(series, window.index_returns)
    corr = max_offdiag_corr(series)
    loss = dc.add(track, dc.mul(corr, dc.as_node(config.diversity_weight)))
    report = LossReport(
        tracking_mse=float(track.value),
        max_corr=float(corr.value),
        total=float(loss.value),
        window_start=window.start,
    )
    return TotalLossResult(
        loss=loss,
        report=report,
        param_nodes=fwd.param_nodes,
        new_state=fwd.state,
        population=fwd.population,
    )
