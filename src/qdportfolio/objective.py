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
from .marketdata import ReturnPanel

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


@dataclass
class TotalLossResult:
    loss: dc.Node
    report: LossReport
    param_nodes: dict[str, dc.Node]
    new_state: gen.GeneratorState


def portfolio_returns(weights, window: ReturnPanel) -> dc.Node:
    """Daily return series of each sub-portfolio over one window.

    Row i is the weighted sum of asset log returns under weights[i]; this
    linear blend is the standard first-order portfolio approximation.
    """
    return dc.matmul(weights, dc.as_node(window.returns.T))


def tracking_loss(series: dc.Node, index_returns: np.ndarray) -> dc.Node:
    """Mean squared deviation between every sub-portfolio and the index.

    One node; its value is the one `mean_all(square(sub(series, index)))` gives.
    """
    series = dc.as_node(series)
    index_returns = np.asarray(index_returns, dtype=np.float64)
    if series.value.shape[1] != index_returns.shape[0]:
        raise dc.GraphError("series length does not match the index series")
    deviation = series.value - index_returns
    return dc.Node((deviation * deviation).mean(), (series,), "tracking_loss",
                   lambda g: (g / deviation.size * 2.0 * deviation,))


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
    pair).  With a single sub-portfolio the term is the constant 0.  One
    node, valued as `pearson_corr` of the pair's rows; where that pair is
    variance-guarded, it is the constant 0 and marked `tie`.
    """
    series = dc.as_node(series)
    rows = series.value.shape[0]
    if rows < 2:
        return dc.as_node(0.0)
    matrix = pairwise_correlations(series.value)
    iu, ju = np.triu_indices(rows, k=1)
    best = int(np.argmax(matrix[iu, ju]))
    i, j = int(iu[best]), int(ju[best])
    r, rule = dc._pearson(series.value[i], series.value[j])

    def vjp(g):
        out = np.zeros_like(series.value)
        if rule is not None:
            out[i], out[j] = rule(g)
        return (out,)

    return dc.Node(r, (series,), "max_offdiag_corr", vjp, tie=rule is None)


def corrupt(weights, config: LossConfig, rng: np.random.Generator) -> dc.Node:
    """Randomly zero entries and jitter the survivors, staying on the simplex.

    Each entry is zeroed with probability p_zero; Gaussian noise of scale
    noise_sigma is added to the survivors; the row is clamped at zero and
    renormalised.  A row corrupted to all zeros is restored untouched.
    The masks and noise are constants, so gradients flow only through the
    surviving weight values.  One node, whose value makes the float
    operations of the graph composed from `add`, `mul`, `relu`, `sum_last`
    and `div`, in the same order.
    """
    weights = dc.as_node(weights)
    batch, n = weights.value.shape
    keep = rng.random((batch, n)) >= config.p_zero
    noise = config.noise_sigma * rng.standard_normal((batch, n))
    shifted = (weights.value + noise) * keep
    survives = shifted > 0
    clamped = shifted * survives
    sums = clamped.sum(axis=-1, keepdims=True)
    dead = sums <= 0  # (B, 1): such a row is restored
    safe = sums + dead
    normalised = clamped / safe
    value = normalised * ~dead + weights.value * dead

    def vjp(g):
        inner = (g * normalised).sum(axis=-1, keepdims=True)
        return (np.where(dead, g, (g - inner) / safe * survives),)

    return dc.Node(value, (weights,), "corrupt", vjp)


def total_loss(
    params: gen.GeneratorParams,
    state: gen.GeneratorState,
    noise: np.ndarray,
    window: ReturnPanel,
    config: LossConfig,
    rng: np.random.Generator | None = None,
) -> TotalLossResult:
    """Compose the full training graph for one iteration.

    Runs the generator, applies the training head (softmax) to its logits,
    corrupts the population weights if enabled (this consumes `rng`), and
    returns the scalar loss node tracking_mse + diversity_weight * max_corr
    together with its report.
    """
    fwd = gen.forward(params, state, noise)
    weights = dc.softmax(fwd.logits)
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
    )
    return TotalLossResult(
        loss=loss,
        report=report,
        param_nodes=fwd.param_nodes,
        new_state=fwd.state,
    )
