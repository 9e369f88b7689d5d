"""Noise-to-population generator.

A batch of Gaussian noise vectors is pushed through a valid-mode 1-D
convolution with tanh activation, one step of a stateful LSTM cell, and a
dense decoder producing one logit row per population member.  During
training the rows pass through softmax (differentiable); at evaluation
they pass through sparsemax, which projects onto the simplex and yields
exact zeros.  The LSTM state persists across iterations and is treated as
a constant within each one, so gradients never flow across iterations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import diffcore as dc

__all__ = [
    "GeneratorConfig",
    "GeneratorParams",
    "GeneratorState",
    "Population",
    "ForwardResult",
    "PARAM_ORDER",
    "param_shapes",
    "init_params",
    "sample_noise",
    "forward",
    "param_nodes",
    "sparsemax",
]

PARAM_ORDER = ("conv_w", "conv_b", "lstm_wx", "lstm_wh", "lstm_b", "dense_w", "dense_b")


@dataclass(frozen=True)
class GeneratorConfig:
    """Architecture hyperparameters; every dimension is validated."""

    n_assets: int
    noise_dim: int = 16
    conv_channels: int = 8
    conv_kernel: int = 3
    lstm_hidden: int = 64
    population: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.n_assets < 2:
            raise ValueError("need at least two assets")
        if self.conv_kernel < 1 or self.noise_dim < self.conv_kernel:
            raise ValueError("conv kernel must satisfy 1 <= kernel <= noise_dim")
        if min(self.conv_channels, self.lstm_hidden, self.population) < 1:
            raise ValueError("channels, hidden size and population must be positive")

    @property
    def conv_out_len(self) -> int:
        return self.noise_dim - self.conv_kernel + 1

    @property
    def features(self) -> int:
        return self.conv_channels * self.conv_out_len

    @property
    def parameter_count(self) -> int:
        return sum(int(np.prod(shape)) for shape in param_shapes(self).values())


def param_shapes(config: GeneratorConfig) -> dict[str, tuple[int, ...]]:
    c, k, h, n, f = (
        config.conv_channels,
        config.conv_kernel,
        config.lstm_hidden,
        config.n_assets,
        config.features,
    )
    return {
        "conv_w": (c, k),
        "conv_b": (c,),
        "lstm_wx": (4 * h, f),
        "lstm_wh": (4 * h, h),
        "lstm_b": (4 * h,),
        "dense_w": (n, h),
        "dense_b": (n,),
    }


@dataclass
class GeneratorParams:
    """All trainable arrays, keyed and flattened in `PARAM_ORDER`."""

    conv_w: np.ndarray
    conv_b: np.ndarray
    lstm_wx: np.ndarray
    lstm_wh: np.ndarray
    lstm_b: np.ndarray
    dense_w: np.ndarray
    dense_b: np.ndarray

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_ORDER}

    def flatten(self) -> np.ndarray:
        return np.concatenate([getattr(self, name).ravel() for name in PARAM_ORDER])

    @classmethod
    def from_flat(cls, config: GeneratorConfig, flat: np.ndarray) -> "GeneratorParams":
        """Named views into `flat`, which is not copied when it is float64."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (config.parameter_count,):
            raise ValueError(
                f"expected a flat vector of {config.parameter_count} values, got {flat.shape}"
            )
        arrays = {}
        offset = 0
        for name, shape in param_shapes(config).items():
            size = int(np.prod(shape))
            arrays[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        return cls(**arrays)


@dataclass
class GeneratorState:
    """Recurrent state carried across iterations (one row per member)."""

    h: np.ndarray  # (B, H)
    c: np.ndarray  # (B, H)
    iteration: int = 0

    @classmethod
    def zeros(cls, config: GeneratorConfig) -> "GeneratorState":
        shape = (config.population, config.lstm_hidden)
        return cls(h=np.zeros(shape), c=np.zeros(shape), iteration=0)


@dataclass
class Population:
    """A batch of candidate portfolios: logits plus simplex weights.

    In train mode `weights_node` is the differentiable softmax node the
    loss should consume; at evaluation the rows come from sparsemax and
    only the arrays are kept.
    """

    logits: np.ndarray
    weights: np.ndarray
    mode: str
    weights_node: dc.Node | None = None


@dataclass
class ForwardResult:
    population: Population
    state: GeneratorState
    param_nodes: dict[str, dc.Node]


def init_params(config: GeneratorConfig, rng: np.random.Generator | None = None) -> GeneratorParams:
    """Uniform Glorot initialisation; biases zero except the forget gate at 1."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    shapes = param_shapes(config)
    h = config.lstm_hidden

    def glorot(shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    conv_w = glorot(shapes["conv_w"], config.conv_kernel, config.conv_channels * config.conv_kernel)
    lstm_wx = glorot(shapes["lstm_wx"], config.features, 4 * h)
    lstm_wh = glorot(shapes["lstm_wh"], h, 4 * h)
    dense_w = glorot(shapes["dense_w"], h, config.n_assets)
    lstm_b = np.zeros(shapes["lstm_b"])
    lstm_b[h : 2 * h] = 1.0
    return GeneratorParams(
        conv_w=conv_w,
        conv_b=np.zeros(shapes["conv_b"]),
        lstm_wx=lstm_wx,
        lstm_wh=lstm_wh,
        lstm_b=lstm_b,
        dense_w=dense_w,
        dense_b=np.zeros(shapes["dense_b"]),
    )


def sample_noise(config: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """One standard-normal noise row per population member."""
    return rng.standard_normal((config.population, config.noise_dim))


def param_nodes(params: GeneratorParams) -> dict[str, dc.Node]:
    return {name: dc.Node(arr, op=name) for name, arr in params.as_dict().items()}


def _decode(pnodes: Mapping[str, dc.Node], state: GeneratorState, noise: np.ndarray):
    """Shared graph construction from parameter nodes to logits."""
    batch, _ = noise.shape
    channels = pnodes["conv_w"].value.shape[0]
    x = dc.as_node(noise)
    conv = dc.conv1d_valid(x, pnodes["conv_w"])
    conv = dc.add(conv, dc.reshape(pnodes["conv_b"], (1, channels, 1)))
    feat = dc.reshape(dc.tanh(conv), (batch, -1))
    h_new, c_new = dc.lstm_cell(
        feat,
        dc.as_node(state.h),
        dc.as_node(state.c),
        pnodes["lstm_wx"],
        pnodes["lstm_wh"],
        pnodes["lstm_b"],
    )
    logits = dc.add(dc.matmul(h_new, dc.transpose(pnodes["dense_w"])), pnodes["dense_b"])
    return logits, h_new, c_new


def forward(
    params: GeneratorParams,
    state: GeneratorState,
    noise: np.ndarray,
    mode: str = "train",
) -> ForwardResult:
    """Map one noise batch to a population and advance the recurrent state.

    The returned state holds plain arrays: the recurrence is truncated at
    length one, so the next iteration sees it as a constant.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    noise = np.asarray(noise, dtype=np.float64)
    batch = state.h.shape[0]
    if noise.ndim != 2 or noise.shape[0] != batch:
        raise dc.GraphError(
            f"noise shape {noise.shape} does not match population size {batch}"
        )
    pnodes = param_nodes(params)
    logits, h_new, c_new = _decode(pnodes, state, noise)
    if mode == "train":
        weights_node = dc.softmax(logits)
        population = Population(
            logits=logits.value,
            weights=weights_node.value,
            mode="train",
            weights_node=weights_node,
        )
    else:
        population = Population(
            logits=logits.value,
            weights=sparsemax(logits.value),
            mode="eval",
        )
    new_state = GeneratorState(h=h_new.value, c=c_new.value, iteration=state.iteration + 1)
    return ForwardResult(population=population, state=new_state, param_nodes=pnodes)


def sparsemax(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex.

    Sort descending, keep the largest support whose threshold stays below
    its smallest member, subtract the threshold and clamp at zero.  Exact
    zeros are produced for everything outside the support.  Adding a
    constant to a row does not change its projection, so the rows are
    shifted by their maxima first for numerical stability.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("sparsemax requires finite inputs")
    single = z.ndim == 1
    rows = z[None, :] if single else z
    if rows.ndim != 2 or rows.shape[-1] < 1:
        raise ValueError("sparsemax expects a vector or a matrix of row vectors")
    shifted = rows - rows.max(axis=-1, keepdims=True)
    top = np.sort(shifted, axis=-1)[:, ::-1]
    cumulative = np.cumsum(top, axis=-1)
    ranks = np.arange(1, rows.shape[-1] + 1)
    support = 1.0 + ranks * top > cumulative
    kappa = support.sum(axis=-1)
    tau = (np.take_along_axis(cumulative, kappa[:, None] - 1, axis=-1) - 1.0) / kappa[:, None]
    out = np.maximum(shifted - tau, 0.0)
    return out[0] if single else out
