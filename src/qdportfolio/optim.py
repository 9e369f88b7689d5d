"""First-order update rules on flat parameter vectors, plus CMA-ES.

Every gradient rule is a pure function: `step` takes the parameter
vector, the gradient and an optimizer state and returns fresh copies.
The formulas follow the original publications of each method; RMSprop
keeps its own published smoothing constant (0.99) instead of reusing the
Adam second-moment default, and Rprop is the no-backtracking variant in
which a sign flip shrinks the step and skips the weight update.
"""
from __future__ import annotations

import enum
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptimizerKind",
    "GRADIENT_KINDS",
    "Hyper",
    "GENERATOR_HYPER",
    "BASELINE_HYPER",
    "OptimizerState",
    "OptimError",
    "init_state",
    "step",
    "CmaesGeneration",
    "CmaesResult",
    "cmaes_run",
]

_NADAM_PSI = 0.004  # momentum-schedule decay from the Nadam publication


class OptimError(ValueError):
    """Invalid optimizer input (shape mismatch, non-finite gradient, ...)."""


class OptimizerKind(str, enum.Enum):
    SGD = "sgd"
    ADAM = "adam"
    ADAMW = "adamw"
    ADAMAX = "adamax"
    NADAM = "nadam"
    RADAM = "radam"
    RMSPROP = "rmsprop"
    ADAGRAD = "adagrad"
    RPROP = "rprop"
    CMAES = "cmaes"


GRADIENT_KINDS: tuple[OptimizerKind, ...] = tuple(
    k for k in OptimizerKind if k is not OptimizerKind.CMAES
)


@dataclass(frozen=True)
class Hyper:
    """Shared hyperparameters; defaults are the published ones per method."""

    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    rmsprop_alpha: float = 0.99
    rprop_eta_plus: float = 1.2
    rprop_eta_minus: float = 0.5
    rprop_step_min: float = 1e-6
    rprop_step_max: float = 50.0
    cmaes_sigma0: float = 0.3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta coefficients must lie in [0, 1)")
        if not (0.0 < self.rmsprop_alpha < 1.0):
            raise ValueError("rmsprop smoothing must lie in (0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
        if not (self.rprop_eta_minus < 1.0 < self.rprop_eta_plus):
            raise ValueError("rprop factors must straddle 1")
        if not (0 < self.rprop_step_min < self.rprop_step_max):
            raise ValueError("rprop step bounds must satisfy 0 < min < max")
        if self.cmaes_sigma0 <= 0:
            raise ValueError("cmaes initial step must be positive")


# Meta-training of the generator uses a smaller rate; direct optimisation
# of a logits vector uses the larger baseline rate.
GENERATOR_HYPER = Hyper(learning_rate=0.01)
BASELINE_HYPER = Hyper(learning_rate=0.1)


@dataclass
class OptimizerState:
    """Step counter plus per-kind auxiliary arrays.

    `step` never writes into a state's arrays: each rule binds fresh arrays
    to the keys it updates, so a state can be kept while training goes on.
    """

    kind: OptimizerKind
    step: int
    arrays: dict[str, np.ndarray]


def init_state(kind: OptimizerKind, dim: int, hyper: Hyper) -> OptimizerState:
    kind = OptimizerKind(kind)
    if kind is OptimizerKind.CMAES:
        raise OptimError("cmaes does not use per-step state; call cmaes_run")
    if dim < 1:
        raise OptimError("dimension must be positive")
    zeros = lambda: np.zeros(dim)
    arrays: dict[str, np.ndarray]
    if kind in (OptimizerKind.ADAM, OptimizerKind.ADAMW, OptimizerKind.RADAM):
        arrays = {"m": zeros(), "v": zeros()}
    elif kind is OptimizerKind.NADAM:
        arrays = {"m": zeros(), "v": zeros(), "mu_product": np.ones(())}
    elif kind is OptimizerKind.ADAMAX:
        arrays = {"m": zeros(), "u": zeros()}
    elif kind is OptimizerKind.RMSPROP:
        arrays = {"v": zeros()}
    elif kind is OptimizerKind.ADAGRAD:
        arrays = {"acc": zeros()}
    elif kind is OptimizerKind.RPROP:
        arrays = {"steps": np.full(dim, hyper.learning_rate), "prev": zeros()}
    else:
        arrays = {}
    return OptimizerState(kind=kind, step=0, arrays=arrays)


def step(
    kind: OptimizerKind,
    params: np.ndarray,
    grads: np.ndarray,
    state: OptimizerState,
    hyper: Hyper,
) -> tuple[np.ndarray, OptimizerState]:
    """Apply one update; returns new parameters and the advanced state."""
    kind = OptimizerKind(kind)
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if kind is OptimizerKind.CMAES:
        raise OptimError("cmaes is not a per-step rule; call cmaes_run")
    if state.kind is not kind:
        raise OptimError(f"state built for {state.kind.value}, stepped as {kind.value}")
    if params.shape != grads.shape or params.ndim != 1:
        raise OptimError(f"parameter/gradient shapes differ: {params.shape} vs {grads.shape}")
    if not np.all(np.isfinite(grads)):
        raise OptimError("non-finite gradient")
    if not np.all(np.isfinite(params)):
        raise OptimError("non-finite parameters")

    new = OptimizerState(kind=kind, step=state.step + 1, arrays=dict(state.arrays))

    # Extreme hyperparameters may overflow transiently; the finiteness
    # check below turns that into an OptimError instead of a warning.
    old_err = np.seterr(over="ignore", invalid="ignore", divide="ignore")
    try:
        out = _apply_rule(kind, params, grads, new.arrays, new.step, hyper)
    finally:
        np.seterr(**old_err)

    if not np.all(np.isfinite(out)):
        raise OptimError("update produced non-finite parameters")
    return out, new


def _apply_rule(
    kind: OptimizerKind,
    params: np.ndarray,
    grads: np.ndarray,
    a: dict[str, np.ndarray],
    t: int,
    hyper: Hyper,
) -> np.ndarray:
    lr, b1, b2, eps = hyper.learning_rate, hyper.beta1, hyper.beta2, hyper.eps

    if kind is OptimizerKind.SGD:
        out = params - lr * grads

    elif kind in (OptimizerKind.ADAM, OptimizerKind.ADAMW):
        a["m"] = b1 * a["m"] + (1 - b1) * grads
        a["v"] = b2 * a["v"] + (1 - b2) * grads * grads
        m_hat = a["m"] / (1 - b1**t)
        v_hat = a["v"] / (1 - b2**t)
        out = params - lr * m_hat / (np.sqrt(v_hat) + eps)
        if kind is OptimizerKind.ADAMW:
            # Decoupled decay: applied to the incoming parameters, not the gradient.
            out = out - lr * hyper.weight_decay * params

    elif kind is OptimizerKind.ADAMAX:
        a["m"] = b1 * a["m"] + (1 - b1) * grads
        a["u"] = np.maximum(b2 * a["u"], np.abs(grads))
        out = params - (lr / (1 - b1**t)) * a["m"] / (a["u"] + eps)

    elif kind is OptimizerKind.NADAM:
        mu_t = b1 * (1 - 0.5 * 0.96 ** (t * _NADAM_PSI))
        mu_next = b1 * (1 - 0.5 * 0.96 ** ((t + 1) * _NADAM_PSI))
        a["m"] = b1 * a["m"] + (1 - b1) * grads
        a["v"] = b2 * a["v"] + (1 - b2) * grads * grads
        a["mu_product"] = a["mu_product"] * mu_t
        prod = float(a["mu_product"])
        m_hat = mu_next * a["m"] / (1 - prod * mu_next) + (1 - mu_t) * grads / (1 - prod)
        v_hat = a["v"] / (1 - b2**t)
        out = params - lr * m_hat / (np.sqrt(v_hat) + eps)

    elif kind is OptimizerKind.RADAM:
        rho_inf = 2.0 / (1 - b2) - 1.0
        a["m"] = b1 * a["m"] + (1 - b1) * grads
        a["v"] = b2 * a["v"] + (1 - b2) * grads * grads
        m_hat = a["m"] / (1 - b1**t)
        rho_t = rho_inf - 2.0 * t * b2**t / (1 - b2**t)
        if rho_t > 4.0:
            rect = np.sqrt(
                ((rho_t - 4) * (rho_t - 2) * rho_inf)
                / ((rho_inf - 4) * (rho_inf - 2) * rho_t)
            )
            v_hat = a["v"] / (1 - b2**t)
            out = params - lr * rect * m_hat / (np.sqrt(v_hat) + eps)
        else:
            # Variance of the adaptive rate is intractable early on; fall
            # back to the unadapted momentum step.
            out = params - lr * m_hat

    elif kind is OptimizerKind.RMSPROP:
        alpha = hyper.rmsprop_alpha
        a["v"] = alpha * a["v"] + (1 - alpha) * grads * grads
        out = params - lr * grads / (np.sqrt(a["v"]) + eps)

    elif kind is OptimizerKind.ADAGRAD:
        a["acc"] = a["acc"] + grads * grads
        out = params - lr * grads / (np.sqrt(a["acc"]) + eps)

    elif kind is OptimizerKind.RPROP:
        sign_change = a["prev"] * grads
        steps = a["steps"].copy()
        steps[sign_change > 0] = np.minimum(
            steps[sign_change > 0] * hyper.rprop_eta_plus, hyper.rprop_step_max
        )
        steps[sign_change < 0] = np.maximum(
            steps[sign_change < 0] * hyper.rprop_eta_minus, hyper.rprop_step_min
        )
        # No backtracking: after a sign flip the gradient is treated as
        # zero, so the weight is left unchanged for one step.
        effective = np.where(sign_change < 0, 0.0, grads)
        out = params - np.sign(effective) * steps
        a["steps"] = steps
        a["prev"] = effective

    else:  # pragma: no cover - the enum is closed
        raise OptimError(f"unhandled kind {kind}")

    return out


@dataclass(frozen=True)
class CmaesGeneration:
    """Per-generation trace of a CMA-ES run."""

    generation: int
    best_f: float
    best_x: np.ndarray
    mean: np.ndarray
    sigma: float
    min_eigenvalue: float
    seconds: float  # wall clock of this generation


@dataclass
class CmaesResult:
    best_x: np.ndarray
    best_f: float
    generations: list[CmaesGeneration]
    evaluations: int


def cmaes_run(
    objective,
    dim: int,
    popsize: int,
    iterations: int,
    seed: int,
    sigma0: float = 0.3,
    x0: np.ndarray | None = None,
) -> CmaesResult:
    """Full covariance-matrix-adaptation evolution strategy.

    Weighted (mu/mu_w, lambda) recombination with rank-one and rank-mu
    covariance updates and cumulative step-size adaptation; all learning
    constants are the standard default formulas in the dimension and the
    population size.  The covariance is eigendecomposed every generation,
    which also verifies it stays positive definite.
    """
    if dim < 1:
        raise OptimError("dimension must be positive")
    if popsize < 4:
        raise OptimError("population size must be at least 4")
    if iterations < 1:
        raise OptimError("need at least one generation")
    if sigma0 <= 0:
        raise OptimError("initial step size must be positive")
    rng = np.random.default_rng(seed)
    n = dim
    lam = popsize
    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mueff = 1.0 / float(weights @ weights)

    c_sigma = (mueff + 2) / (n + mueff + 5)
    d_sigma = 1 + 2 * max(0.0, np.sqrt((mueff - 1) / (n + 1)) - 1) + c_sigma
    c_c = (4 + mueff / n) / (n + 4 + 2 * mueff / n)
    c_1 = 2 / ((n + 1.3) ** 2 + mueff)
    c_mu = min(1 - c_1, 2 * (mueff - 2 + 1 / mueff) / ((n + 2) ** 2 + mueff))
    chi_n = np.sqrt(n) * (1 - 1 / (4 * n) + 1 / (21 * n * n))

    mean = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if mean.shape != (n,):
        raise OptimError(f"x0 must have shape ({n},)")
    sigma = float(sigma0)
    cov = np.eye(n)
    p_sigma = np.zeros(n)
    p_c = np.zeros(n)

    best_x = mean.copy()
    best_f = np.inf
    generations: list[CmaesGeneration] = []
    evaluations = 0

    for g in range(1, iterations + 1):
        t0 = time.monotonic()
        cov = (cov + cov.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(cov)
        min_eig = float(eigvals.min())
        if min_eig <= 0 or not np.all(np.isfinite(eigvals)):
            raise OptimError(f"covariance lost positive definiteness at generation {g}")
        scales = np.sqrt(eigvals)

        z = rng.standard_normal((lam, n))
        y = z @ (eigvecs * scales).T          # y_i = B diag(D) z_i
        x = mean + sigma * y
        f = np.empty(lam)
        for i in range(lam):
            f[i] = float(objective(x[i]))
        evaluations += lam
        if not np.all(np.isfinite(f)):
            raise OptimError(f"non-finite objective value at generation {g}")

        order = np.argsort(f, kind="stable")
        gen_best = int(order[0])
        if f[gen_best] < best_f:
            best_f = float(f[gen_best])
            best_x = x[gen_best].copy()

        y_sel = y[order[:mu]]
        y_w = weights @ y_sel
        mean = mean + sigma * y_w

        inv_sqrt_yw = eigvecs @ ((eigvecs.T @ y_w) / scales)
        p_sigma = (1 - c_sigma) * p_sigma + np.sqrt(c_sigma * (2 - c_sigma) * mueff) * inv_sqrt_yw
        ps_norm = float(np.linalg.norm(p_sigma))
        h_sigma = float(
            ps_norm / np.sqrt(1 - (1 - c_sigma) ** (2 * g)) < (1.4 + 2 / (n + 1)) * chi_n
        )
        p_c = (1 - c_c) * p_c + h_sigma * np.sqrt(c_c * (2 - c_c) * mueff) * y_w
        delta_h = (1 - h_sigma) * c_c * (2 - c_c)

        rank_mu = (y_sel * weights[:, None]).T @ y_sel
        cov = (
            (1 - c_1 - c_mu) * cov
            + c_1 * (np.outer(p_c, p_c) + delta_h * cov)
            + c_mu * rank_mu
        )
        sigma = sigma * float(np.exp((c_sigma / d_sigma) * (ps_norm / chi_n - 1)))

        generations.append(
            CmaesGeneration(
                generation=g,
                best_f=float(f[gen_best]),
                best_x=x[gen_best].copy(),
                mean=mean.copy(),
                sigma=sigma,
                min_eigenvalue=min_eig,
                seconds=time.monotonic() - t0,
            )
        )

    return CmaesResult(
        best_x=best_x, best_f=best_f, generations=generations, evaluations=evaluations
    )
