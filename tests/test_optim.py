"""Update rules against hand-computed traces, plus CMA-ES behaviour."""
import numpy as np
import pytest

from qdportfolio import optim
from qdportfolio.optim import (
    BASELINE_HYPER,
    GENERATOR_HYPER,
    GRADIENT_KINDS,
    CmaesResult,
    Hyper,
    OptimError,
    OptimizerKind,
    cmaes_run,
    init_state,
    step,
)

HYPER = Hyper(learning_rate=0.1)

# Three steps on f(t1, t2) = t1^2 + 2*t2^2 (gradient (2*t1, 4*t2)) from
# (1.0, -0.5) with the defaults above, computed by an independent
# straight-line implementation of each published rule.
TRACES = {
    "sgd": (
        (0.8, -0.3),
        (0.64, -0.18),
        (0.512, -0.108),
    ),
    "adam": (
        (0.9000000005, -0.4000000005),
        (0.8004122286917928, -0.30118742062343007),
        (0.7015862729460303, -0.2048712509707239),
    ),
    "adamw": (
        (0.8990000005, -0.3995000005),
        (0.7985190271685215, -0.30029783822405925),
        (0.6989111831582321, -0.20371238138538522),
    ),
    "adamax": (
        (0.9000000005, -0.4000000005),
        (0.8051683271692486, -0.3104367534375959),
        (0.7154994733936834, -0.2309097532446795),
    ),
    "nadam": (
        (0.8943548226926871, -0.39435482269268707),
        (0.8199730706329195, -0.3246706497758343),
        (0.7527292663805714, -0.264727042439174),
    ),
    "radam": (
        (0.8, -0.3),
        (0.6210526315789474, -0.1421052631578947),
        (0.46230335987570403, -0.021499320256360394),
    ),
    "rmsprop": (
        (4.999999791976961e-08, 0.4999999500000021),
        (-2.5188822722841206e-10, -0.2088811946167557),
        (2.54431267743102e-12, 0.07638717462479233),
    ),
    "adagrad": (
        (0.9000000005, -0.4000000005),
        (0.8331035275658407, -0.33753049594084605),
        (0.7804561822187429, -0.29089917758012196),
    ),
    "rprop": (
        (0.9, -0.4),
        (0.78, -0.28),
        (0.636, -0.13600000000000004),
    ),
}


@pytest.mark.parametrize("kind", GRADIENT_KINDS, ids=lambda k: k.value)
def test_three_step_traces(kind):
    theta = np.array([1.0, -0.5])
    state = init_state(kind, 2, HYPER)
    for expected in TRACES[kind.value]:
        theta, state = step(kind, theta, np.array([2.0, 4.0]) * theta, state, HYPER)
        np.testing.assert_allclose(theta, expected, rtol=0.0, atol=1e-12)
    assert state.step == 3


@pytest.mark.parametrize("kind", GRADIENT_KINDS, ids=lambda k: k.value)
def test_quadratic_convergence(kind):
    theta = np.array([1.0, -0.5])
    state = init_state(kind, 2, HYPER)
    for _ in range(200):
        theta, state = step(kind, theta, theta.copy(), state, HYPER)
    assert np.abs(theta).max() < 0.1


@pytest.mark.parametrize("kind", GRADIENT_KINDS, ids=lambda k: k.value)
def test_zero_gradient_fixed_point(kind):
    theta = np.array([0.4, -0.2, 1.5])
    out, _ = step(kind, theta, np.zeros(3), init_state(kind, 3, HYPER), HYPER)
    if kind is OptimizerKind.ADAMW:
        # decoupled decay moves the weights even without a gradient
        np.testing.assert_allclose(out, theta * (1 - 0.1 * 0.01), atol=1e-15)
    else:
        np.testing.assert_array_equal(out, theta)


def test_step_does_not_mutate_inputs():
    theta = np.array([1.0, -0.5])
    grads = np.array([0.3, 0.7])
    state = init_state(OptimizerKind.ADAM, 2, HYPER)
    before = {k: v.copy() for k, v in state.arrays.items()}
    out, new_state = step(OptimizerKind.ADAM, theta, grads, state, HYPER)
    np.testing.assert_array_equal(theta, [1.0, -0.5])
    np.testing.assert_array_equal(grads, [0.3, 0.7])
    assert state.step == 0
    for k in before:
        np.testing.assert_array_equal(state.arrays[k], before[k])
    assert out is not theta and new_state is not state


@pytest.mark.parametrize("kind", GRADIENT_KINDS)
def test_step_returns_fresh_arrays_and_keeps_the_old_state(kind):
    # a kept state (a run's best) must survive the steps taken after it
    rng = np.random.default_rng(5)
    theta = rng.standard_normal(4)
    state = init_state(kind, 4, HYPER)
    for _ in range(3):
        count, before = state.step, {k: np.array(v, copy=True) for k, v in state.arrays.items()}
        theta, new_state = step(kind, theta, rng.standard_normal(4), state, HYPER)
        assert new_state.arrays.keys() == state.arrays.keys()
        assert (state.step, new_state.step) == (count, count + 1)
        for name, arr in new_state.arrays.items():
            assert not any(np.shares_memory(arr, old) for old in state.arrays.values()), name
        for name, arr in before.items():
            np.testing.assert_array_equal(state.arrays[name], arr)
        state = new_state


def test_rprop_sign_flip_shrinks_and_holds():
    theta = np.array([1.0, -0.5])
    state = init_state(OptimizerKind.RPROP, 2, HYPER)
    theta, state = step(OptimizerKind.RPROP, theta, np.array([2.0, -1.0]), state, HYPER)
    # coordinate 0 flips sign, coordinate 1 keeps it
    theta2, state = step(OptimizerKind.RPROP, theta, np.array([-1.0, -0.8]), state, HYPER)
    assert theta2[0] == theta[0]                       # flipped: weight held
    assert state.arrays["steps"][0] == pytest.approx(0.05)   # flipped: step halved
    assert state.arrays["steps"][1] == pytest.approx(0.12)   # same sign: step grown
    assert theta2[1] == pytest.approx(theta[1] + 0.12)
    assert state.arrays["prev"][0] == 0.0              # flip also clears the memory
    # next step: cleared memory means no further shrink on coordinate 0
    theta3, state = step(OptimizerKind.RPROP, theta2, np.array([-1.0, -1.0]), state, HYPER)
    assert state.arrays["steps"][0] == pytest.approx(0.05)
    assert theta3[0] == pytest.approx(theta2[0] + 0.05)


def test_rprop_step_bounds():
    hyper = Hyper(learning_rate=0.1, rprop_step_min=0.08, rprop_step_max=0.11)
    theta = np.array([0.0])
    state = init_state(OptimizerKind.RPROP, 1, hyper)
    _, state = step(OptimizerKind.RPROP, theta, np.array([1.0]), state, hyper)
    _, state = step(OptimizerKind.RPROP, theta, np.array([1.0]), state, hyper)
    assert state.arrays["steps"][0] == 0.11            # capped above
    _, state = step(OptimizerKind.RPROP, theta, np.array([-1.0]), state, hyper)
    assert state.arrays["steps"][0] == 0.08            # capped below


def test_init_state_shapes():
    assert set(init_state(OptimizerKind.ADAM, 4, HYPER).arrays) == {"m", "v"}
    assert set(init_state(OptimizerKind.NADAM, 4, HYPER).arrays) == {"m", "v", "mu_product"}
    assert set(init_state(OptimizerKind.ADAMAX, 4, HYPER).arrays) == {"m", "u"}
    assert set(init_state(OptimizerKind.RMSPROP, 4, HYPER).arrays) == {"v"}
    assert set(init_state(OptimizerKind.ADAGRAD, 4, HYPER).arrays) == {"acc"}
    rprop = init_state(OptimizerKind.RPROP, 4, HYPER)
    np.testing.assert_array_equal(rprop.arrays["steps"], 0.1)
    assert init_state(OptimizerKind.SGD, 4, HYPER).arrays == {}
    assert init_state("adam", 4, HYPER).kind is OptimizerKind.ADAM


def test_step_input_validation():
    state = init_state(OptimizerKind.SGD, 2, HYPER)
    with pytest.raises(OptimError):
        step(OptimizerKind.CMAES, np.zeros(2), np.zeros(2), state, HYPER)
    with pytest.raises(OptimError):
        init_state(OptimizerKind.CMAES, 2, HYPER)
    with pytest.raises(OptimError):
        init_state(OptimizerKind.SGD, 0, HYPER)
    with pytest.raises(OptimError):
        step(OptimizerKind.ADAM, np.zeros(2), np.zeros(2), state, HYPER)
    with pytest.raises(OptimError):
        step(OptimizerKind.SGD, np.zeros(3), np.zeros(2), state, HYPER)
    with pytest.raises(OptimError):
        step(OptimizerKind.SGD, np.zeros(2), np.array([1.0, np.nan]), state, HYPER)
    with pytest.raises(OptimError):
        step(OptimizerKind.SGD, np.array([np.inf, 0.0]), np.zeros(2), state, HYPER)


def test_hyper_validation():
    with pytest.raises(ValueError):
        Hyper(learning_rate=0.0)
    with pytest.raises(ValueError):
        Hyper(beta1=1.0)
    with pytest.raises(ValueError):
        Hyper(rmsprop_alpha=1.0)
    with pytest.raises(ValueError):
        Hyper(weight_decay=-0.1)
    with pytest.raises(ValueError):
        Hyper(rprop_eta_minus=1.1)
    with pytest.raises(ValueError):
        Hyper(rprop_step_min=2.0, rprop_step_max=1.0)
    with pytest.raises(ValueError):
        Hyper(cmaes_sigma0=0.0)
    assert GENERATOR_HYPER.learning_rate == 0.01
    assert BASELINE_HYPER.learning_rate == 0.1


def test_cmaes_one_dimensional_quadratic():
    result = cmaes_run(lambda x: (x[0] - 3.0) ** 2, dim=1, popsize=8, iterations=60, seed=0)
    assert isinstance(result, CmaesResult)
    assert abs(result.best_x[0] - 3.0) < 1e-6
    assert result.evaluations == 8 * 60
    assert len(result.generations) == 60


def test_cmaes_sphere_and_positive_definiteness():
    result = cmaes_run(
        lambda x: float(np.sum(x * x)), dim=5, popsize=16, iterations=200, seed=1
    )
    assert result.best_f < 1e-10
    assert all(g.min_eigenvalue > 0 for g in result.generations)
    # best-so-far dominates every per-generation best
    assert result.best_f <= min(g.best_f for g in result.generations)


def test_cmaes_deterministic_in_seed():
    obj = lambda x: float(np.sum((x - 1.0) ** 2))
    a = cmaes_run(obj, dim=3, popsize=8, iterations=20, seed=7)
    b = cmaes_run(obj, dim=3, popsize=8, iterations=20, seed=7)
    c = cmaes_run(obj, dim=3, popsize=8, iterations=20, seed=8)
    np.testing.assert_array_equal(a.best_x, b.best_x)
    assert a.best_f == b.best_f
    assert a.best_f != c.best_f


def test_cmaes_stops_when_the_covariance_condition_passes_its_limit():
    # x[1] and x[2] are flat, so C grows along them until cond(C) > 1e14;
    # without the stop, positive definiteness is lost at generation 2358
    obj = lambda x: float(x[0] ** 2)
    result = cmaes_run(obj, dim=3, popsize=8, iterations=3000, seed=0)
    n = len(result.generations)
    assert result.stop == "tolconditioncov"
    assert 1 < n < 3000
    assert [g.generation for g in result.generations] == list(range(1, n + 1))
    assert result.evaluations == 8 * n
    assert result.best_f == min(g.best_f for g in result.generations)
    # a run that ends before the limit follows the same trajectory
    short = cmaes_run(obj, dim=3, popsize=8, iterations=n // 2, seed=0)
    assert short.stop == "maxiter"
    assert [g.best_f for g in short.generations] == [g.best_f for g in result.generations[: n // 2]]


@pytest.mark.parametrize("eigenvalue", [0.0, -1e-3, np.nan])
def test_cmaes_refuses_a_covariance_that_lost_positive_definiteness(monkeypatch, eigenvalue):
    real, calls = optim.np.linalg.eigh, []

    def eigh(cov):  # the second generation's covariance reads one bad eigenvalue
        values, vectors = real(cov)
        calls.append(cov)
        if len(calls) == 2:
            values[0] = eigenvalue
        return values, vectors

    monkeypatch.setattr(optim.np.linalg, "eigh", eigh)
    with pytest.raises(OptimError, match="^covariance lost positive definiteness at generation 2$"):
        cmaes_run(lambda x: float(np.sum(x * x)), dim=3, popsize=8, iterations=5, seed=0)


def test_cmaes_argument_validation():
    obj = lambda x: 0.0
    with pytest.raises(OptimError):
        cmaes_run(obj, dim=0, popsize=8, iterations=1, seed=0)
    with pytest.raises(OptimError):
        cmaes_run(obj, dim=2, popsize=3, iterations=1, seed=0)
    with pytest.raises(OptimError):
        cmaes_run(obj, dim=2, popsize=8, iterations=0, seed=0)
    with pytest.raises(OptimError):
        cmaes_run(obj, dim=2, popsize=8, iterations=1, seed=0, sigma0=0.0)
    with pytest.raises(OptimError):
        cmaes_run(lambda x: np.nan, dim=2, popsize=8, iterations=1, seed=0)
