"""Generator architecture: shapes, init, sparsemax projection, statefulness."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdportfolio import diffcore as dc
from qdportfolio.generator import (
    PARAM_ORDER,
    GeneratorConfig,
    GeneratorParams,
    GeneratorState,
    forward,
    init_params,
    param_shapes,
    sample_noise,
    sparse_population,
    sparsemax,
)

TINY = GeneratorConfig(
    n_assets=5, noise_dim=6, conv_channels=2, conv_kernel=3, lstm_hidden=4, population=3, seed=0
)


def simplex_projection_bruteforce(z):
    """Reference projection: try every support set, keep the closest feasible point."""
    z = np.asarray(z, dtype=np.float64)
    n = z.size
    best, best_dist = None, np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            tau = (z[list(support)].sum() - 1.0) / size
            w = np.zeros(n)
            w[list(support)] = z[list(support)] - tau
            if w.min() < -1e-12:
                continue
            dist = np.sum((w - z) ** 2)
            if dist < best_dist:
                best, best_dist = w, dist
    return best


def test_parameter_count_small_example():
    config = GeneratorConfig(
        n_assets=2, noise_dim=1, conv_channels=1, conv_kernel=1, lstm_hidden=1, population=1
    )
    # conv 1+1, lstm 4*1*1 + 4*1 + 4, dense 2*1 + 2
    assert config.parameter_count == 18
    assert init_params(config, np.random.default_rng(config.seed)).flatten().size == 18


def test_parameter_count_matches_shapes():
    shapes = param_shapes(TINY)
    assert sum(int(np.prod(s)) for s in shapes.values()) == TINY.parameter_count
    assert tuple(shapes) == PARAM_ORDER
    assert shapes["lstm_wx"] == (16, TINY.features)
    assert TINY.conv_out_len == 4 and TINY.features == 8


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_assets=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_assets=3, noise_dim=2, conv_kernel=5)
    with pytest.raises(ValueError):
        GeneratorConfig(n_assets=3, population=0)


def test_init_params_deterministic_and_forget_biased():
    a = init_params(TINY, np.random.default_rng(TINY.seed))
    b = init_params(TINY, np.random.default_rng(TINY.seed))
    np.testing.assert_array_equal(a.flatten(), b.flatten())
    h = TINY.lstm_hidden
    np.testing.assert_array_equal(a.lstm_b[h : 2 * h], 1.0)
    np.testing.assert_array_equal(a.lstm_b[:h], 0.0)
    np.testing.assert_array_equal(a.lstm_b[2 * h :], 0.0)
    np.testing.assert_array_equal(a.conv_b, 0.0)
    np.testing.assert_array_equal(a.dense_b, 0.0)
    different = init_params(TINY, np.random.default_rng(99))
    assert not np.array_equal(a.conv_w, different.conv_w)


def test_flatten_from_flat_round_trip():
    params = init_params(TINY, np.random.default_rng(4))
    flat = params.flatten()
    again = GeneratorParams.from_flat(TINY, flat)
    for name in PARAM_ORDER:
        np.testing.assert_array_equal(getattr(again, name), getattr(params, name))
        # views, not copies: the training loop carries only the flat vector
        assert np.shares_memory(getattr(again, name), flat)
    with pytest.raises(ValueError):
        GeneratorParams.from_flat(TINY, np.zeros(TINY.parameter_count + 1))


def test_sample_noise_moments():
    config = GeneratorConfig(n_assets=3, population=10000)
    noise = sample_noise(config, np.random.default_rng(0))
    assert noise.shape == (10000, 16)
    assert abs(noise.mean()) < 0.05
    assert abs(noise.std() - 1.0) < 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparsemax_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    for _ in range(60):
        z = rng.normal(scale=rng.uniform(0.1, 3.0), size=rng.integers(2, 7))
        np.testing.assert_allclose(
            sparsemax(z), simplex_projection_bruteforce(z), atol=1e-12
        )


def test_sparsemax_pinned_examples():
    np.testing.assert_array_equal(sparsemax(np.array([2.0, 0.0, 0.0])), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        sparsemax(np.array([0.7, 0.3, -1.0])), [0.7, 0.3, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(sparsemax(np.zeros(4)), 0.25)
    np.testing.assert_allclose(sparsemax(np.full(3, 7.5)), 1.0 / 3.0)


@pytest.mark.parametrize("z", [np.zeros((2, 2, 3)), np.zeros(0)], ids=["rank_3", "empty"])
def test_sparsemax_refuses_what_is_not_rows(z):
    with pytest.raises(ValueError, match="^sparsemax expects a vector or a matrix of row vectors$"):
        sparsemax(z)


def test_sparsemax_shift_invariance_exact():
    # dyadic entries and shifts stay exact through the max subtraction
    z = np.array([0.5, -1.25, 2.0, 0.0, -0.75])
    for shift in (0.5, -4.0, 1024.0):
        np.testing.assert_array_equal(sparsemax(z + shift), sparsemax(z))


def test_sparsemax_rows_and_invariants():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(40, 8)) * 2.0
    w = sparsemax(z)
    assert w.shape == z.shape
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert w.min() >= 0.0
    # a spread row should produce exact zeros, and order must be preserved
    assert np.any(w == 0.0)
    for row_z, row_w in zip(z, w):
        order = np.argsort(row_z)
        assert np.all(np.diff(row_w[order]) >= -1e-15)
    with pytest.raises(ValueError):
        sparsemax(np.array([1.0, np.nan]))


def logit_rows(elements):
    return hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=elements)


BOUNDED = st.floats(-1e6, 1e6)
# multiples of 1/1024: sums and differences below 2**20 stay exact
GRID = st.integers(-(2**28), 2**28).map(lambda k: k / 1024)


@settings(max_examples=150, deadline=None)
@given(z=logit_rows(BOUNDED))
def test_sparsemax_rows_lie_on_the_simplex(z):
    w = sparsemax(z)
    assert w.shape == z.shape
    assert w.min() >= 0.0
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(z=logit_rows(GRID), shift=st.integers(-(2**18), 2**18))
def test_sparsemax_is_exactly_shift_invariant(z, shift):
    np.testing.assert_array_equal(sparsemax(z + shift), sparsemax(z))


@settings(max_examples=150, deadline=None)
@given(z=logit_rows(BOUNDED))
def test_sparsemax_preserves_order(z):
    w = sparsemax(z)
    order = np.argsort(z, axis=1, kind="stable")
    assert np.all(np.diff(np.take_along_axis(w, order, axis=1), axis=1) >= 0.0)


def test_sparse_population_of_a_vector_is_one_row():
    logits = np.array([0.5, -1.25, 2.0, 0.0])
    pop = sparse_population(logits)
    assert pop.mode == "eval"
    np.testing.assert_array_equal(pop.logits, logits[None, :])
    np.testing.assert_array_equal(pop.weights, sparsemax(logits)[None, :])


def test_forward_train_mode_softmax_rows():
    params = init_params(TINY, np.random.default_rng(TINY.seed))
    state = GeneratorState.zeros(TINY)
    noise = sample_noise(TINY, np.random.default_rng(1))
    weights = dc.softmax(forward(params, state, noise).logits).value
    assert weights.shape == (TINY.population, TINY.n_assets)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    assert weights.min() > 0.0


def test_forward_eval_mode_sparsemax_rows():
    params = init_params(TINY, np.random.default_rng(TINY.seed))
    state = GeneratorState.zeros(TINY)
    noise = 3.0 * sample_noise(TINY, np.random.default_rng(1))
    pop = sparse_population(forward(params, state, noise).logits.value)
    assert pop.mode == "eval"
    np.testing.assert_allclose(pop.weights.sum(axis=1), 1.0, atol=1e-12)
    assert pop.weights.min() >= 0.0
    np.testing.assert_allclose(pop.weights, sparsemax(pop.logits), atol=1e-15)


def test_forward_validates_inputs():
    params = init_params(TINY, np.random.default_rng(TINY.seed))
    state = GeneratorState.zeros(TINY)
    noise = sample_noise(TINY, np.random.default_rng(0))
    with pytest.raises(dc.GraphError):
        forward(params, state, noise[:, :-1])
    with pytest.raises(dc.GraphError):
        forward(params, state, noise[:-1])


def test_state_carries_across_iterations():
    params = init_params(TINY, np.random.default_rng(TINY.seed))
    state = GeneratorState.zeros(TINY)
    noise = sample_noise(TINY, np.random.default_rng(5))
    first = forward(params, state, noise)
    second = forward(params, first.state, noise)
    # same noise, same params: only the recurrent state changed
    assert np.max(np.abs(second.logits.value - first.logits.value)) > 1e-8
    assert not np.array_equal(first.state.h, state.h)
    # resetting the state reproduces the first output exactly
    again = forward(params, GeneratorState.zeros(TINY), noise)
    np.testing.assert_array_equal(again.logits.value, first.logits.value)
