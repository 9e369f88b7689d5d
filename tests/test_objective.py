"""Training objective: tracking error, diversity penalty, weight corruption."""
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
    init_params,
    sample_noise,
    sparsemax,
)
from qdportfolio.marketdata import DataError, sample_window, synth_dataset
from qdportfolio.objective import (
    LossConfig,
    corrupt,
    max_offdiag_corr,
    pairwise_correlations,
    portfolio_returns,
    total_loss,
    tracking_loss,
)


def make_window(n_assets=4, n_days=40, length=12, seed=2):
    panel, _ = synth_dataset(
        n_assets=n_assets, n_days=n_days, k_sparse=2, noise_scale=0.001, seed=seed
    )
    return sample_window(panel, length, np.random.default_rng(0))


def test_loss_config_defaults_and_validation():
    config = LossConfig()
    assert config.diversity_weight == 1e-6
    assert config.p_zero == 0.1
    assert config.noise_sigma == 0.01
    assert config.corruption_enabled
    with pytest.raises(ValueError):
        LossConfig(diversity_weight=-1.0)
    with pytest.raises(ValueError):
        LossConfig(p_zero=1.5)
    with pytest.raises(ValueError):
        LossConfig(noise_sigma=-0.1)


def test_portfolio_returns_oracle():
    window = make_window()
    weights = np.array(
        [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 1.0]]
    )
    series = portfolio_returns(weights, window)
    np.testing.assert_allclose(series.value, weights @ window.returns.T, atol=1e-15)
    with pytest.raises(dc.GraphError):
        portfolio_returns(weights[:, :3], window)
    with pytest.raises(dc.GraphError):
        portfolio_returns(weights[0], window)
    # a window of one row never reaches portfolio_returns: the panel refuses it
    with pytest.raises(DataError, match="^a return panel needs at least two rows, got 1$"):
        window.slice_rows(0, 1)


def test_tracking_loss_pinned_values():
    class FakeWindow:
        returns = np.zeros((2, 1))
        index_returns = np.zeros(2)

    series = dc.as_node(np.array([[0.2, 0.0]]))
    assert tracking_loss(series, np.zeros(2)).value == pytest.approx(0.02, abs=1e-15)
    series = dc.as_node(np.full((2, 2), 0.01))
    assert tracking_loss(series, np.zeros(2)).value == pytest.approx(1e-4, abs=1e-18)
    # perfect replication has zero loss
    window = make_window()
    exact = dc.as_node(np.vstack([window.index_returns, window.index_returns]))
    assert tracking_loss(exact, window.index_returns).value == 0.0
    with pytest.raises(dc.GraphError):
        tracking_loss(exact, window.index_returns[:-1])


def test_pairwise_correlations_matches_numpy():
    rng = np.random.default_rng(6)
    series = rng.normal(size=(5, 30))
    np.testing.assert_allclose(
        pairwise_correlations(series), np.corrcoef(series), atol=1e-12
    )


def test_pairwise_correlations_variance_guard():
    rng = np.random.default_rng(1)
    series = rng.normal(size=(3, 20))
    series[1, :] = 0.123  # constant row: below the variance guard
    corr = pairwise_correlations(series)
    np.testing.assert_array_equal(corr[1, :], 0.0)
    np.testing.assert_array_equal(corr[:, 1], 0.0)
    assert corr[0, 0] == 1.0 and corr[2, 2] == 1.0


def test_max_offdiag_corr_value_and_gradient_routing():
    rng = np.random.default_rng(4)
    base = rng.normal(size=(4, 25))
    base[1] = 0.9 * base[0] + 0.1 * rng.normal(size=25)  # make (0, 1) the argmax pair
    series = dc.Node(base, op="series")
    node = max_offdiag_corr(series)
    matrix = np.corrcoef(base)
    iu, ju = np.triu_indices(4, k=1)
    assert node.value == pytest.approx(matrix[iu, ju].max(), abs=1e-12)
    dc.backward(node)
    grad = series.grad
    # only the argmax pair participates in the subgradient
    assert np.any(grad[0] != 0.0) and np.any(grad[1] != 0.0)
    np.testing.assert_array_equal(grad[2], 0.0)
    np.testing.assert_array_equal(grad[3], 0.0)


def test_max_offdiag_corr_single_row_is_zero():
    node = max_offdiag_corr(dc.as_node(np.random.default_rng(0).normal(size=(1, 10))))
    assert node.value == 0.0


def test_corrupt_stays_on_simplex():
    rng = np.random.default_rng(11)
    weights = rng.dirichlet(np.ones(6), size=8)
    out = corrupt(dc.as_node(weights), LossConfig(p_zero=0.3, noise_sigma=0.05), rng)
    np.testing.assert_allclose(out.value.sum(axis=1), 1.0, atol=1e-12)
    assert out.value.min() >= 0.0
    with pytest.raises(ValueError):  # one row is not a (population, assets) matrix
        corrupt(dc.as_node(weights[0]), LossConfig(), rng)


@settings(max_examples=150, deadline=None)
@given(
    logits=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=st.floats(-1e6, 1e6)),
    p_zero=st.floats(0.0, 1.0),
    noise_sigma=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_corrupt_stays_on_simplex_for_any_knobs(logits, p_zero, noise_sigma, seed):
    weights = sparsemax(logits)
    config = LossConfig(p_zero=p_zero, noise_sigma=noise_sigma)
    out = corrupt(dc.as_node(weights), config, np.random.default_rng(seed)).value
    assert out.shape == weights.shape
    assert out.min() >= 0.0
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_corrupt_identity_when_disabled_knobs_are_zero():
    rng = np.random.default_rng(0)
    weights = np.random.default_rng(2).dirichlet(np.ones(5), size=4)
    out = corrupt(dc.as_node(weights), LossConfig(p_zero=0.0, noise_sigma=0.0), rng)
    np.testing.assert_allclose(out.value, weights, atol=1e-15)


def test_corrupt_restores_fully_zeroed_rows():
    rng = np.random.default_rng(0)
    weights = np.random.default_rng(3).dirichlet(np.ones(4), size=5)
    leaf = dc.Node(weights.copy())
    out = corrupt(leaf, LossConfig(p_zero=1.0, noise_sigma=0.0), rng)
    np.testing.assert_array_equal(out.value, weights)
    # a restored row passes its gradient through unchanged
    direction = np.random.default_rng(4).standard_normal((5, 4))
    dc.backward(dc.sum_all(dc.mul(out, dc.as_node(direction))))
    np.testing.assert_array_equal(leaf.grad, direction)


def test_corrupt_consumes_the_stream_deterministically():
    weights = np.random.default_rng(5).dirichlet(np.ones(6), size=4)
    config = LossConfig(p_zero=0.4, noise_sigma=0.02)
    a = corrupt(dc.as_node(weights), config, np.random.default_rng(42)).value
    b = corrupt(dc.as_node(weights), config, np.random.default_rng(42)).value
    c = corrupt(dc.as_node(weights), config, np.random.default_rng(43)).value
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# --------------------------------------------------------------------------
# the fused loss nodes against the graphs composed from primitives

def composed_corrupt(weights, config, rng):
    """The graph that `corrupt` fuses, built from the primitives."""
    weights = dc.as_node(weights)
    batch, n = weights.value.shape
    keep = (rng.random((batch, n)) >= config.p_zero).astype(np.float64)
    noise = config.noise_sigma * rng.standard_normal((batch, n))
    clamped = dc.relu(dc.mul(dc.add(weights, dc.as_node(noise)), dc.as_node(keep)))
    sums = dc.sum_last(clamped)
    alive = (sums.value > 0).astype(np.float64)
    safe = dc.add(sums, dc.as_node(1.0 - alive))
    normalised = dc.div(clamped, safe)
    return dc.add(
        dc.mul(normalised, dc.as_node(alive)),
        dc.mul(weights, dc.as_node(1.0 - alive)),
    )


def composed_tracking_loss(series, index_returns):
    """The graph that `tracking_loss` fuses."""
    deviation = dc.sub(series, dc.as_node(index_returns[None, :]))
    return dc.mean_all(dc.square(deviation))


def composed_max_offdiag_corr(series):
    """The graph that `max_offdiag_corr` fuses: `pearson_corr` of the argmax pair's rows."""
    rows = series.value.shape[0]
    if rows < 2:
        return dc.as_node(0.0)
    matrix = pairwise_correlations(series.value)
    iu, ju = np.triu_indices(rows, k=1)
    best = int(np.argmax(matrix[iu, ju]))
    return dc.pearson_corr(dc.take_row(series, int(iu[best])), dc.take_row(series, int(ju[best])))


def _fused_and_composed(fused, composed, point, direction):
    """Per graph: its node, the gradient of <node, direction> at the leaf `point`, and the
    largest gradient entry the graph carries."""
    results = []
    for build in (fused, composed):
        leaf = dc.Node(point.copy(), op="leaf")
        node = build(leaf)
        grads = dc.backward(dc.sum_all(dc.mul(node, dc.as_node(direction))))
        results.append((node, leaf.grad, max(np.abs(g).max() for g in grads.values())))
    return results


def _assert_same_value_close_gradient(fused, composed):
    """Bit-identical values; gradients within 1e-12 of the largest gradient the composed
    graph carries, for a gradient that is 0 exactly may read as rounding in either graph."""
    (node, grad, _), (oracle, oracle_grad, scale) = fused, composed
    assert node.value.tobytes() == oracle.value.tobytes()
    assert node.tie == oracle.tie
    assert len(node.parents) == 1  # one node over its input
    assert np.abs(grad - oracle_grad).max() <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(
    batch=st.integers(1, 8), n=st.integers(2, 8), length=st.integers(2, 30),
    p_zero=st.one_of(st.just(1.0), st.floats(0.0, 1.0)), noise_sigma=st.floats(0.0, 0.5),
    constant_rows=st.sets(st.integers(0, 7)), equal_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_loss_nodes_match_their_composed_graphs(batch, n, length, p_zero, noise_sigma,
                                                      constant_rows, equal_rows, seed):
    rng = np.random.default_rng(seed)
    weights = dc.softmax(dc.as_node(3.0 * rng.standard_normal((batch, n)))).value  # the training head
    config = LossConfig(p_zero=p_zero, noise_sigma=noise_sigma)
    _assert_same_value_close_gradient(*_fused_and_composed(
        lambda w: corrupt(w, config, np.random.default_rng(seed)),
        lambda w: composed_corrupt(w, config, np.random.default_rng(seed)),
        weights, rng.standard_normal((batch, n)),
    ))
    series = 0.01 * rng.standard_normal((batch, length))
    if equal_rows:
        series[:] = series[0]
    for r in constant_rows:  # population variance 0: below the guard
        series[r % batch] = 0.003
    index = 0.01 * rng.standard_normal(length)
    _assert_same_value_close_gradient(*_fused_and_composed(
        lambda s: tracking_loss(s, index), lambda s: composed_tracking_loss(s, index),
        series, np.array(rng.standard_normal()),
    ))
    if batch > 1:  # one row is the constant 0, with no node over the series
        _assert_same_value_close_gradient(*_fused_and_composed(
            max_offdiag_corr, composed_max_offdiag_corr, series, np.array(rng.standard_normal()),
        ))


def test_max_offdiag_corr_of_a_guarded_pair_is_a_tied_zero():
    series = np.vstack([np.full(10, 0.002), np.full(10, -0.001), np.linspace(0, 1, 10)])
    (node, grad, _), _ = _fused_and_composed(
        max_offdiag_corr, composed_max_offdiag_corr, series, np.array(1.0))
    assert node.value == 0.0 and node.tie
    np.testing.assert_array_equal(grad, np.zeros_like(series))
    with pytest.raises(dc.GradCheckError, match="'max_offdiag_corr'"):
        dc.grad_check(max_offdiag_corr, series)


@pytest.mark.parametrize("p_zero", [0.3, 1.0])
def test_fused_loss_nodes_pass_grad_check(p_zero):
    rng = np.random.default_rng(12)
    weights = rng.dirichlet(np.ones(6), size=4)
    direction = dc.as_node(rng.standard_normal((4, 6)))
    config = LossConfig(p_zero=p_zero, noise_sigma=0.01)
    errors = [dc.grad_check(
        lambda w: dc.sum_all(dc.mul(corrupt(w, config, np.random.default_rng(5)), direction)),
        weights)]
    series = rng.standard_normal((4, 15))
    index = rng.standard_normal(15)
    errors.append(dc.grad_check(lambda s: tracking_loss(s, index), series))
    errors.append(dc.grad_check(max_offdiag_corr, series))
    assert max(errors) < 1e-6


TINY = GeneratorConfig(
    n_assets=4, noise_dim=4, conv_channels=2, conv_kernel=2, lstm_hidden=3, population=3, seed=0
)


def run_total(config_loss, rng=None, seed=0):
    params = init_params(TINY, np.random.default_rng(seed))
    state = GeneratorState.zeros(TINY)
    noise = sample_noise(TINY, np.random.default_rng(seed + 1))
    window = make_window(n_assets=4, length=10)
    return total_loss(params, state, noise, window, config_loss, rng=rng)


def test_total_loss_zero_weight_equals_tracking_exactly():
    result = run_total(LossConfig(diversity_weight=0.0, corruption_enabled=False))
    assert result.loss.value == result.report.tracking_mse
    assert result.report.total == result.report.tracking_mse


def test_total_loss_composition_and_monotonicity():
    small = run_total(LossConfig(diversity_weight=1e-4, corruption_enabled=False))
    large = run_total(LossConfig(diversity_weight=1e-2, corruption_enabled=False))
    assert small.report.tracking_mse == large.report.tracking_mse
    assert small.report.max_corr == large.report.max_corr
    assert small.report.max_corr > 0.0
    assert large.report.total > small.report.total
    expected = small.report.tracking_mse + 1e-4 * small.report.max_corr
    assert small.report.total == pytest.approx(expected, rel=1e-12)


def test_total_loss_requires_stream_for_corruption():
    with pytest.raises(ValueError, match="random stream"):
        run_total(LossConfig(corruption_enabled=True), rng=None)


def test_total_loss_returns_param_nodes_in_order():
    window = make_window(n_assets=4, length=10)
    params = init_params(TINY, np.random.default_rng(TINY.seed))
    result = total_loss(
        params,
        GeneratorState.zeros(TINY),
        sample_noise(TINY, np.random.default_rng(1)),
        window,
        LossConfig(corruption_enabled=False),
    )
    assert list(result.param_nodes) == list(PARAM_ORDER)


def test_total_loss_gradients_match_finite_differences():
    """Central differences over every parameter of a small end-to-end graph."""
    loss_config = LossConfig(diversity_weight=1e-3, corruption_enabled=False)
    params = init_params(TINY, np.random.default_rng(7))
    state = GeneratorState.zeros(TINY)
    noise = sample_noise(TINY, np.random.default_rng(8))
    window = make_window(n_assets=4, length=10)

    result = total_loss(params, state, noise, window, loss_config)
    dc.backward(result.loss)
    analytic = np.concatenate(
        [result.param_nodes[name].grad.ravel() for name in result.param_nodes]
    )

    flat = params.flatten()
    step = 1e-6
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        up = total_loss(
            GeneratorParams.from_flat(TINY, bumped), state, noise, window, loss_config
        ).loss.value
        bumped[i] -= 2 * step
        down = total_loss(
            GeneratorParams.from_flat(TINY, bumped), state, noise, window, loss_config
        ).loss.value
        numeric[i] = (up - down) / (2 * step)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < 1e-6


def test_pruned_training_graph_keeps_every_parameter_gradient(monkeypatch):
    """Constants skipped by `backward` change no bit of any parameter's gradient."""
    config = GeneratorConfig(n_assets=12, seed=3)
    params = init_params(config, np.random.default_rng(config.seed))
    state = GeneratorState(
        h=np.random.default_rng(4).normal(size=(config.population, config.lstm_hidden)),
        c=np.random.default_rng(5).normal(size=(config.population, config.lstm_hidden)),
    )
    noise = sample_noise(config, np.random.default_rng(6))
    window = make_window(n_assets=12, n_days=120, length=60)

    def gradients():
        result = total_loss(params, state, noise, window, LossConfig(), np.random.default_rng(7))
        nodes = dc.backward(result.loss)
        return nodes, [result.param_nodes[name].grad for name in PARAM_ORDER]

    pruned_nodes, pruned = gradients()
    assert all(node.needs for node in pruned_nodes)
    # every constant built as a leaf that needs a gradient: nothing is pruned
    monkeypatch.setattr(
        dc, "as_node", lambda v: v if isinstance(v, dc.Node) else dc.Node(v, op="const")
    )
    full_nodes, full = gradients()
    assert len(pruned_nodes) < len(full_nodes)
    for name, kept, reference in zip(PARAM_ORDER, pruned, full):
        np.testing.assert_array_equal(kept, reference, err_msg=name)
