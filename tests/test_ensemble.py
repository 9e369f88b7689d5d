"""Bagging and out-of-sample evaluation of populations."""
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdportfolio.ensemble import (
    EXPORT_WEIGHT_FLOOR,
    bag,
    evaluate,
    evaluate_population,
    member_returns,
)
from qdportfolio.generator import Population, sparsemax
from qdportfolio.marketdata import ReturnPanel, synth_dataset


def make_population(weights, logits=None, mode="eval"):
    weights = np.asarray(weights, dtype=np.float64)
    return Population(
        logits=weights.copy() if logits is None else np.asarray(logits, dtype=np.float64),
        weights=weights,
        mode=mode,
    )


def random_population(rng, batch, n):
    logits = rng.normal(size=(batch, n)) * 2.0
    return make_population(sparsemax(logits), logits=logits)


def make_panel(n_assets=6, seed=0, noise_scale=0.001):
    panel, weights = synth_dataset(
        n_assets=n_assets, n_days=120, k_sparse=3, noise_scale=noise_scale, seed=seed
    )
    return panel, weights


def test_bag_single_member_is_identity():
    weights = sparsemax(np.array([[1.5, 0.2, -0.4, 0.0]]))
    ensemble = bag(make_population(weights))
    np.testing.assert_array_equal(ensemble.weights, weights[0])


def test_bag_two_members_is_midpoint():
    weights = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    ensemble = bag(make_population(weights))
    np.testing.assert_allclose(ensemble.weights, [0.5, 0.25, 0.25], atol=1e-15)


def test_bag_matches_bruteforce_mean():
    rng = np.random.default_rng(5)
    population = random_population(rng, 16, 7)
    ensemble = bag(population)
    expected = population.weights.sum(axis=0) / 16.0
    np.testing.assert_allclose(ensemble.weights, expected, atol=1e-15)
    np.testing.assert_allclose(ensemble.weights.sum(), 1.0, atol=1e-12)
    assert ensemble.weights.min() >= 0.0


def test_bag_is_permutation_invariant():
    rng = np.random.default_rng(9)
    population = random_population(rng, 10, 5)
    shuffled = make_population(
        population.weights[::-1].copy(), logits=population.logits[::-1].copy()
    )
    np.testing.assert_allclose(
        bag(population).weights, bag(shuffled).weights, atol=1e-15
    )
    np.testing.assert_allclose(
        bag(population, "sparsify_mean").weights,
        bag(shuffled, "sparsify_mean").weights,
        atol=1e-15,
    )


def test_bag_sparsify_mean_projects_mean_logits():
    rng = np.random.default_rng(2)
    population = random_population(rng, 8, 6)
    ensemble = bag(population, mode="sparsify_mean")
    np.testing.assert_allclose(
        ensemble.weights, sparsemax(population.logits.mean(axis=0)), atol=1e-15
    )
    with pytest.raises(ValueError):
        bag(population, mode="sparsify_logits")


def test_ensemble_support_within_union_of_member_supports():
    rng = np.random.default_rng(14)
    population = random_population(rng, 12, 9)
    ensemble = bag(population)
    union = np.any(population.weights > 0, axis=0)
    assert np.all(union[ensemble.weights > 0])


def test_evaluate_oracle_algebra():
    panel, _ = make_panel(n_assets=3, noise_scale=0.0)
    weights = np.array([0.2, 0.3, 0.5])
    result = evaluate(weights, panel)
    series = panel.returns @ weights
    np.testing.assert_allclose(result.returns, series, atol=1e-15)
    dev = series - panel.index_returns
    assert result.mse == pytest.approx(np.mean(dev**2), abs=1e-18)
    assert result.l2_norm == pytest.approx(np.sqrt(np.sum(dev**2)), abs=1e-15)
    with pytest.raises(ValueError):
        evaluate(weights[:2], panel)


def test_evaluate_true_weights_have_zero_error():
    panel, true_weights = make_panel(noise_scale=0.0)
    result = evaluate(true_weights, panel)
    assert result.mse <= 1e-28
    assert result.l2_norm <= 1e-13


def test_jensen_gap_over_random_populations():
    """Averaging weights can never lose to the average member, up to fp slack."""
    panel, _ = make_panel(n_assets=8, seed=3)
    rng = np.random.default_rng(7)
    for trial in range(50):
        population = random_population(rng, int(rng.integers(2, 20)), 8)
        report = evaluate_population(population, panel)
        assert report.ensemble_mse <= report.mean_sub_mse + 1e-12, f"trial {trial}"


@st.composite
def simplex_population_on_panel(draw):
    """A 1-8 member population on the simplex over 2-10 assets, and a finite panel."""
    n_assets = draw(st.integers(2, 10))
    n_rows = draw(st.integers(2, 40))
    cells = st.floats(-1.0, 1.0, allow_subnormal=False)
    returns = draw(hnp.arrays(np.float64, (n_rows, n_assets), elements=cells))
    index_returns = draw(hnp.arrays(np.float64, n_rows, elements=cells))
    masses = draw(hnp.arrays(np.float64, (draw(st.integers(1, 8)), n_assets),
                             elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    masses[:, 0] += 1e-3  # every row has positive mass to normalise
    panel = ReturnPanel(
        dates=tuple(date(2020, 1, 1) + timedelta(days=t) for t in range(n_rows)),
        tickers=tuple(f"A{j}" for j in range(n_assets)),
        returns=returns,
        index_returns=index_returns,
    )
    return make_population(masses / masses.sum(axis=1, keepdims=True)), panel


@settings(max_examples=200, deadline=None)
@given(case=simplex_population_on_panel())
def test_ensemble_is_no_worse_than_its_average_member(case):
    """The tracking MSE is convex in the weights, so the bagged rows never lose to their mean."""
    population, panel = case
    report = evaluate_population(population, panel, bag_mode="sparsify_rows")
    # rounding moves each daily deviation by a few ulps per asset of the largest value, which
    # decides the order alone when every member tracks the index to that level
    scale = max(np.abs(panel.returns).max(), np.abs(panel.index_returns).max())
    rounding = 4 * (panel.n_assets + 8) * np.finfo(np.float64).eps * scale
    assert report.ensemble_mse <= (np.sqrt(report.mean_sub_mse * (1 + 1e-12)) + rounding) ** 2


def test_sparsify_mean_can_lose_to_its_average_member():
    """A documented non-invariant: the bound above holds for `sparsify_rows` alone.

    One member holds the index's one asset and the other member the other
    asset.  Their mean logit row projects onto the other asset alone, so the
    `sparsify_mean` ensemble misses by twice the average member's MSE.
    """
    index = np.array([0.01, -0.02, 0.015])
    panel = ReturnPanel(
        dates=tuple(date(2020, 1, 1) + timedelta(days=t) for t in range(3)),
        tickers=("A0", "A1"),
        returns=np.column_stack([index, [-0.01, 0.02, 0.0]]),
        index_returns=index,
    )
    logits = np.array([[1.0, 0.0], [-10.0, 10.0]])
    population = make_population(sparsemax(logits), logits=logits)
    np.testing.assert_array_equal(population.weights, [[1.0, 0.0], [0.0, 1.0]])
    mean = evaluate_population(population, panel, bag_mode="sparsify_mean")
    np.testing.assert_array_equal(mean.ensemble_weights, [0.0, 1.0])
    assert mean.ensemble_mse == pytest.approx(2 * mean.mean_sub_mse, rel=1e-12)
    rows = evaluate_population(population, panel, bag_mode="sparsify_rows")
    assert rows.ensemble_mse == pytest.approx(mean.mean_sub_mse / 2, rel=1e-12)


def test_evaluate_population_report_consistency():
    panel, _ = make_panel(n_assets=5, seed=8)
    rng = np.random.default_rng(1)
    population = random_population(rng, 6, 5)
    report = evaluate_population(population, panel)
    sub_returns = member_returns(population.weights, panel)
    members = [evaluate(row, panel) for row in population.weights]
    assert report.mean_sub_mse == float(np.mean([m.mse for m in members]))
    np.testing.assert_allclose(
        evaluate(report.ensemble_weights, panel).returns, panel.returns @ report.ensemble_weights,
        atol=1e-15,
    )
    assert sub_returns.shape == (6, panel.n_rows)
    expected_corr = np.corrcoef(sub_returns)
    iu, ju = np.triu_indices(6, k=1)
    assert report.max_corr == pytest.approx(expected_corr[iu, ju].max(), abs=1e-12)
    # per-member mse recomputed independently
    for row, member in zip(population.weights, members):
        dev = panel.returns @ row - panel.index_returns
        assert member.mse == pytest.approx(np.mean(dev**2), rel=1e-12)


@pytest.mark.parametrize("batch", [1, 5, 64])
def test_evaluate_population_equals_member_by_member_evaluate(batch):
    panel, _ = synth_dataset(n_assets=30, n_days=700, k_sparse=4, noise_scale=0.002, seed=batch)
    population = random_population(np.random.default_rng(batch), batch, 30)
    report = evaluate_population(population, panel)
    members = [evaluate(row, panel) for row in population.weights]
    # the reference is evaluated one member at a time: equal to the last bit
    sub_returns = member_returns(population.weights, panel)
    assert sub_returns.tobytes() == np.vstack([m.returns for m in members]).tobytes()
    assert report.mean_sub_mse == float(np.mean([m.mse for m in members]))


def test_evaluate_population_single_member_corr_is_zero():
    panel, _ = make_panel(n_assets=4, seed=2)
    population = make_population(sparsemax(np.array([[0.9, 0.1, -0.2, 0.0]])))
    report = evaluate_population(population, panel)
    assert report.max_corr == 0.0
    assert report.ensemble_mse == pytest.approx(report.mean_sub_mse, rel=1e-15)


def test_identical_members_close_jensen_gap():
    panel, _ = make_panel(n_assets=5, seed=4)
    row = sparsemax(np.array([0.6, 0.4, 0.0, -0.5, 0.1]))
    population = make_population(np.tile(row, (7, 1)))
    report = evaluate_population(population, panel)
    assert report.ensemble_mse == pytest.approx(report.mean_sub_mse, rel=1e-14)
    assert report.max_corr == pytest.approx(1.0, abs=1e-12)


def test_affine_scaling_of_deviations():
    """Scaling every deviation by c scales the mse by c^2."""
    panel, true_weights = make_panel(n_assets=6, noise_scale=0.0, seed=10)
    other = np.roll(true_weights, 1)
    base = evaluate(other, panel)
    # blend toward the perfect portfolio: deviation scales linearly
    for c in (0.5, 0.25):
        blended = c * other + (1 - c) * true_weights
        result = evaluate(blended, panel)
        assert result.mse == pytest.approx(c * c * base.mse, rel=1e-10)
        assert result.l2_norm == pytest.approx(c * base.l2_norm, rel=1e-10)


def test_export_weight_floor_is_tiny():
    assert 0.0 < EXPORT_WEIGHT_FLOOR <= 1e-12
