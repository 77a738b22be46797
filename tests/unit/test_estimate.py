"""Unit tests for bootstrap, intervals, closed forms and variation ranges."""

import numpy as np
import pytest

from repro.estimate import (
    ConfidenceInterval,
    PoissonWeightSource,
    VariationRange,
    count_interval,
    derive_rng,
    derive_seed,
    mean_interval,
    normal_quantile,
    percentile_interval,
    percentile_intervals,
    range_from_replicas,
    ranges_from_replica_matrix,
    relative_stdev,
    relative_stdevs,
    sum_interval,
    z_value,
)


class TestRandomSource:
    def test_same_label_same_seed(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_different_labels_differ(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_rngs_reproducible(self):
        a = derive_rng(5, "x").normal(size=3)
        b = derive_rng(5, "x").normal(size=3)
        np.testing.assert_array_equal(a, b)


class TestPoissonWeights:
    def test_shape_and_mean(self):
        source = PoissonWeightSource(50, master_seed=1)
        w = source.weights_for(4000)
        assert w.shape == (4000, 50)
        assert w.mean() == pytest.approx(1.0, abs=0.05)

    def test_sequential_draws_differ(self):
        source = PoissonWeightSource(10, master_seed=1)
        a = source.weights_for(10)
        b = source.weights_for(10)
        assert not np.array_equal(a, b)

    def test_reproducible_stream(self):
        a = PoissonWeightSource(10, master_seed=2).weights_for(20)
        b = PoissonWeightSource(10, master_seed=2).weights_for(20)
        np.testing.assert_array_equal(a, b)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            PoissonWeightSource(0, master_seed=1)


class TestBootstrapAgreement:
    def test_bootstrap_std_matches_clt(self):
        rng = np.random.default_rng(4)
        values = rng.normal(10, 2, 5000)
        # The engine's Poisson(1) weights: one weighted mean per trial.
        weights = PoissonWeightSource(200, master_seed=5).weights_for(
            len(values)
        ).astype(np.float64)
        reps = values @ weights / weights.sum(axis=0)
        clt_se = values.std(ddof=1) / np.sqrt(len(values))
        assert reps.std() == pytest.approx(clt_se, rel=0.3)


class TestIntervals:
    def test_percentile_interval_contains_bulk(self):
        reps = np.random.default_rng(0).normal(10, 1, 1000)
        ci = percentile_interval(reps, 0.95)
        inside = ((reps >= ci.low) & (reps <= ci.high)).mean()
        assert inside == pytest.approx(0.95, abs=0.02)
        assert ci.contains(10.0)

    def test_percentile_intervals_rowwise(self):
        matrix = np.stack([np.arange(100.0), np.arange(100.0) + 50])
        lows, highs = percentile_intervals(matrix, 0.9)
        assert lows[1] - lows[0] == pytest.approx(50.0)

    def test_relative_stdev(self):
        assert relative_stdev(10.0, np.array([9.0, 11.0])) == \
            pytest.approx(0.1)
        assert relative_stdev(0.0, np.array([0.0, 0.0])) == 0.0
        assert relative_stdev(0.0, np.array([1.0, -1.0])) == np.inf

    def test_relative_stdevs_vector(self):
        out = relative_stdevs(
            np.array([10.0, 0.0]),
            np.array([[9.0, 11.0], [0.0, 0.0]]),
        )
        assert out[0] == pytest.approx(0.1) and out[1] == 0.0

    def test_interval_str(self):
        text = str(ConfidenceInterval(1.0, 2.0, 0.95))
        assert "95%" in text


class TestClosedForm:
    def test_normal_quantile_accuracy(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.001) == pytest.approx(-3.09023, abs=1e-4)

    def test_z_value_table_and_computed(self):
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.8) == pytest.approx(1.281552, abs=1e-4)

    def test_mean_interval_covers_truth(self):
        rng = np.random.default_rng(6)
        hits = 0
        for trial in range(200):
            sample = rng.normal(50, 10, 400)
            if mean_interval(sample, 0.95).contains(50.0):
                hits += 1
        assert 0.90 <= hits / 200 <= 0.99

    def test_sum_interval_scales(self):
        sample = np.ones(100)
        ci = sum_interval(sample, population_size=1000)
        assert ci.low == pytest.approx(1000.0) and ci.width == \
            pytest.approx(0.0)

    def test_count_interval(self):
        mask = np.array([1, 0, 1, 0] * 50)
        ci = count_interval(mask, population_size=2000)
        assert ci.contains(1000.0)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            normal_quantile(0.0)


class TestVariationRanges:
    def test_degenerate(self):
        r = VariationRange.degenerate(5.0)
        assert r.contains(5.0) and r.width == 0.0

    def test_contains_all(self):
        r = VariationRange(0.0, 10.0)
        assert r.contains_all(np.array([0.0, 5.0, 10.0]))
        assert not r.contains_all(np.array([5.0, 11.0]))
        assert r.contains_all(np.array([]))

    def test_overlap(self):
        assert VariationRange(0, 5).overlaps(VariationRange(5, 10))
        assert not VariationRange(0, 4).overlaps(VariationRange(5, 10))

    def test_intersect(self):
        out = VariationRange(0, 6).intersect(VariationRange(4, 10))
        assert (out.low, out.high) == (4, 6)

    def test_disjoint_intersection_collapses(self):
        out = VariationRange(0, 1).intersect(VariationRange(5, 6))
        assert out.width == 0.0

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            VariationRange(2.0, 1.0)

    def test_range_from_replicas_covers(self):
        reps = np.array([9.0, 10.0, 11.0])
        r = range_from_replicas(10.0, reps, epsilon_multiplier=1.0)
        assert r.contains_all(reps) and r.contains(10.0)
        eps = reps.std()
        assert r.low == pytest.approx(9.0 - eps)
        assert r.high == pytest.approx(11.0 + eps)

    def test_epsilon_zero_is_minmax(self):
        reps = np.array([1.0, 3.0])
        r = range_from_replicas(2.0, reps, epsilon_multiplier=0.0)
        assert (r.low, r.high) == (1.0, 3.0)

    def test_estimate_outside_replicas_still_covered(self):
        r = range_from_replicas(100.0, np.array([1.0, 2.0]), 0.0)
        assert r.contains(100.0)

    def test_matrix_ranges(self):
        est = np.array([10.0, 20.0])
        matrix = np.array([[9.0, 11.0], [18.0, 22.0]])
        lows, highs = ranges_from_replica_matrix(est, matrix, 1.0)
        assert lows[0] < 9.0 and highs[1] > 22.0
        assert len(lows) == 2
