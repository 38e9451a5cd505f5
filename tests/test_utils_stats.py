"""Unit tests for repro.utils.stats."""

import numpy as np
import pytest

from repro.utils.stats import Cdf, jain_fairness, percentile


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == pytest.approx(2.0)

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0], 50.0) == pytest.approx(1.5)

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 9.0

    def test_matches_numpy(self):
        data = list(np.random.default_rng(0).normal(size=37))
        for q in (5, 25, 50, 75, 95):
            assert percentile(data, q) == pytest.approx(float(np.percentile(data, q)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_single_element(self):
        assert percentile([7.0], 33.0) == 7.0


class TestJainFairness:
    def test_equal_allocation_is_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_winner_is_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_all_zero_is_fair(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_fairness([])


class TestCdf:
    def test_evaluate_simple(self):
        cdf = Cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(2.5) == pytest.approx(0.5)
        assert cdf.evaluate(4.0) == pytest.approx(1.0)
        assert cdf.evaluate(0.5) == 0.0

    def test_median(self):
        cdf = Cdf([10.0, 20.0, 30.0])
        assert cdf.median() == 20.0

    def test_fraction_below_strict(self):
        cdf = Cdf([1.0, 1.0, 2.0, 3.0])
        assert cdf.fraction_below(1.0) == 0.0
        assert cdf.fraction_below(1.5) == pytest.approx(0.5)

    def test_add_invalidates_cache(self):
        cdf = Cdf([1.0])
        assert cdf.evaluate(1.0) == 1.0
        cdf.add(2.0)
        assert cdf.evaluate(1.0) == pytest.approx(0.5)

    def test_points_monotonic(self):
        cdf = Cdf(np.random.default_rng(1).normal(size=500))
        pts = cdf.points(max_points=50)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_mean(self):
        assert Cdf([1.0, 3.0]).mean() == 2.0

    def test_empty_evaluate_raises(self):
        with pytest.raises(ValueError):
            Cdf().evaluate(1.0)

    def test_quantile_matches_percentile(self):
        data = [1.0, 5.0, 2.0, 8.0]
        assert Cdf(data).quantile(0.25) == percentile(data, 25.0)

    def test_len(self):
        assert len(Cdf([1, 2, 3])) == 3
