"""Unit tests for confidence intervals, running moments and allocation helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.stats.allocation import (
    cumulative_sqrt_frequency_boundaries,
    neyman_allocation,
    proportional_allocation,
)
from repro.stats.ci import (
    margin_of_error,
    normal_critical_value,
    normal_interval,
    required_sample_size,
    wilson_interval,
)
from repro.stats.running import RunningMean


class TestConfidenceIntervals:
    def test_critical_values(self):
        assert normal_critical_value(0.95) == pytest.approx(1.959964, abs=1e-4)
        assert normal_critical_value(0.90) == pytest.approx(1.644854, abs=1e-4)
        assert normal_critical_value(0.99) == pytest.approx(2.575829, abs=1e-4)

    def test_critical_value_rejects_bad_level(self):
        with pytest.raises(ValueError):
            normal_critical_value(1.0)
        with pytest.raises(ValueError):
            normal_critical_value(0.0)

    @pytest.mark.parametrize("level", [0.8, 0.9, 0.95, 0.99, 0.999])
    def test_memoised_critical_value_is_bit_identical(self, level):
        expected = float(scipy_stats.norm.ppf(1.0 - (1.0 - level) / 2.0))
        assert normal_critical_value(level) == expected
        assert normal_critical_value(level) == expected

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_bad_level_raises_on_every_call(self, level):
        # The memo must never cache (or skip) the validation.
        for _ in range(3):
            with pytest.raises(ValueError, match="confidence_level"):
                normal_critical_value(level)

    def test_margin_of_error(self):
        assert margin_of_error(0.1, 0.95) == pytest.approx(0.196, abs=1e-3)
        with pytest.raises(ValueError):
            margin_of_error(-0.1, 0.95)

    def test_normal_interval_symmetry(self):
        interval = normal_interval(0.8, 0.05, 0.95)
        assert interval.estimate == 0.8
        assert interval.margin_of_error == pytest.approx(1.96 * 0.05, abs=1e-3)
        assert interval.lower == pytest.approx(0.8 - interval.margin_of_error)
        assert interval.upper == pytest.approx(0.8 + interval.margin_of_error)
        assert interval.width == pytest.approx(2 * interval.margin_of_error)

    def test_interval_contains_and_clip(self):
        interval = normal_interval(0.98, 0.03, 0.95)
        assert interval.contains(0.98)
        clipped = interval.clipped()
        assert clipped.upper <= 1.0
        assert clipped.lower >= 0.0

    def test_wilson_interval_basic(self):
        interval = wilson_interval(90, 100, 0.95)
        assert 0.82 < interval.lower < 0.9 < interval.upper < 0.96
        assert interval.estimate == pytest.approx(0.9)

    def test_wilson_interval_extreme_counts(self):
        perfect = wilson_interval(30, 30, 0.95)
        assert perfect.upper == pytest.approx(1.0)
        assert perfect.lower > 0.8
        zero = wilson_interval(0, 30, 0.95)
        assert zero.lower == 0.0
        assert zero.upper < 0.2

    def test_wilson_interval_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(11, 10, 0.95)

    def test_required_sample_size_matches_closed_form(self):
        # n = p(1-p) z^2 / eps^2 for p=0.9, eps=0.05, 95%: ≈ 139.
        n = required_sample_size(0.9 * 0.1, 0.05, 0.95)
        assert n == 139

    def test_required_sample_size_validation(self):
        with pytest.raises(ValueError):
            required_sample_size(0.25, 0.0, 0.95)
        with pytest.raises(ValueError):
            required_sample_size(-0.1, 0.05, 0.95)

    def test_wilson_interval_single_trial_extremes(self):
        # The smallest legal sample: the interval must stay inside [0, 1] and
        # keep the point estimate inside itself despite round-off.
        zero = wilson_interval(0, 1, 0.95)
        assert zero.lower == 0.0
        assert zero.contains(zero.estimate)
        assert 0.0 < zero.upper < 1.0
        one = wilson_interval(1, 1, 0.95)
        assert one.upper == 1.0
        assert one.contains(one.estimate)
        assert 0.0 < one.lower < 1.0

    def test_wilson_interval_extremes_at_high_confidence(self):
        # 99.9% confidence on 0/large-n: still a proper interval, wider than
        # the 95% one, never escaping the unit range.
        narrow = wilson_interval(0, 500, 0.95)
        wide = wilson_interval(0, 500, 0.999)
        assert narrow.lower == wide.lower == 0.0
        assert 0.0 < narrow.upper < wide.upper < 0.1

    def test_required_sample_size_tiny_moe(self):
        # A vanishing MoE target must grow n by the exact 1/eps^2 law without
        # overflowing or losing the ceil (no silent float truncation).
        z = normal_critical_value(0.95)
        for moe in (1e-3, 1e-4, 1e-6):
            n = required_sample_size(0.25, moe, 0.95)
            assert n == math.ceil(0.25 * z * z / (moe * moe))
            # Closed-form consistency: n satisfies the target, n-1 does not.
            assert z * math.sqrt(0.25 / n) <= moe
            assert z * math.sqrt(0.25 / (n - 1)) > moe

    def test_required_sample_size_zero_variance(self):
        # Degenerate population: one unit is always enough.
        assert required_sample_size(0.0, 1e-9, 0.99) == 1

    def test_normal_critical_value_boundary_rejection(self):
        # The open interval (0, 1) is strict: both endpoints and anything
        # outside must raise, while values arbitrarily close to them work.
        for bad in (0.0, 1.0, -0.05, 1.5, math.nan):
            with pytest.raises(ValueError):
                normal_critical_value(bad)
        assert normal_critical_value(1e-9) > 0.0
        assert normal_critical_value(1.0 - 1e-12) > 6.0


class TestRunningMean:
    def test_empty_state(self):
        running = RunningMean()
        assert running.count == 0
        assert running.mean == 0.0
        assert running.sample_variance == 0.0
        assert math.isinf(running.std_error)

    def test_matches_numpy(self, rng):
        values = rng.normal(5.0, 2.0, size=200)
        running = RunningMean()
        running.add_all(values)
        assert running.mean == pytest.approx(float(np.mean(values)))
        assert running.sample_variance == pytest.approx(float(np.var(values, ddof=1)))
        assert running.population_variance == pytest.approx(float(np.var(values)))
        assert running.std_error == pytest.approx(
            float(np.std(values, ddof=1) / np.sqrt(values.size))
        )

    def test_single_observation(self):
        running = RunningMean()
        running.add(3.0)
        assert running.mean == 3.0
        assert math.isinf(running.std_error)

    def test_merge_equals_sequential(self, rng):
        values = rng.random(100)
        left = RunningMean()
        right = RunningMean()
        left.add_all(values[:40])
        right.add_all(values[40:])
        left.merge(right)
        combined = RunningMean()
        combined.add_all(values)
        assert left.count == combined.count
        assert left.mean == pytest.approx(combined.mean)
        assert left.sample_variance == pytest.approx(combined.sample_variance)

    def test_merge_with_empty(self):
        running = RunningMean()
        running.add_all([1.0, 2.0])
        empty = RunningMean()
        running.merge(empty)
        assert running.count == 2
        empty.merge(running)
        assert empty.count == 2
        assert empty.mean == pytest.approx(1.5)

    def test_copy_is_independent(self):
        running = RunningMean()
        running.add_all([1.0, 2.0, 3.0])
        clone = running.copy()
        clone.add(100.0)
        assert running.count == 3
        assert clone.count == 4


class TestAllocation:
    def test_proportional_allocation_sums_to_total(self):
        allocation = proportional_allocation([0.5, 0.3, 0.2], 10)
        assert sum(allocation) == 10
        assert allocation[0] >= allocation[1] >= allocation[2]

    def test_proportional_allocation_minimum_one_per_stratum(self):
        allocation = proportional_allocation([0.98, 0.01, 0.01], 10)
        assert sum(allocation) == 10
        assert all(a >= 1 for a in allocation)

    def test_proportional_allocation_zero_total(self):
        assert proportional_allocation([1.0, 1.0], 0) == [0, 0]

    def test_proportional_allocation_validation(self):
        with pytest.raises(ValueError):
            proportional_allocation([-1.0, 2.0], 5)
        with pytest.raises(ValueError):
            proportional_allocation([0.0, 0.0], 5)
        with pytest.raises(ValueError):
            proportional_allocation([1.0], -1)

    def test_neyman_allocation_prefers_high_variance_strata(self):
        allocation = neyman_allocation([0.5, 0.5], [0.0, 0.5], 10)
        assert allocation[1] > allocation[0]
        assert sum(allocation) == 10

    def test_neyman_falls_back_to_proportional_when_all_zero_std(self):
        assert neyman_allocation([0.7, 0.3], [0.0, 0.0], 10) == proportional_allocation(
            [0.7, 0.3], 10
        )

    def test_neyman_validation(self):
        with pytest.raises(ValueError):
            neyman_allocation([0.5], [0.1, 0.2], 5)
        with pytest.raises(ValueError):
            neyman_allocation([0.5, 0.5], [-0.1, 0.2], 5)

    def test_cumulative_sqrt_f_boundaries_count(self):
        sizes = [1] * 50 + [2] * 30 + [5] * 15 + [20] * 5
        boundaries = cumulative_sqrt_frequency_boundaries(sizes, 4)
        assert len(boundaries) == 3
        assert boundaries == sorted(boundaries)

    def test_cumulative_sqrt_f_single_stratum(self):
        assert cumulative_sqrt_frequency_boundaries([1, 2, 3], 1) == []

    def test_cumulative_sqrt_f_few_distinct_values(self):
        boundaries = cumulative_sqrt_frequency_boundaries([1, 1, 2, 2], 4)
        assert len(boundaries) <= 3
        assert all(b > 0 for b in boundaries)

    def test_cumulative_sqrt_f_validation(self):
        with pytest.raises(ValueError):
            cumulative_sqrt_frequency_boundaries([], 2)
        with pytest.raises(ValueError):
            cumulative_sqrt_frequency_boundaries([1, 2], 0)

    def test_boundaries_partition_strata_reasonably(self, nell):
        sizes = nell.graph.cluster_size_array()
        boundaries = cumulative_sqrt_frequency_boundaries(sizes, 2)
        assert len(boundaries) == 1
        below = int(np.sum(sizes <= boundaries[0]))
        assert 0 < below < sizes.size
