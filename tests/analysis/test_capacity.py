"""Unit tests for the minimum-capacity search."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.capacity import find_min_capacity


def step_miss_fn(threshold):
    """Miss rate 0.5 below the threshold capacity, 0 at or above."""

    def miss(capacity):
        return 0.5 if capacity < threshold else 0.0

    return miss


class TestBasicSearch:
    def test_finds_step_threshold(self):
        result = find_min_capacity(step_miss_fn(137.0), initial=10.0)
        assert result.min_capacity == pytest.approx(137.0, rel=0.03)
        assert result.last_missing_capacity < result.min_capacity

    def test_threshold_below_initial_probes_down(self):
        result = find_min_capacity(step_miss_fn(3.0), initial=100.0)
        assert result.min_capacity == pytest.approx(3.0, rel=0.05)

    def test_always_zero_returns_tiny(self):
        result = find_min_capacity(lambda c: 0.0, initial=10.0)
        assert result.min_capacity <= 1e-3 * 2

    def test_never_zero_raises(self):
        with pytest.raises(RuntimeError, match="no zero-miss capacity"):
            find_min_capacity(lambda c: 0.9, initial=10.0, max_capacity=1e4)

    def test_gradual_decline(self):
        """Continuously decreasing miss rate, zero from 400 up."""

        def miss(capacity):
            return max(0.0, (400.0 - capacity) / 400.0)

        result = find_min_capacity(miss, initial=10.0, rel_tol=0.01)
        assert result.min_capacity == pytest.approx(400.0, rel=0.02)

    def test_zero_threshold_relaxation(self):
        """Rates below the threshold count as zero."""

        def miss(capacity):
            return 0.04 if capacity < 100.0 else 0.01

        result = find_min_capacity(miss, initial=10.0, zero_threshold=0.02)
        assert result.min_capacity == pytest.approx(100.0, rel=0.03)

    def test_evaluation_count_reported(self):
        result = find_min_capacity(step_miss_fn(100.0), initial=10.0)
        assert result.evaluations >= 4

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="returned"):
            find_min_capacity(lambda c: 2.0, initial=10.0)

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            find_min_capacity(lambda c: 0.0, initial=0.0)
        with pytest.raises(ValueError):
            find_min_capacity(lambda c: 0.0, initial=10.0, max_capacity=5.0)
        with pytest.raises(ValueError):
            find_min_capacity(lambda c: 0.0, rel_tol=0.0)
        with pytest.raises(ValueError):
            find_min_capacity(lambda c: 0.0, zero_threshold=-0.1)


class TestSearchProperties:
    @given(threshold=st.floats(min_value=0.5, max_value=50_000))
    @settings(max_examples=60, deadline=None)
    def test_threshold_recovered_within_tolerance(self, threshold):
        result = find_min_capacity(
            step_miss_fn(threshold), initial=10.0, max_capacity=1e6,
            rel_tol=0.02,
        )
        # The reported capacity achieves zero misses and is within
        # tolerance of the true threshold.
        assert step_miss_fn(threshold)(result.min_capacity) == 0.0
        assert result.min_capacity <= threshold * 1.03 + 1e-3

    @given(threshold=st.floats(min_value=1.0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_bracket_is_consistent(self, threshold):
        result = find_min_capacity(step_miss_fn(threshold), initial=5.0)
        if math.isfinite(result.last_missing_rate):
            assert result.last_missing_rate > 0.0
            assert result.last_missing_capacity < result.min_capacity
