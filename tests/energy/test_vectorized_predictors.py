"""Differential tests: batch predictor kernels vs the scalar predictors.

The doctrine (``docs/batch-simulation.md``): every kernel in
:mod:`repro.energy.vectorized` performs the same IEEE float64 operations
in the same order as its scalar counterpart, so estimates, bin walks and
predicted energies must be *bit-identical* — not merely close.  All
assertions here are exact equality on floats by design.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.predictor import (
    LastValuePredictor,
    MeanPowerPredictor,
    ProfilePredictor,
    _snap_tail,
    profile_segments,
)
from repro.energy.vectorized import (
    _ladder_durations,
    _libm_pow,
    _profile_walk,
    batch_last_observe,
    batch_mean_observe,
    batch_profile_observe,
    batch_profile_predict,
    batch_span_predict,
)
from repro.timeutils import EPSILON

# Heterogeneous lane parameter pools (mirrors the worlds the batch
# engine actually builds: paper setup, scenario pool, unit scales).
_PERIODS = (10.0, 690.8861930260637, 3.3, 1e3, 0.125)
_N_BINS = (1, 4, 16, 64)
_ALPHAS = (0.3, 0.05, 1.0)
_INITIALS = (0.0, 1.5)


def _window_strategy(max_duration=900.0):
    # Observation windows: normal, sub-EPSILON and zero durations, so
    # the scalar observe gate and the batch pre-filter stay in lockstep.
    # Profile tests cap the duration: a lane with a tiny period walks
    # one ladder step per bin crossing, so long windows are O(span/bw).
    return st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2000.0),
            st.one_of(
                st.floats(min_value=1e-6, max_value=max_duration),
                st.floats(min_value=0.0, max_value=1e-10),
            ),
            st.floats(min_value=-1.0, max_value=8.0),
        ),
        min_size=1,
        max_size=12,
    )


class TestLibmPow:
    def test_matches_python_pow_bitwise(self):
        rng = np.random.default_rng(0)
        base = rng.uniform(0.0, 1.0, size=5000)
        expo = rng.uniform(0.0, 30.0, size=5000)
        out = _libm_pow(base, expo)
        for b, e, o in zip(base.tolist(), expo.tolist(), out.tolist()):
            assert o == b**e

    def test_array_power_is_not_trusted(self):
        # Documents WHY _libm_pow exists: numpy's vectorized np.power
        # takes a SIMD path that deviates from libm pow by one ulp on a
        # few percent of inputs (observed on numpy 2.4.6).  If this test
        # ever fails, np.power became bit-compatible and _libm_pow can
        # be retired.
        rng = np.random.default_rng(1)
        base = rng.uniform(0.0, 1.0, size=20000)
        expo = rng.uniform(0.0, 30.0, size=20000)
        simd = np.power(base, expo)
        libm = _libm_pow(base, expo)
        assert (simd != libm).any()


class TestSpanPredict:
    def test_empty_window_contract(self):
        estimate = np.asarray([2.0, 2.0, 2.0])
        t0 = np.asarray([5.0, 5.0, 5.0])
        t1 = np.asarray([5.0, 5.0 + 1e-10, 6.0])
        out = batch_span_predict(estimate, t0, t1)
        assert out[0] == 0.0
        assert out[1] == 0.0
        assert out[2] == 2.0 * (t1[2] - t0[2])

    @given(windows=_window_strategy())
    @settings(max_examples=60, deadline=None)
    def test_mean_lanes_bit_equal_scalar(self, windows):
        lanes = [
            MeanPowerPredictor(initial_power=init, alpha=alpha)
            for alpha in _ALPHAS
            for init in _INITIALS
        ]
        n = len(lanes)
        estimate = np.asarray([p.estimate for p in lanes])
        alpha = np.asarray([p.alpha for p in lanes])
        for t0, dur, power in windows:
            t1 = t0 + dur
            energy = power * dur
            for p in lanes:
                p.observe(t0, t1, energy)
            duration = np.full(n, t1 - t0)
            obs = duration > EPSILON  # the batch caller's pre-filter
            if obs.any():
                estimate[obs] = batch_mean_observe(
                    estimate[obs],
                    alpha[obs],
                    duration[obs],
                    np.full(n, energy)[obs],
                )
            for i, p in enumerate(lanes):
                assert estimate[i] == p.estimate
        q0 = np.full(n, 3.0)
        q1 = np.full(n, 47.5)
        predicted = batch_span_predict(estimate, q0, q1)
        for i, p in enumerate(lanes):
            assert predicted[i] == p.predict_energy(3.0, 47.5)

    @given(windows=_window_strategy())
    @settings(max_examples=60, deadline=None)
    def test_last_lanes_bit_equal_scalar(self, windows):
        lanes = [LastValuePredictor(initial_power=init) for init in _INITIALS]
        n = len(lanes)
        estimate = np.asarray([p.estimate for p in lanes])
        for t0, dur, power in windows:
            t1 = t0 + dur
            energy = power * dur
            for p in lanes:
                p.observe(t0, t1, energy)
            duration = np.full(n, t1 - t0)
            obs = duration > EPSILON
            if obs.any():
                estimate[obs] = batch_last_observe(
                    duration[obs], np.full(n, energy)[obs]
                )
            for i, p in enumerate(lanes):
                assert estimate[i] == p.estimate


class _ProfileLanes:
    """Scalar ProfilePredictors + their SoA mirror, padded to max_bins."""

    def __init__(self):
        self.scalars = [
            ProfilePredictor(
                period=period, n_bins=nb, alpha=alpha, initial_power=init
            )
            for period, nb, alpha, init in zip(
                _PERIODS * 4,
                _N_BINS * 5,
                _ALPHAS * 7,
                _INITIALS * 10,
            )
        ]
        n = len(self.scalars)
        self.period = np.asarray([p.period for p in self.scalars])
        self.bin_width = np.asarray([p.bin_width for p in self.scalars])
        self.n_bins = np.asarray(
            [p.n_bins for p in self.scalars], dtype=np.int64
        )
        self.alpha = np.asarray([p.alpha for p in self.scalars])
        max_bins = int(self.n_bins.max())
        # Lane i keeps its bin state in row rows[i] (reversed, plus one
        # spare row), as the batch core indexes its own state matrices.
        self.rows = np.arange(n, dtype=np.int64)[::-1] + 1
        self.estimates = np.zeros((n + 1, max_bins))
        self.seen = np.zeros((n + 1, max_bins), dtype=np.bool_)
        for i, p in enumerate(self.scalars):
            self.estimates[self.rows[i], : p.n_bins] = p.bin_estimates()
            self.seen[self.rows[i], : p.n_bins] = p.bin_seen()

    def observe(self, t0: float, t1: float, energy: float) -> None:
        for p in self.scalars:
            p.observe(t0, t1, energy)
        n = len(self.scalars)
        a0 = np.full(n, t0)
        a1 = np.full(n, t1)
        obs = a1 - a0 > EPSILON  # the batch caller's pre-filter
        if obs.any():
            lanes = np.flatnonzero(obs)
            batch_profile_observe(
                a0[lanes],
                a1[lanes],
                self.period[lanes],
                self.bin_width[lanes],
                self.n_bins[lanes],
                self.alpha[lanes],
                np.full(n, energy)[lanes],
                self.estimates,
                self.seen,
                rows=self.rows[lanes],
            )

    def assert_state_bit_equal(self) -> None:
        for i, p in enumerate(self.scalars):
            scalar_est = p.bin_estimates()
            scalar_seen = p.bin_seen()
            row = self.rows[i]
            for b in range(p.n_bins):
                assert self.estimates[row, b] == scalar_est[b]
                assert bool(self.seen[row, b]) == bool(scalar_seen[b])
        assert not self.seen[0].any()  # the spare row is never written

    def assert_predict_bit_equal(self, t0: float, t1: float) -> None:
        n = len(self.scalars)
        predicted = batch_profile_predict(
            np.full(n, t0),
            np.full(n, t1),
            self.period,
            self.bin_width,
            self.n_bins,
            self.estimates,
            rows=self.rows,
        )
        for i, p in enumerate(self.scalars):
            assert predicted[i] == p.predict_energy(t0, t1)


class TestProfileKernels:
    @given(windows=_window_strategy(max_duration=10.0))
    @settings(max_examples=25, deadline=None)
    def test_heterogeneous_lanes_bit_equal_scalar(self, windows):
        lanes = _ProfileLanes()
        for t0, dur, power in windows:
            lanes.observe(t0, t0 + dur, power * dur)
            lanes.assert_state_bit_equal()
        lanes.assert_predict_bit_equal(1.0, 1.0)  # empty window -> 0.0
        lanes.assert_predict_bit_equal(2.5 - 1e-15, 5.0)  # sliver start
        lanes.assert_predict_bit_equal(0.0, 40.0)  # many small-period cycles

    def test_window_spanning_multiple_periods(self):
        # Spans longer than the period revisit bins; the repeated EWMA
        # updates must land in walk order, exactly like the scalar loop.
        lanes = _ProfileLanes()
        lanes.observe(0.0, 300.0, 450.0)
        lanes.assert_state_bit_equal()
        lanes.assert_predict_bit_equal(0.5, 250.0)

    def test_sub_epsilon_lanes_untouched(self):
        # Windows no longer than EPSILON predict 0.0 and (behind the
        # caller's pre-filter) leave the bin state untouched — the
        # scalar empty-window gate.
        t0 = np.asarray([5.0, 5.0])
        t1 = np.asarray([5.0 + 1e-10, 5.0])
        period = np.asarray([10.0, 10.0])
        bin_width = np.asarray([2.5, 2.5])
        n_bins = np.asarray([4, 4], dtype=np.int64)
        estimates = np.full((2, 4), 3.0)
        out = batch_profile_predict(
            t0, t1, period, bin_width, n_bins, estimates
        )
        assert out.tolist() == [0.0, 0.0]
        # An observe with no participating lanes touches nothing.
        empty = np.zeros(0)
        seen = np.zeros((2, 4), dtype=np.bool_)
        batch_profile_observe(
            empty, empty, empty, empty, np.zeros(0, dtype=np.int64),
            empty, empty, estimates, seen,
        )
        assert (estimates == 3.0).all() and not seen.any()

    def test_walk_matches_the_scalar_generator(self):
        # The bound method delegates to the shared generator, and the
        # kernels' padded walk yields that generator's segments, bin for
        # bin and bit for bit, in order (empty cells yield nothing).
        p = ProfilePredictor(period=37.0, n_bins=8)
        method = list(p._segments(1.3, 55.9))
        shared = list(
            profile_segments(1.3, 55.9, p.period, p.bin_width, p.n_bins)
        )
        assert method == shared
        lanes = _ProfileLanes()
        for t0, t1 in ((1.3, 55.9), (0.0, 40.0), (2.5 - 1e-15, 5.0)):
            n = len(lanes.scalars)
            index, duration = _profile_walk(
                np.full(n, t0),
                np.full(n, t1),
                lanes.period,
                lanes.bin_width,
                lanes.n_bins,
            )
            for i, q in enumerate(lanes.scalars):
                cells = duration[i].nonzero()[0]
                walked = list(
                    zip(index[i, cells].tolist(), duration[i, cells].tolist())
                )
                assert walked == list(
                    profile_segments(t0, t1, q.period, q.bin_width, q.n_bins)
                )

    def test_exact_recurrence_replaces_a_broken_telescope(self):
        # A crafted ladder whose second step does not telescope:
        # c + (e - c) rounds away from e, so the coverage the scalar walk
        # carries is not the edge.  The affected lane must replay the
        # scalar recurrence instead of reading coverage off the ladder.
        c, e = 0.80317946927987, 1.8959391428711407
        assert c + (e - c) != e
        ladder = np.asarray([[0.0, c, e, 3.0], [0.0, 1.0, 2.0, 3.0]])
        span = np.asarray([2.5, 2.5])
        ends = ladder[:, 1:] >= span[:, None]
        last = ends.argmax(axis=1)
        duration = _ladder_durations(ladder, ends, last, span)
        for row, got in zip(ladder, duration):
            # profile_segments' loop over the same edges
            expected = []
            covered = 0.0
            for edge in row[1:].tolist():
                if edge >= 2.5:
                    expected.append(_snap_tail(covered, 2.5))
                    break
                if edge > covered:
                    expected.append(edge - covered)
                    covered += expected[-1]
            assert got[: len(expected)].tolist() == expected
            assert not got[len(expected):].any()
        assert duration[0, 2] != _snap_tail(e, 2.5)  # the telescoped tail


#: (period, n_bins) pairs whose first bin clamps one ulp below the period.
_CLAMPING = ((3.3, 10), (3.3, 6), (0.1, 3), (690.8861930260637, 10))


def _lane_params(period, n_bins):
    p = ProfilePredictor(period=period, n_bins=n_bins)
    return p.period, p.bin_width, n_bins


@st.composite
def _profile_windows(draw):
    """Heterogeneous profile lanes, each with its own predict window.

    Windows come in four shapes: free, longer than one period, starting
    just below a period multiple (where ``t0 % period`` can round into
    a clamped last bin), and ending exactly on a ladder edge.
    """
    lanes = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        shape = draw(st.sampled_from(("free", "long", "clamped", "edge")))
        if shape == "clamped":
            # One ulp below the period, position / bin_width rounds up to
            # n_bins for these pairs, so the first bin clamps to the last.
            period, width, n_bins = _lane_params(
                *draw(st.sampled_from(_CLAMPING))
            )
            t0 = math.nextafter(period, 0.0)
        else:
            period, width, n_bins = _lane_params(
                draw(st.sampled_from(_PERIODS)), draw(st.sampled_from(_N_BINS))
            )
            t0 = draw(st.floats(min_value=0.0, max_value=2000.0))
        estimates = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0),
                min_size=n_bins,
                max_size=n_bins,
            )
        )
        if shape == "long":
            span = period * draw(st.floats(min_value=1.0, max_value=3.0))
        elif shape == "edge":
            position = t0 % period
            first = min(int(position / width), n_bins - 1)
            steps = draw(st.integers(min_value=0, max_value=2 * n_bins))
            span = (first + steps + 1) * width - position
        else:
            span = period * draw(st.floats(min_value=0.0, max_value=1.5))
        lanes.append((period, width, n_bins, estimates, t0, t0 + span))
    return lanes


class TestProfilePredictProperty:
    @pytest.mark.parametrize("period, n_bins", _CLAMPING)
    def test_clamping_pairs_clamp(self, period, n_bins):
        p = ProfilePredictor(period=period, n_bins=n_bins)
        t0 = math.nextafter(period, 0.0)
        assert int((t0 % period) / p.bin_width) >= n_bins
        segments = profile_segments(t0, t0 + 1.0, period, p.bin_width, n_bins)
        assert next(segments)[0] == n_bins - 1

    @given(lanes=_profile_windows())
    @settings(max_examples=150, deadline=None)
    def test_bit_equal_scalar_predict(self, lanes):
        n = len(lanes)
        max_bins = max(lane[2] for lane in lanes)
        estimates = np.zeros((n, max_bins))
        scalars = []
        for i, (period, _, n_bins, values, _, _) in enumerate(lanes):
            p = ProfilePredictor(period=period, n_bins=n_bins)
            p._estimates[:] = values
            estimates[i, :n_bins] = values
            scalars.append(p)
        t0 = np.asarray([lane[4] for lane in lanes])
        t1 = np.asarray([lane[5] for lane in lanes])
        predicted = batch_profile_predict(
            t0,
            t1,
            np.asarray([lane[0] for lane in lanes]),
            np.asarray([lane[1] for lane in lanes]),
            np.asarray([lane[2] for lane in lanes], dtype=np.int64),
            estimates,
        )
        for i, p in enumerate(scalars):
            assert predicted[i] == p.predict_energy(t0[i], t1[i])


class TestMeanObserveEdgeCases:
    def test_negative_energy_clamped(self):
        scalar = MeanPowerPredictor(initial_power=2.0, alpha=0.3)
        scalar.observe(0.0, 1.0, -5.0)
        out = batch_mean_observe(
            np.asarray([2.0]),
            np.asarray([0.3]),
            np.asarray([1.0]),
            np.asarray([-5.0]),
        )
        assert out[0] == scalar.estimate

    def test_alpha_one_jumps_to_observation(self):
        out = batch_mean_observe(
            np.asarray([7.0]),
            np.asarray([1.0]),
            np.asarray([2.0]),
            np.asarray([6.0]),
        )
        assert out[0] == 3.0
