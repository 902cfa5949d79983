"""Unit tests for the harvest predictors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.predictor import (
    LastValuePredictor,
    MeanPowerPredictor,
    OraclePredictor,
    ProfilePredictor,
    profile_segments,
)
from repro.energy.source import ConstantSource, SolarStochasticSource, TraceSource
from repro.timeutils import EPSILON


class TestOraclePredictor:
    def test_matches_source_exactly(self):
        source = SolarStochasticSource(seed=4)
        oracle = OraclePredictor(source)
        assert oracle.predict_energy(10.0, 60.0) == pytest.approx(
            source.energy(10.0, 60.0)
        )

    def test_observe_is_noop(self):
        source = ConstantSource(1.0)
        oracle = OraclePredictor(source)
        oracle.observe(0.0, 10.0, 123.0)
        assert oracle.predict_energy(0.0, 10.0) == pytest.approx(10.0)


class TestMeanPowerPredictor:
    def test_initial_estimate(self):
        predictor = MeanPowerPredictor(initial_power=2.0)
        assert predictor.predict_energy(0.0, 5.0) == pytest.approx(10.0)

    def test_converges_to_constant(self):
        predictor = MeanPowerPredictor(initial_power=0.0, alpha=0.2)
        for k in range(200):
            predictor.observe(float(k), float(k + 1), 3.0)
        assert predictor.estimate == pytest.approx(3.0, rel=1e-3)

    def test_duration_correct_decay(self):
        """One 10-unit observation equals ten 1-unit observations."""
        chunky = MeanPowerPredictor(initial_power=5.0, alpha=0.1)
        chunky.observe(0.0, 10.0, 20.0)  # mean power 2 over 10 units
        fine = MeanPowerPredictor(initial_power=5.0, alpha=0.1)
        for k in range(10):
            fine.observe(float(k), float(k + 1), 2.0)
        assert chunky.estimate == pytest.approx(fine.estimate)

    def test_zero_duration_ignored(self):
        predictor = MeanPowerPredictor(initial_power=1.0)
        predictor.observe(5.0, 5.0, 0.0)
        assert predictor.estimate == 1.0

    def test_reset(self):
        predictor = MeanPowerPredictor(initial_power=1.5, alpha=0.5)
        predictor.observe(0.0, 1.0, 10.0)
        predictor.reset()
        assert predictor.estimate == 1.5

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            MeanPowerPredictor(alpha=0.0)
        with pytest.raises(ValueError):
            MeanPowerPredictor(alpha=1.5)

    @given(st.floats(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_prediction_nonnegative(self, power):
        predictor = MeanPowerPredictor()
        duration = 1.0
        predictor.observe(0.0, duration, power * duration)
        assert predictor.predict_energy(1.0, 11.0) >= 0.0


class TestLastValuePredictor:
    def test_persists_last_observation(self):
        predictor = LastValuePredictor()
        predictor.observe(0.0, 2.0, 8.0)  # mean power 4
        assert predictor.predict_energy(2.0, 5.0) == pytest.approx(12.0)

    def test_overwrites(self):
        predictor = LastValuePredictor(initial_power=1.0)
        predictor.observe(0.0, 1.0, 7.0)
        predictor.observe(1.0, 2.0, 1.0)
        assert predictor.predict_energy(0.0, 1.0) == pytest.approx(1.0)

    def test_reset(self):
        predictor = LastValuePredictor(initial_power=2.0)
        predictor.observe(0.0, 1.0, 9.0)
        predictor.reset()
        assert predictor.predict_energy(0.0, 1.0) == pytest.approx(2.0)


class TestEmptyWindowContract:
    """Every predictor returns exactly 0.0 on a sub-EPSILON window.

    Regression: ProfilePredictor used to return 0.0 while Mean/Last
    returned ``estimate * (t1 - t0)`` — one contract now, applied
    identically in the scalar predictors and the batch kernels.
    """

    @pytest.fixture(params=["oracle", "profile", "mean", "last-value"])
    def predictor(self, request):
        if request.param == "oracle":
            return OraclePredictor(ConstantSource(3.0))
        if request.param == "profile":
            p = ProfilePredictor(period=10.0, n_bins=4, initial_power=2.0)
            p.observe(0.0, 10.0, 50.0)
            return p
        if request.param == "mean":
            return MeanPowerPredictor(initial_power=2.0)
        return LastValuePredictor(initial_power=2.0)

    def test_zero_width_window(self, predictor):
        assert predictor.predict_energy(5.0, 5.0) == 0.0

    def test_sub_epsilon_window(self, predictor):
        assert predictor.predict_energy(5.0, 5.0 + 1e-10) == 0.0

    def test_above_epsilon_window_is_nonzero(self, predictor):
        assert predictor.predict_energy(5.0, 5.0 + 1e-6) > 0.0

    def test_reversed_window_rejected(self, predictor):
        with pytest.raises(ValueError):
            predictor.predict_energy(5.0, 4.0)


class TestProfilePredictor:
    def test_unseen_bins_use_initial_power(self):
        predictor = ProfilePredictor(period=100.0, n_bins=10, initial_power=2.0)
        assert predictor.predict_energy(0.0, 50.0) == pytest.approx(100.0)

    def test_learns_a_two_level_profile(self):
        """A square-wave source should be learned bin by bin."""
        predictor = ProfilePredictor(period=10.0, n_bins=2, alpha=1.0)
        # First half of each cycle: power 4; second half: power 0.
        for cycle in range(5):
            base = cycle * 10.0
            predictor.observe(base, base + 5.0, 20.0)
            predictor.observe(base + 5.0, base + 10.0, 0.0)
        assert predictor.predict_energy(50.0, 55.0) == pytest.approx(20.0)
        assert predictor.predict_energy(55.0, 60.0) == pytest.approx(0.0)
        assert predictor.predict_energy(50.0, 60.0) == pytest.approx(20.0)

    def test_prediction_spans_multiple_cycles(self):
        predictor = ProfilePredictor(period=10.0, n_bins=2, alpha=1.0)
        predictor.observe(0.0, 5.0, 10.0)
        predictor.observe(5.0, 10.0, 0.0)
        assert predictor.predict_energy(0.0, 30.0) == pytest.approx(30.0)

    def test_partial_bin_prorated(self):
        predictor = ProfilePredictor(period=10.0, n_bins=2, alpha=1.0)
        predictor.observe(0.0, 5.0, 10.0)  # bin 0 at power 2
        assert predictor.predict_energy(1.0, 2.5) == pytest.approx(3.0)

    def test_tracks_solar_envelope(self):
        """After a few cycles the profile beats a flat-mean guess."""
        source = SolarStochasticSource(seed=11)
        profile = ProfilePredictor()
        mean = MeanPowerPredictor(alpha=0.05)
        t = 0.0
        while t < 3 * profile.period:
            e = source.energy(t, t + 1.0)
            profile.observe(t, t + 1.0, e)
            mean.observe(t, t + 1.0, e)
            t += 1.0
        # Compare predictions over the next half cycle against the truth.
        horizon = (t, t + profile.period / 2)
        truth = source.energy(*horizon)
        profile_err = abs(profile.predict_energy(*horizon) - truth)
        mean_err = abs(mean.predict_energy(*horizon) - truth)
        assert profile_err < mean_err

    def test_observation_spanning_bin_boundary(self):
        predictor = ProfilePredictor(period=10.0, n_bins=2, alpha=1.0)
        predictor.observe(4.0, 6.0, 8.0)  # power 4 across both bins
        assert predictor.predict_energy(0.0, 5.0) == pytest.approx(20.0)
        assert predictor.predict_energy(5.0, 10.0) == pytest.approx(20.0)

    def test_reset_clears_bins(self):
        predictor = ProfilePredictor(period=10.0, n_bins=2, alpha=1.0,
                                     initial_power=1.0)
        predictor.observe(0.0, 10.0, 100.0)
        predictor.reset()
        assert predictor.predict_energy(0.0, 10.0) == pytest.approx(10.0)

    def test_reset_forgets_seen_bins(self):
        predictor = ProfilePredictor(period=10.0, n_bins=4, initial_power=1.5)
        predictor.observe(0.0, 10.0, 40.0)
        predictor.reset()
        assert predictor.bin_estimates().tolist() == [1.5] * 4
        assert predictor.bin_seen().tolist() == [False] * 4
        predictor.observe(0.0, 2.5, 5.0)  # unseen again: no EWMA blend
        assert predictor.bin_estimates().tolist() == [2.0, 1.5, 1.5, 1.5]
        assert predictor.bin_seen().tolist() == [True, False, False, False]

    def test_prediction_adds_left_to_right(self):
        # Plain float adds, as the batch kernel's cumsum; sum() of Python
        # floats is compensated from Python 3.12 on and gives 1e16 + 2.
        predictor = ProfilePredictor(period=3.0, n_bins=3)
        predictor._estimates[:] = [1e16, 1.0, 1.0]
        assert predictor.predict_energy(0.0, 3.0) == 1e16

    def test_bin_estimates_copy(self):
        predictor = ProfilePredictor(period=10.0, n_bins=4)
        estimates = predictor.bin_estimates()
        estimates[:] = 99.0
        assert predictor.predict_energy(0.0, 10.0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProfilePredictor(period=0.0)
        with pytest.raises(ValueError):
            ProfilePredictor(n_bins=0)
        with pytest.raises(ValueError):
            ProfilePredictor(alpha=2.0)
        with pytest.raises(ValueError):
            ProfilePredictor(initial_power=-1.0)

    def test_segment_sliver_attributed_to_starting_bin(self):
        # Regression: a window starting one ulp below a bin edge used to
        # over-cover (durations summed past t1 - t0) and charge the
        # sliver to the *next* bin.  The sliver belongs to the bin that
        # contains t0, and the durations must sum bit-exactly.
        predictor = ProfilePredictor(period=10.0, n_bins=4)
        t0 = 2.5 - 1e-15
        t1 = 5.0
        segments = list(predictor._segments(t0, t1))
        assert [index for index, _ in segments] == [0, 1]
        sliver, rest = segments[0][1], segments[1][1]
        assert 0.0 < sliver < 1e-14
        assert sliver + rest == t1 - t0

    @given(
        t0=st.floats(min_value=0, max_value=1000),
        span=st.floats(min_value=1e-8, max_value=300),
        nudge=st.integers(min_value=-3, max_value=3),
        period=st.sampled_from([10.0, 37.0, 690.9, 0.125]),
        n_bins=st.sampled_from([1, 2, 4, 8, 48]),
    )
    @settings(max_examples=200, deadline=None)
    def test_segments_cover_window_exactly(
        self, t0, span, nudge, period, n_bins
    ):
        # Adversarial starts: nudge t0 to sit a few ulps around a bin
        # edge, where the old stagnation guard lost or double-counted
        # slivers.
        predictor = ProfilePredictor(period=period, n_bins=n_bins)
        bin_width = predictor.bin_width
        edge = math.floor((t0 % period) / bin_width) * bin_width
        base = (t0 // period) * period + edge
        for _ in range(abs(nudge)):
            base = math.nextafter(
                base, math.inf if nudge > 0 else -math.inf
            )
        t0 = max(0.0, base)
        t1 = t0 + span
        segments = list(predictor._segments(t0, t1))
        # Exact coverage: a genuine sequential sum of the durations
        # reproduces t1 - t0 bit-for-bit (this is the running sum the
        # observe/predict loops perform).
        covered = 0.0
        for index, duration in segments:
            assert 0 <= index < n_bins
            assert duration > 0.0
            covered += duration
        assert covered == t1 - t0
        # Attribution: the first segment starts at t0, so it must be
        # charged to the bin containing t0 — unless t0 sits on that
        # bin's right edge as the walk computes it ((k + 1) * bin_width,
        # reachable when the division rounds down an ulp, e.g. t0 =
        # 37 * (690.9 / 48)): the bin then holds none of the window, and
        # zero-length segments are never yielded, so the next bin is
        # charged.
        position = t0 % period
        first_bin = min(int(position / bin_width), n_bins - 1)
        if (first_bin + 1) * bin_width <= position:
            first_bin = (first_bin + 1) % n_bins
        assert segments[0][0] == first_bin

    def test_segments_empty_below_epsilon(self):
        predictor = ProfilePredictor(period=10.0, n_bins=4)
        assert list(predictor._segments(5.0, 5.0)) == []
        assert list(predictor._segments(5.0, 5.0 + 1e-10)) == []

    @given(
        t0=st.floats(min_value=0, max_value=500),
        span=st.floats(min_value=0, max_value=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_prediction_additivity(self, t0, span):
        predictor = ProfilePredictor(period=37.0, n_bins=8, alpha=0.5)
        source = TraceSource([3.0, 1.0, 4.0, 1.0, 5.0], cyclic=True)
        t = 0.0
        while t < 100.0:
            predictor.observe(t, t + 1.0, source.energy(t, t + 1.0))
            t += 1.0
        mid = t0 + span / 3
        whole = predictor.predict_energy(t0, t0 + span)
        parts = predictor.predict_energy(t0, mid) + predictor.predict_energy(
            mid, t0 + span
        )
        assert whole == pytest.approx(parts, rel=1e-6, abs=1e-6)


def walked_observe(predictor, estimates, seen, t0, t1, energy):
    """The reference observe: the EWMA update at every walk segment."""
    duration = t1 - t0
    if duration <= EPSILON:
        return
    mean_power = max(0.0, energy / duration)
    width = predictor.bin_width
    for index, d in profile_segments(
        t0, t1, predictor.period, width, predictor.n_bins
    ):
        keep = (1.0 - predictor.alpha) ** (d / width)
        if not seen[index]:
            estimates[index] = mean_power
            seen[index] = True
        else:
            estimates[index] = (
                keep * estimates[index] + (1.0 - keep) * mean_power
            )


#: (period, n_bins) pairs whose first bin clamps one ulp below the period
#: (the batch kernel tests pin that they do).
_CLAMPING = ((3.3, 10), (3.3, 6), (0.1, 3), (690.8861930260637, 10))

#: Window shapes: wholly inside the first bin, ending exactly on its
#: edge, crossing one edge, crossing several, starting in a clamped last
#: bin, and spanning more than a period.
_OBSERVE_SHAPES = ("inside", "edge", "cross", "several", "clamped", "periods")


@st.composite
def _observe_windows(draw):
    """One profile predictor's parameters and a few windows to observe."""
    shapes = draw(st.lists(st.sampled_from(_OBSERVE_SHAPES), min_size=1,
                           max_size=4))
    if "clamped" in shapes:
        period, n_bins = draw(st.sampled_from(_CLAMPING))
    else:
        period, n_bins = draw(st.sampled_from(
            ((10.0, 1), (10.0, 2), (0.125, 2), (1e3, 4), (37.0, 8),
             (690.8861930260637, 64))
        ))
    width = period / n_bins
    windows = []
    for shape in shapes:
        if shape == "clamped":
            t0 = math.nextafter(period, 0.0)
        else:
            # Whole periods put the start on a bin edge, where exact edge
            # windows are representable.
            t0 = draw(st.one_of(
                st.floats(min_value=0.0, max_value=2000.0),
                st.integers(min_value=0, max_value=5).map(
                    lambda k: k * period
                ),
            ))
        position = t0 % period
        first = min(int(position / width), n_bins - 1)
        edge = (first + 1) * width - position  # may be <= 0 when clamped
        fraction = draw(st.floats(min_value=0.01, max_value=0.99))
        if shape == "inside":
            span = edge * fraction
        elif shape == "edge":
            span = edge
        elif shape == "cross":
            span = edge + width * fraction
        elif shape == "several":
            span = edge + width * draw(st.floats(min_value=1.5, max_value=6.0))
        elif shape == "clamped":
            span = width * fraction
        else:
            span = period * draw(st.floats(min_value=1.0, max_value=3.0))
        if span <= EPSILON:
            span = width * fraction
        t1 = t0 + span
        while t1 - t0 > span:
            t1 = math.nextafter(t1, -math.inf)
        power = draw(st.floats(min_value=-1.0, max_value=20.0))
        windows.append((t0, t1, power * (t1 - t0)))
    estimates = draw(st.lists(st.floats(min_value=0.0, max_value=20.0),
                              min_size=n_bins, max_size=n_bins))
    seen = draw(st.lists(st.booleans(), min_size=n_bins, max_size=n_bins))
    alpha = draw(st.sampled_from((0.3, 1.0, 0.05)))
    return period, n_bins, alpha, estimates, seen, windows


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestProfileObserveParity:
    @given(case=_observe_windows())
    @settings(max_examples=300, deadline=None)
    def test_observe_matches_the_walk_bit_for_bit(self, case):
        period, n_bins, alpha, estimates, seen, windows = case
        predictor = ProfilePredictor(period=period, n_bins=n_bins, alpha=alpha)
        predictor._estimates[:] = estimates
        predictor._seen[:] = seen
        estimates, seen = list(estimates), list(seen)
        for t0, t1, energy in windows:
            predictor.observe(t0, t1, energy)
            walked_observe(predictor, estimates, seen, t0, t1, energy)
            assert _bits(predictor.bin_estimates()) == _bits(estimates)
            assert predictor.bin_seen().tolist() == seen

    def test_one_bin_window_skips_the_walk(self, monkeypatch):
        predictor = ProfilePredictor(period=10.0, n_bins=2, alpha=1.0)

        def no_walk(t0, t1):
            raise AssertionError("walked a one-bin window")

        monkeypatch.setattr(predictor, "_segments", no_walk)
        predictor.observe(1.0, 2.0, 3.0)
        predictor.observe(2.0, 5.0, 3.0)  # ends on the bin's edge
        assert predictor.bin_estimates().tolist() == [1.0, 0.0]
        with pytest.raises(AssertionError, match="walked"):
            predictor.observe(4.0, 6.0, 3.0)
