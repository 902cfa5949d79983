"""Unit and property tests for the energy source models."""

# Sources are piecewise constant or seeded: every comparison below is an
# exact pin of a configured value or a same-bits determinism check.

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.source import (
    SOLAR_ENVELOPE_PERIOD,
    CompositeSource,
    ConstantSource,
    DayNightSource,
    MarkovWeatherSource,
    ScaledSource,
    SolarStochasticSource,
    TraceSource,
    _QuantizedSource,
    piece_reader,
)
from repro.faults.sources import BlackoutSource
from repro.timeutils import EPSILON


class TestConstantSource:
    def test_power_everywhere(self):
        src = ConstantSource(2.5)
        assert src.power(0.0) == 2.5
        assert src.power(123.4) == 2.5

    def test_energy_is_linear(self):
        src = ConstantSource(0.5)
        assert src.energy(0.0, 16.0) == pytest.approx(8.0)

    def test_no_boundaries(self):
        assert ConstantSource(1.0).next_boundary(10.0) == math.inf

    def test_mean_power(self):
        assert ConstantSource(3.0).mean_power() == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantSource(-1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ConstantSource(1.0).power(-5.0)

    def test_infinite_energy_end_rejected(self):
        with pytest.raises(ValueError, match="finite end"):
            ConstantSource(1.0).energy(0.0, math.inf)


class TestSolarStochasticSource:
    def test_deterministic_given_seed(self):
        a = SolarStochasticSource(seed=3)
        b = SolarStochasticSource(seed=3)
        times = np.linspace(0, 500, 100)
        assert [a.power(t) for t in times] == [b.power(t) for t in times]

    def test_different_seeds_differ(self):
        a = SolarStochasticSource(seed=1)
        b = SolarStochasticSource(seed=2)
        assert any(a.power(t) != b.power(t) for t in range(50))

    def test_out_of_order_queries_consistent(self):
        """Query order must not change the realization (cached draws)."""
        a = SolarStochasticSource(seed=5)
        late_then_early = (a.power(400.0), a.power(3.0))
        b = SolarStochasticSource(seed=5)
        early_then_late = (b.power(3.0), b.power(400.0))
        assert late_then_early == (early_then_late[1], early_then_late[0])

    def test_non_negative_with_abs(self):
        src = SolarStochasticSource(seed=0, rectify="abs")
        assert all(src.power(float(t)) >= 0 for t in range(1000))

    def test_non_negative_with_clamp_and_many_zeros(self):
        src = SolarStochasticSource(seed=0, rectify="clamp")
        values = [src.power(float(t)) for t in range(1000)]
        assert all(v >= 0 for v in values)
        # clamp zeroes out roughly half the Gaussian draws
        assert sum(1 for v in values if v == 0.0) > 300

    def test_raw_mode_can_be_negative(self):
        src = SolarStochasticSource(seed=0, rectify="none")
        assert any(src.power(float(t)) < 0 for t in range(200))

    def test_constant_within_quantum(self):
        src = SolarStochasticSource(seed=9)
        assert src.power(10.0) == src.power(10.5) == src.power(10.999)

    def test_boundary_advances_by_quantum(self):
        src = SolarStochasticSource(seed=9)
        assert src.next_boundary(10.0) == pytest.approx(11.0)
        assert src.next_boundary(10.7) == pytest.approx(11.0)

    def test_envelope_modulates_amplitude(self):
        """Power near the envelope trough is much smaller than near crest."""
        src = SolarStochasticSource(seed=1)
        period = SOLAR_ENVELOPE_PERIOD
        crest = [src.power(k * period + d) for k in range(3) for d in range(5)]
        trough = [
            src.power(k * period + period / 2 + d)
            for k in range(3)
            for d in range(5)
        ]
        assert np.mean(crest) > 10 * max(np.mean(trough), 1e-12)

    def test_empirical_mean_matches_analytic(self):
        src = SolarStochasticSource(seed=12)
        horizon = 20_000.0
        empirical = src.energy(0.0, horizon) / horizon
        assert empirical == pytest.approx(src.mean_power(), rel=0.1)

    def test_mean_power_closed_forms(self):
        assert SolarStochasticSource(rectify="abs").mean_power() == pytest.approx(
            10.0 * math.sqrt(2 / math.pi) / 2
        )
        assert SolarStochasticSource(rectify="clamp").mean_power() == pytest.approx(
            10.0 / (2 * math.sqrt(2 * math.pi))
        )

    def test_invalid_rectify_rejected(self):
        with pytest.raises(ValueError, match="rectify"):
            SolarStochasticSource(rectify="wrong")

    @given(
        t0=st.floats(min_value=0, max_value=1000),
        span_a=st.floats(min_value=0.1, max_value=100),
        span_b=st.floats(min_value=0.1, max_value=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_energy_additivity(self, t0, span_a, span_b):
        """ES(t0, t2) == ES(t0, t1) + ES(t1, t2) — eq. (2) is an integral."""
        src = SolarStochasticSource(seed=7)
        t1, t2 = t0 + span_a, t0 + span_a + span_b
        whole = src.energy(t0, t2)
        parts = src.energy(t0, t1) + src.energy(t1, t2)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-9)


class TestDayNightSource:
    def test_two_modes(self):
        src = DayNightSource(day_power=5.0, night_power=1.0,
                             day_length=10.0, night_length=10.0)
        assert src.power(3.0) == 5.0
        assert src.power(15.0) == 1.0
        assert src.power(23.0) == 5.0  # wrapped into the next day

    def test_boundaries_at_mode_switches(self):
        src = DayNightSource(day_power=5.0, night_power=1.0,
                             day_length=10.0, night_length=5.0)
        assert src.next_boundary(3.0) == pytest.approx(10.0)
        assert src.next_boundary(12.0) == pytest.approx(15.0)
        assert src.next_boundary(15.0) == pytest.approx(25.0)

    def test_mean_power_weighted(self):
        src = DayNightSource(day_power=6.0, night_power=0.0,
                             day_length=10.0, night_length=30.0)
        assert src.mean_power() == pytest.approx(1.5)

    def test_energy_over_full_cycle(self):
        src = DayNightSource(day_power=2.0, night_power=0.5,
                             day_length=10.0, night_length=10.0)
        assert src.energy(0.0, 20.0) == pytest.approx(25.0)

    def test_phase_shifts_start(self):
        src = DayNightSource(day_power=5.0, night_power=1.0,
                             day_length=10.0, night_length=10.0, phase=10.0)
        assert src.power(0.0) == 1.0  # starts in the night

    def test_invalid_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            DayNightSource(1.0, day_length=5.0, night_length=5.0, phase=10.0)


class TestTraceSource:
    def test_replays_values(self):
        src = TraceSource([1.0, 2.0, 3.0])
        assert src.power(0.5) == 1.0
        assert src.power(1.5) == 2.0
        assert src.power(2.9) == 3.0

    def test_dead_after_end(self):
        src = TraceSource([1.0, 2.0])
        assert src.power(5.0) == 0.0

    def test_cyclic_wraps(self):
        src = TraceSource([1.0, 2.0], cyclic=True)
        assert src.power(2.5) == 1.0
        assert src.power(3.5) == 2.0

    def test_custom_quantum(self):
        src = TraceSource([1.0, 2.0], quantum=5.0)
        assert src.power(4.9) == 1.0
        assert src.power(5.1) == 2.0
        assert src.next_boundary(1.0) == pytest.approx(5.0)

    def test_energy_integrates_exactly(self):
        src = TraceSource([1.0, 3.0, 2.0])
        assert src.energy(0.5, 2.5) == pytest.approx(0.5 * 1 + 1 * 3 + 0.5 * 2)

    def test_mean_power(self):
        assert TraceSource([1.0, 3.0]).mean_power() == 2.0

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            TraceSource([1.0, -2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TraceSource([])


class TestCombinators:
    def test_scaled_gain_and_offset(self):
        src = ScaledSource(ConstantSource(2.0), gain=0.5, offset=1.0)
        assert src.power(0.0) == 2.0

    def test_scaled_clamps_at_zero(self):
        src = ScaledSource(ConstantSource(1.0), gain=1.0, offset=-5.0)
        assert src.power(0.0) == 0.0

    def test_scaled_inherits_boundaries(self):
        inner = TraceSource([1.0, 2.0])
        assert ScaledSource(inner, gain=2.0).next_boundary(0.5) == pytest.approx(1.0)

    def test_composite_sums_power(self):
        src = CompositeSource([ConstantSource(1.0), ConstantSource(2.5)])
        assert src.power(3.0) == 3.5
        assert src.mean_power() == 3.5

    def test_composite_min_boundary(self):
        src = CompositeSource(
            [TraceSource([1.0] * 10, quantum=3.0), TraceSource([1.0] * 10, quantum=2.0)]
        )
        assert src.next_boundary(0.0) == pytest.approx(2.0)

    def test_composite_energy(self):
        src = CompositeSource([ConstantSource(1.0), ConstantSource(2.0)])
        assert src.energy(0.0, 10.0) == pytest.approx(30.0)

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeSource([])


class TestSample:
    def test_sample_grid(self):
        src = ConstantSource(2.0)
        values = src.sample(0.0, 5.0, step=1.0)
        assert values.shape == (5,)
        assert (values == 2.0).all()

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            ConstantSource(1.0).sample(0.0, 1.0, step=0.0)


class _Doubled(TraceSource):
    """A quantized source whose power() is overridden below _piece."""

    def power(self, t):
        return 2.0 * super().power(t)


#: Times on, just below and between quantum boundaries.
_PIECE_TIMES = (0.0, 0.5, 1.0, math.nextafter(3.0, 0.0), 7.25, 123.0)


class TestPieceReader:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: SolarStochasticSource(seed=3),
            lambda: TraceSource([1.0, 2.0, 3.0], quantum=0.5, cyclic=True),
            lambda: ConstantSource(2.0),
            lambda: DayNightSource(day_power=3.0, day_length=2.0,
                                   night_length=1.5),
            lambda: ScaledSource(SolarStochasticSource(seed=1), gain=0.5),
            lambda: CompositeSource(
                [SolarStochasticSource(seed=2), ConstantSource(1.0)]
            ),
            lambda: BlackoutSource(SolarStochasticSource(seed=4), seed=5,
                                   start_probability=0.3),
            lambda: _Doubled([1.0, 4.0]),
        ],
    )
    def test_reads_power_and_next_boundary(self, make):
        source, reference = make(), make()
        read = piece_reader(source)
        for t in _PIECE_TIMES:
            assert read(t) == (reference.power(t), reference.next_boundary(t))

    def test_quantized_source_reads_its_own_piece(self):
        source = SolarStochasticSource(seed=3)
        assert piece_reader(source) == source._piece

    def test_subclass_override_is_read(self):
        assert piece_reader(_Doubled([1.0, 4.0]))(1.5) == (8.0, 2.0)

    def test_instance_override_is_read(self):
        source = TraceSource([1.0, 4.0])
        source.next_boundary = lambda t: 0.25
        assert piece_reader(source)(0.0) == (1.0, 0.25)
        source = TraceSource([1.0, 4.0])
        source.power = lambda t: 9.0
        assert piece_reader(source)(0.0) == (9.0, 1.0)


def _piece_loop(source, t0, t1):
    """Reference copy of the energy loop over ``_QuantizedSource._piece``."""
    if t1 - t0 <= EPSILON:
        return 0.0
    total = 0.0
    t = t0
    while t < t1 - EPSILON:
        power, boundary = source._piece(t)
        segment_end = min(boundary, t1)
        total += power * (segment_end - t)
        t = segment_end
    return total


def _bits(value):
    assert type(value) is float
    return value.hex()


@st.composite
def quantized_windows(draw):
    """``(make, t0, t1)``: a fresh-source factory and one window.

    ``t0`` lies on a quantum boundary or anywhere; the window stays
    inside one quantum, is short, or spans hundreds of quanta.
    """
    quantum = draw(st.sampled_from((1.0, 0.5, 0.3)))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(("solar", "markov", "trace")))
    cyclic = draw(st.booleans())

    def make():
        if kind == "solar":
            return SolarStochasticSource(seed=seed, quantum=quantum)
        if kind == "markov":
            return MarkovWeatherSource(seed=seed, quantum=quantum)
        powers = np.random.default_rng(seed).uniform(0.0, 10.0, 97)
        return TraceSource(powers, quantum=quantum, cyclic=cyclic)

    k = draw(st.integers(0, 600))
    if draw(st.booleans()):
        t0 = k * quantum
    else:
        t0 = draw(st.floats(0.0, 600.0, allow_nan=False))
    boundary = (math.floor((t0 + EPSILON) / quantum) + 1) * quantum
    span = draw(
        st.one_of(
            st.floats(0.0, 1.0).map(lambda u: u * (boundary - t0)),
            st.floats(0.0, 40.0 * quantum),
            st.floats(0.0, 700.0 * quantum),
        )
    )
    return make, t0, t0 + span


class _HalvedPiece(TraceSource):
    """A quantized source whose _piece is overridden."""

    def _piece(self, t):
        power, boundary = super()._piece(t)
        return 0.5 * power, boundary


class TestQuantumWalk:
    @settings(max_examples=400, deadline=None)
    @given(quantized_windows())
    def test_walk_equals_the_piece_loop(self, window):
        make, t0, t1 = window
        expected = _bits(_piece_loop(make(), t0, t1))
        assert _bits(make()._walk_energy(t0, t1)) == expected
        assert _bits(make().energy(t0, t1)) == expected

    def test_long_window_takes_the_walk(self):
        source = SolarStochasticSource(seed=5)
        calls = []
        walk = source._walk_energy
        source._walk_energy = lambda t0, t1: calls.append(t0) or walk(t0, t1)
        assert source.energy(0.0, 2000.0) == _piece_loop(source, 0.0, 2000.0)
        assert calls == [0.0]

    def test_piece_override_takes_the_loop(self):
        source = _HalvedPiece([1.0, 3.0, 5.0], quantum=0.5, cyclic=True)
        plain = TraceSource([1.0, 3.0, 5.0], quantum=0.5, cyclic=True)
        expected = _piece_loop(source, 0.25, 300.0)
        assert source.energy(0.25, 300.0) == expected
        assert plain.energy(0.25, 300.0) == 2.0 * expected

    def test_instance_quantum_power_override_takes_the_loop(self):
        source = TraceSource([1.0, 3.0])
        source._quantum_power = lambda index: 2.0
        assert source.energy(0.0, 100.0) == 200.0

    def test_off_ladder_index_takes_the_loop(self):
        # An _index one quantum ahead at t0 fails the walk's check; the
        # loop then reads the shifted quanta.
        source = TraceSource(np.arange(1.0, 201.0))
        source._index = lambda t: _QuantizedSource._index(source, t) + 1
        assert source.energy(0.5, 150.0) == _piece_loop(source, 0.5, 150.0)
        assert source.energy(0.5, 150.0) != TraceSource(
            np.arange(1.0, 201.0)
        ).energy(0.5, 150.0)
