"""Unit and property tests for the energy storage models."""

# Every literal comparison below pins a level that the storage reaches
# exactly (a clamp at empty or full, or an exact sum).

import math

import pytest
from hypothesis import given, settings

from repro.energy.storage import IdealStorage, NonIdealStorage
from repro.timeutils import time_ge, time_le
from repro.verify.strategies import storage_programs


class TestIdealStorageBasics:
    def test_starts_full_by_default(self):
        storage = IdealStorage(capacity=100.0)
        assert storage.stored == 100.0
        assert storage.is_full
        assert storage.fraction == 1.0

    def test_custom_initial(self):
        storage = IdealStorage(capacity=100.0, initial=20.0)
        assert storage.stored == 20.0
        assert not storage.is_full

    def test_initial_above_capacity_rejected(self):
        with pytest.raises(ValueError, match="exceeds capacity"):
            IdealStorage(capacity=10.0, initial=11.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            IdealStorage(capacity=0.0)

    def test_infinite_capacity_finite_level(self):
        storage = IdealStorage(capacity=math.inf, initial=50.0)
        assert storage.stored == 50.0
        assert math.isnan(storage.fraction)

    def test_infinite_level_requires_infinite_capacity(self):
        with pytest.raises(ValueError):
            IdealStorage(capacity=100.0, initial=math.inf)


class TestIdealStorageDynamics:
    def test_charge(self):
        storage = IdealStorage(capacity=100.0, initial=10.0)
        result = storage.advance(5.0, harvest_power=2.0, draw_power=0.0)
        assert storage.stored == pytest.approx(20.0)
        assert result.stored_delta == pytest.approx(10.0)
        assert result.overflow == 0.0

    def test_discharge(self):
        storage = IdealStorage(capacity=100.0, initial=50.0)
        result = storage.advance(4.0, harvest_power=0.5, draw_power=8.0)
        # eq. (4): EC(t2) = EC(t1) + ES - ED
        assert storage.stored == pytest.approx(50.0 + 2.0 - 32.0)
        assert result.drawn == pytest.approx(32.0)

    def test_overflow_discarded(self):
        """Section 3.2: incoming energy beyond the capacity is discarded."""
        storage = IdealStorage(capacity=100.0, initial=95.0)
        result = storage.advance(10.0, harvest_power=2.0, draw_power=0.0)
        assert storage.stored == 100.0
        assert result.overflow == pytest.approx(15.0)
        assert storage.total_overflow == pytest.approx(15.0)

    def test_depletion_to_exact_zero(self):
        storage = IdealStorage(capacity=100.0, initial=16.0)
        storage.advance(2.0, harvest_power=0.0, draw_power=8.0)
        assert storage.stored == 0.0
        assert storage.is_empty

    def test_draining_below_zero_raises(self):
        """The simulator must split segments at depletion; violating that
        is an accounting bug, not a clamp."""
        storage = IdealStorage(capacity=100.0, initial=1.0)
        with pytest.raises(RuntimeError, match="below zero"):
            storage.advance(1.0, harvest_power=0.0, draw_power=8.0)

    def test_time_to_empty(self):
        storage = IdealStorage(capacity=100.0, initial=15.0)
        assert storage.time_to_empty(0.5, 8.0) == pytest.approx(2.0)

    def test_time_to_empty_when_charging(self):
        storage = IdealStorage(capacity=100.0, initial=15.0)
        assert storage.time_to_empty(2.0, 1.0) == math.inf

    def test_time_to_full(self):
        storage = IdealStorage(capacity=100.0, initial=90.0)
        assert storage.time_to_full(2.0, 0.0) == pytest.approx(5.0)

    def test_time_to_full_when_draining(self):
        storage = IdealStorage(capacity=100.0, initial=90.0)
        assert storage.time_to_full(1.0, 2.0) == math.inf

    def test_infinite_storage_never_empties(self):
        storage = IdealStorage(capacity=math.inf, initial=math.inf)
        assert storage.time_to_empty(0.0, 100.0) == math.inf
        result = storage.advance(10.0, harvest_power=0.0, draw_power=5.0)
        assert result.drawn == 50.0
        assert math.isinf(storage.stored)

    def test_total_drawn_accumulates(self):
        storage = IdealStorage(capacity=100.0)
        storage.advance(2.0, 0.0, 10.0)
        storage.advance(3.0, 0.0, 10.0)
        assert storage.total_drawn == pytest.approx(50.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            IdealStorage(capacity=10.0).advance(-1.0, 0.0, 0.0)

    def test_negative_powers_rejected(self):
        storage = IdealStorage(capacity=10.0)
        with pytest.raises(ValueError):
            storage.advance(1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            storage.time_to_empty(0.0, -1.0)

    @pytest.mark.parametrize(
        "harvest, draw", [(math.nan, 0.0), (0.0, math.nan), (-math.inf, 1.0)]
    )
    def test_nan_and_infinite_negative_powers_rejected(self, harvest, draw):
        storage = IdealStorage(capacity=10.0)
        with pytest.raises(ValueError, match="power must be >= 0"):
            storage.advance(1.0, harvest, draw)
        with pytest.raises(ValueError, match="power must be >= 0"):
            storage.time_to_empty(harvest, draw)
        # Zero (either sign) and infinite powers are valid.
        assert storage.time_to_empty(-0.0, math.inf) == 0.0


class TestDrawInstant:
    def test_full_withdrawal(self):
        storage = IdealStorage(capacity=100.0, initial=50.0)
        assert storage.draw_instant(20.0) == 20.0
        assert storage.stored == pytest.approx(30.0)

    def test_partial_when_insufficient(self):
        storage = IdealStorage(capacity=100.0, initial=5.0)
        assert storage.draw_instant(20.0) == 5.0
        assert storage.stored == 0.0

    def test_zero_is_noop(self):
        storage = IdealStorage(capacity=100.0, initial=5.0)
        assert storage.draw_instant(0.0) == 0.0
        assert storage.stored == 5.0

    def test_infinite_storage(self):
        storage = IdealStorage(capacity=math.inf, initial=math.inf)
        assert storage.draw_instant(1e9) == 1e9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IdealStorage(capacity=10.0).draw_instant(-1.0)


class TestIdealStorageProperties:
    @given(storage_programs())
    @settings(max_examples=100, deadline=None)
    def test_level_always_within_bounds(self, program):
        """Invariant (1): 0 <= EC(t) <= C under any segment program."""
        capacity, initial, segments = program
        storage = IdealStorage(capacity=capacity, initial=initial)
        for duration, harvest, draw in segments:
            # Split at depletion exactly like the simulator does.
            t_empty = storage.time_to_empty(harvest, draw)
            safe = min(duration, t_empty)
            storage.advance(safe, harvest, draw)
            assert time_ge(storage.stored, 0.0)
            assert time_le(storage.stored, capacity)

    @given(storage_programs())
    @settings(max_examples=100, deadline=None)
    def test_energy_conservation(self, program):
        """initial + harvested == stored + drawn + overflow (ideal model)."""
        capacity, initial, segments = program
        storage = IdealStorage(capacity=capacity, initial=initial)
        harvested = 0.0
        for duration, harvest, draw in segments:
            t_empty = storage.time_to_empty(harvest, draw)
            safe = min(duration, t_empty)
            storage.advance(safe, harvest, draw)
            harvested += harvest * safe
        balance = (
            storage.stored
            + storage.total_drawn
            + storage.total_overflow
            - initial
            - harvested
        )
        assert balance == pytest.approx(0.0, abs=1e-6 * max(1.0, harvested))


class TestNonIdealStorage:
    def test_charge_efficiency(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=0.0, charge_efficiency=0.5,
            discharge_efficiency=1.0,
        )
        storage.advance(10.0, harvest_power=2.0, draw_power=0.0)
        assert storage.stored == pytest.approx(10.0)

    def test_discharge_efficiency(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=50.0, charge_efficiency=1.0,
            discharge_efficiency=0.5,
        )
        result = storage.advance(2.0, harvest_power=0.0, draw_power=5.0)
        assert result.drawn == pytest.approx(10.0)  # delivered to the load
        assert storage.stored == pytest.approx(50.0 - 20.0)  # store paid double

    def test_leakage_drains_idle_storage(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=10.0, charge_efficiency=1.0,
            discharge_efficiency=1.0, leakage_power=1.0,
        )
        storage.advance(4.0, harvest_power=0.0, draw_power=0.0)
        assert storage.stored == pytest.approx(6.0)
        assert storage.total_leaked == pytest.approx(4.0)

    def test_leakage_stops_at_empty(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=2.0, charge_efficiency=1.0,
            discharge_efficiency=1.0, leakage_power=1.0,
        )
        storage.advance(10.0, harvest_power=0.0, draw_power=0.0)
        assert storage.stored == 0.0
        assert storage.total_leaked == pytest.approx(2.0)

    def test_leakage_capped_by_inflow_when_empty(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=0.0, charge_efficiency=1.0,
            discharge_efficiency=1.0, leakage_power=5.0,
        )
        storage.advance(10.0, harvest_power=1.0, draw_power=0.0)
        assert storage.stored == 0.0
        assert storage.total_leaked == pytest.approx(10.0)

    def test_time_to_empty_includes_losses(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=10.0, charge_efficiency=1.0,
            discharge_efficiency=0.5, leakage_power=1.0,
        )
        # net flow = -5/0.5 - 1 = -11 per unit
        assert storage.time_to_empty(0.0, 5.0) == pytest.approx(10.0 / 11.0)

    def test_draw_instant_pays_discharge_loss(self):
        storage = NonIdealStorage(
            capacity=100.0, initial=10.0, discharge_efficiency=0.5,
        )
        delivered = storage.draw_instant(3.0)
        assert delivered == 3.0
        assert storage.stored == pytest.approx(4.0)

    def test_invalid_efficiencies_rejected(self):
        with pytest.raises(ValueError):
            NonIdealStorage(capacity=10.0, charge_efficiency=0.0)
        with pytest.raises(ValueError):
            NonIdealStorage(capacity=10.0, discharge_efficiency=1.5)

    def test_ideal_limit_matches_ideal_storage(self):
        """eta=1, no leak: behaves exactly like IdealStorage."""
        lossy = NonIdealStorage(
            capacity=50.0, initial=20.0, charge_efficiency=1.0,
            discharge_efficiency=1.0, leakage_power=0.0,
        )
        ideal = IdealStorage(capacity=50.0, initial=20.0)
        for duration, harvest, draw in [(2.0, 3.0, 1.0), (5.0, 0.5, 2.0),
                                        (3.0, 10.0, 0.0)]:
            t_safe = min(
                duration, lossy.time_to_empty(harvest, draw),
                ideal.time_to_empty(harvest, draw),
            )
            lossy.advance(t_safe, harvest, draw)
            ideal.advance(t_safe, harvest, draw)
            assert lossy.stored == pytest.approx(ideal.stored)
