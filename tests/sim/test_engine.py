"""Unit tests for the discrete-event kernel."""

# The kernel orders and dispatches instants exactly, so these tests pin
# its clock and event times exactly too.

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import EventQueue, SimulationClock
from repro.timeutils import time_ge


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now == 0.0

    def test_custom_start(self):
        assert SimulationClock(5.0).now == 5.0

    def test_infinite_start_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock(math.inf)

    def test_advance(self):
        clock = SimulationClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_backwards_rejected(self):
        clock = SimulationClock(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(9.0)

    def test_tiny_backwards_noise_tolerated(self):
        clock = SimulationClock(10.0)
        clock.advance_to(10.0 - 1e-12)
        assert clock.now == 10.0

    def test_nan_target_rejected(self):
        clock = SimulationClock(5.0)
        with pytest.raises(ValueError, match="NaN"):
            clock.advance_to(math.nan)
        assert clock.now == 5.0


class TestClockDriftAccumulation:
    """Sub-EPSILON backwards drift is snapped, never stored.

    A clock that *stored* the slightly-past target would let thousands of
    tiny float-noise regressions accumulate into a real backwards move;
    these properties pin the snapping behavior down.
    """

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_now_equals_running_maximum(self, targets):
        clock = SimulationClock()
        high = 0.0
        for t in targets:
            if time_ge(t, clock.now):
                clock.advance_to(t)
                high = max(high, t)
        assert clock.now == high

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=1e-13, max_value=9e-10),
    )
    def test_repeated_sub_epsilon_drift_never_accumulates(self, n, drift):
        clock = SimulationClock(10.0)
        for _ in range(min(n, 500)):
            clock.advance_to(10.0 - drift)
        assert clock.now == 10.0

    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-13, max_value=9e-10),
    )
    def test_drift_then_advance_is_exact(self, start, drift):
        clock = SimulationClock(start)
        clock.advance_to(start - drift)
        clock.advance_to(start + 1.0)
        assert clock.now == start + 1.0

    @given(st.floats(min_value=1e-8, max_value=1.0))
    def test_real_regression_still_rejected(self, gap):
        clock = SimulationClock(10.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(10.0 - max(gap, 1e-8))


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.schedule(3.0, "c")
        q.schedule(1.0, "a")
        q.schedule(2.0, "b")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        q.schedule(1.0, "late", priority=5)
        q.schedule(1.0, "early", priority=0)
        assert q.pop().kind == "early"
        assert q.pop().kind == "late"

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        first = q.schedule(1.0, "x", payload=1)
        second = q.schedule(1.0, "x", payload=2)
        assert q.pop() is first
        assert q.pop() is second

    def test_pop_advances_clock(self):
        q = EventQueue()
        q.schedule(7.5, "x")
        q.pop()
        assert q.now == 7.5

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_pop_order_is_sorted(self, times):
        q = EventQueue()
        for t in times:
            q.schedule(t, "e")
        popped = [q.pop().time for _ in range(len(times))]
        assert popped == sorted(popped)


class TestEventQueueScheduling:
    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        with pytest.raises(ValueError, match="into the past"):
            q.schedule(1.0, "y")

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            EventQueue().schedule(math.nan, "x")

    def test_schedule_after(self):
        q = EventQueue()
        q.schedule(2.0, "first")
        q.pop()
        event = q.schedule_after(3.0, "second")
        assert event.time == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EventQueue().schedule_after(-1.0, "x")

    def test_slightly_past_snaps_to_now(self):
        q = EventQueue()
        q.schedule(5.0, "x")
        q.pop()
        event = q.schedule(5.0 - 1e-12, "y")
        assert event.time == 5.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        doomed = q.schedule(1.0, "doomed")
        q.schedule(2.0, "kept")
        q.cancel(doomed)
        assert len(q) == 1
        assert q.pop().kind == "kept"

    def test_cancel_idempotent(self):
        q = EventQueue()
        event = q.schedule(1.0, "x")
        q.cancel(event)
        q.cancel(event)
        assert len(q) == 0

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        doomed = q.schedule(1.0, "doomed")
        q.schedule(4.0, "kept")
        q.cancel(doomed)
        assert q.peek_time() == 4.0

    def test_empty_peek_is_inf(self):
        assert EventQueue().peek_time() == math.inf

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestRun:
    def test_callbacks_dispatched(self):
        q = EventQueue()
        seen = []
        for t in (1.0, 2.0, 3.0):
            q.schedule(t, "tick", callback=lambda e: seen.append(e.time))
        dispatched = q.run()
        assert dispatched == 3
        assert seen == [1.0, 2.0, 3.0]

    def test_until_is_half_open(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, "in", callback=lambda e: seen.append(e.kind))
        q.schedule(2.0, "out", callback=lambda e: seen.append(e.kind))
        q.run(until=2.0)
        assert seen == ["in"]
        assert q.now == 2.0  # clock still advances to the horizon

    def test_callback_may_schedule_more(self):
        q = EventQueue()
        count = 0

        def chain(event):
            nonlocal count
            count += 1
            if count < 5:
                q.schedule_after(1.0, "chain", callback=chain)

        q.schedule(0.0, "chain", callback=chain)
        q.run()
        assert count == 5
        assert q.now == 4.0

    def test_max_events_limit(self):
        q = EventQueue()
        for t in range(10):
            q.schedule(float(t), "e")
        assert q.run(max_events=4) == 4
        assert len(q) == 6

    def test_drain_yields_in_order(self):
        q = EventQueue()
        q.schedule(2.0, "b")
        q.schedule(1.0, "a")
        assert [e.kind for e in q.drain()] == ["a", "b"]

    def test_processed_count(self):
        q = EventQueue()
        q.schedule(1.0, "a")
        q.schedule(2.0, "b")
        q.run()
        assert q.processed_count == 2


class TestCancelAfterPop:
    """Regression tests for the live-count invariant around stale handles.

    ``pop`` removes the event from the heap; cancelling the returned
    handle afterwards used to decrement ``_live`` a second time, making
    the queue report fewer live events than it holds (``run``/``drain``
    then stop early with real events still queued).
    """

    def test_cancel_after_pop_keeps_live_count(self):
        q = EventQueue()
        first = q.schedule(1.0, "first")
        q.schedule(2.0, "second")
        assert q.pop() is first
        q.cancel(first)  # stale handle: must be a no-op
        assert len(q) == 1
        assert bool(q)
        assert q.pop().kind == "second"

    def test_cancel_after_pop_does_not_truncate_run(self):
        q = EventQueue()
        seen = []
        q.schedule(1.0, "tick", callback=lambda e: q.cancel(e))
        for t in (2.0, 3.0):
            q.schedule(t, "tick", callback=lambda e: seen.append(e.time))
        assert q.run() == 3
        assert seen == [2.0, 3.0]

    def test_popped_event_not_marked_cancelled(self):
        q = EventQueue()
        event = q.schedule(1.0, "x")
        q.pop()
        q.cancel(event)
        assert not event.cancelled
        assert event.dispatched

    def test_cancel_then_reschedule_same_time(self):
        # The dead entry sorts ahead of its same-time replacement (lower
        # sequence), so peek/pop must skim it via _drop_dead_entries.
        q = EventQueue()
        doomed = q.schedule(1.0, "doomed")
        q.cancel(doomed)
        replacement = q.schedule(1.0, "replacement")
        assert len(q) == 1
        assert q.peek_time() == 1.0
        assert q.pop() is replacement
        assert len(q) == 0
        assert q.processed_count == 1

    def test_cancel_reschedule_cycle_preserves_counts(self):
        q = EventQueue()
        current = q.schedule(5.0, "job")
        for _ in range(3):
            q.cancel(current)
            current = q.schedule(5.0, "job")
        q.schedule(6.0, "late")
        assert len(q) == 2
        assert [e.kind for e in q.drain()] == ["job", "late"]
        assert q.processed_count == 2
