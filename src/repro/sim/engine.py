"""A minimal deterministic discrete-event simulation kernel.

SimPy is not available in this offline environment, so the repository ships
its own kernel.  It is intentionally small: a monotonic clock plus a binary
heap of :class:`ScheduledEvent` entries with deterministic tie-breaking
(time, then priority, then insertion order).  The kernel is generic enough
to be reused for other event-driven models (see the unit tests for a
standalone M/M/1-style example).  The harvesting simulator in
:mod:`repro.sim.simulator` schedules all of its events before the first
one fires, so it keeps them in one list presorted in this queue's pop
order and shares only :func:`event_time`, the scheduling-time checks.
"""

# The event queue orders and dispatches instants *exactly* (total order
# for the heap); float tolerance is applied once, in Clock.advance_to.

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.timeutils import EPSILON

__all__ = ["SimulationClock", "ScheduledEvent", "EventQueue", "event_time"]


def event_time(time: float, now: float) -> float:
    """The instant an event requested at ``time`` is scheduled for.

    ``time`` must not lie in the past (tolerance
    :data:`~repro.timeutils.EPSILON`; slightly-past times are snapped to
    ``now``) and must not be NaN; either raises :class:`ValueError`.
    """
    if math.isnan(time):
        raise ValueError("cannot schedule an event at NaN")
    if time < now:
        if time < now - EPSILON:
            raise ValueError(
                f"cannot schedule into the past: now={now!r}, "
                f"requested {time!r}"
            )
        time = now
    return float(time)


class SimulationClock:
    """Monotonically non-decreasing simulated clock.

    The clock refuses to move backwards: event-driven code that computes a
    stale timestamp fails loudly instead of silently corrupting causality.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if not math.isfinite(start):
            raise ValueError(f"clock start must be finite, got {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Tiny backwards drift (within :data:`~repro.timeutils.EPSILON`) is
        snapped to the current time — and *only* snapped, never stored, so
        repeated sub-EPSILON drifts cannot accumulate into a real
        regression.  Anything larger raises :class:`ValueError`, as does a
        NaN target (which would otherwise fail every comparison and
        masquerade as a backwards move).
        """
        if math.isnan(t):
            raise ValueError("clock target must not be NaN")
        if t >= self._now:
            self._now = t
            return
        if t >= self._now - EPSILON:
            return  # float noise: keep the clock where it is
        raise ValueError(
            f"clock cannot move backwards: now={self._now!r}, requested {t!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulationClock(now={self._now!r})"


@dataclass(order=False)
class ScheduledEvent:
    """An event stored in an :class:`EventQueue`.

    Events compare by ``(time, priority, sequence)`` which makes the pop
    order fully deterministic for equal timestamps.  Lower ``priority``
    values pop first.
    """

    time: float
    priority: int
    sequence: int
    kind: str
    payload: Any = None
    callback: Optional[Callable[["ScheduledEvent"], None]] = None
    cancelled: bool = field(default=False, compare=False)
    dispatched: bool = field(default=False, compare=False)

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.sequence)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self.sort_key() < other.sort_key()


class EventQueue:
    """Deterministic event heap with lazy cancellation.

    Cancelled events stay in the heap and are dropped when they surface;
    this keeps cancellation O(1) at the cost of occasional dead entries,
    which is the standard approach for simulation kernels.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimulationClock(start)
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        self._live = 0
        self._processed = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._clock.now

    @property
    def processed_count(self) -> int:
        """Number of events popped (and not cancelled) so far."""
        return self._processed

    # -- scheduling -------------------------------------------------------

    def schedule(
        self,
        time: float,
        kind: str,
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[ScheduledEvent], None]] = None,
    ) -> ScheduledEvent:
        """Insert an event at absolute time ``time`` and return its handle.

        ``time`` must not lie in the past (tolerance
        :data:`~repro.timeutils.EPSILON`; slightly-past times are snapped to
        "now").
        """
        event = ScheduledEvent(
            time=event_time(time, self.now),
            priority=priority,
            sequence=next(self._counter),
            kind=kind,
            payload=payload,
            callback=callback,
        )
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def schedule_after(
        self,
        delay: float,
        kind: str,
        payload: Any = None,
        priority: int = 0,
        callback: Optional[Callable[[ScheduledEvent], None]] = None,
    ) -> ScheduledEvent:
        """Insert an event ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self.now + delay, kind, payload, priority, callback)

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a previously scheduled event (idempotent).

        Cancelling an event that was already popped is a no-op: the heap
        no longer holds it, so decrementing ``_live`` for it would make
        the queue under-count its remaining live events (``__len__`` and
        ``run`` would then stop early with real events still queued).
        """
        if not event.cancelled and not event.dispatched:
            event.cancel()
            self._live -= 1

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def peek_time(self) -> float:
        """Time of the next live event, or ``+inf`` when empty."""
        self._drop_dead_entries()
        if not self._heap:
            return math.inf
        return self._heap[0].time

    def _drop_dead_entries(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)

    # -- execution --------------------------------------------------------

    def pop(self) -> ScheduledEvent:
        """Pop the next live event and advance the clock to its time."""
        self._drop_dead_entries()
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        event = heapq.heappop(self._heap)
        event.dispatched = True
        self._live -= 1
        self._processed += 1
        self._clock.advance_to(event.time)
        return event

    def run(
        self,
        until: float = math.inf,
        max_events: Optional[int] = None,
    ) -> int:
        """Pop-and-dispatch events until ``until`` or exhaustion.

        Each event's ``callback`` is invoked with the event itself.  Events
        scheduled exactly at ``until`` are *not* executed (the horizon is
        half-open), matching the convention that a simulation over
        ``[0, T)`` does not process arrivals at ``T``.

        Returns the number of events dispatched by this call.
        """
        dispatched = 0
        while self:
            if self.peek_time() >= until:
                break
            if max_events is not None and dispatched >= max_events:
                break
            event = self.pop()
            dispatched += 1
            if event.callback is not None:
                event.callback(event)
        if math.isfinite(until) and until > self._clock.now:
            self._clock.advance_to(until)
        return dispatched

    def drain(self) -> Iterator[ScheduledEvent]:
        """Yield remaining live events in order, advancing the clock."""
        while self:
            yield self.pop()
