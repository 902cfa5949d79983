"""Storage-side fault injector: capacity fade and leakage spikes.

:class:`DegradedStorage` wraps any :class:`~repro.energy.EnergyStorage`
and superimposes two aging/fault mechanisms:

* **capacity fade** — the usable capacity shrinks linearly with elapsed
  simulation time down to a configurable floor; charge above the faded
  capacity is expelled and counted as leakage;
* **leakage spikes** — a seeded outage process (same machine as
  :class:`~repro.faults.BlackoutSource`) switches an extra parasitic
  drain on and off per quantum, modeling intermittent short-circuit
  paths or a misbehaving peripheral.

The wrapper keeps the storage contract the simulator depends on:
``net_flow``, ``time_to_empty`` and ``advance`` all apply the *same*
spike schedule, and the spike drain is pinned off while the store is
empty (mirroring :class:`~repro.energy.NonIdealStorage`'s leak pinning),
so the simulator's depletion splitting and stall detection stay
consistent and cannot livelock on zero-length segments.

``time_to_empty`` walks the spike schedule window by window and is exact
up to a bounded look-ahead; past the bound it returns a safe
*underestimate*, which only makes the simulator split a segment early
and re-evaluate — never deliver energy that does not exist.
``time_to_full`` ignores *future* spike transitions and ongoing fade
(documented approximation; the simulator does not use it).
"""

from __future__ import annotations

import math

import numpy as np

from repro.energy.storage import EnergyStorage, SegmentResult
from repro.timeutils import EPSILON, INFINITY

__all__ = ["DegradedStorage"]


class DegradedStorage(EnergyStorage):
    """Capacity fade plus seeded leakage spikes on top of any storage.

    Parameters
    ----------
    inner:
        The wrapped storage; all charge state lives there.
    seed:
        Seed of the private spike-schedule RNG.
    fade_rate:
        Fractional capacity loss per time unit (e.g. ``1e-4`` loses 1% of
        nameplate capacity every 100 time units).  Requires a finite
        inner capacity when nonzero.
    min_capacity_fraction:
        Floor of the fade, as a fraction of nameplate capacity.
    spike_probability:
        Per-quantum probability of a new leakage spike starting while
        none is active.
    spike_power:
        Extra parasitic drain (at the load side) while a spike is active.
    min_spike_duration, max_spike_duration:
        Inclusive spike length range in quanta.
    quantum:
        Length of one spike-schedule interval.
    """

    #: Bounded look-ahead of the ``time_to_empty`` schedule walk.  Small on
    #: purpose: the simulator only acts on depletion times shorter than the
    #: current segment (at most one source quantum), so a finite safe
    #: underestimate past the bound is as good as infinity to the caller.
    _MAX_WINDOWS = 64

    def __init__(
        self,
        inner: EnergyStorage,
        seed: int = 0,
        fade_rate: float = 0.0,
        min_capacity_fraction: float = 0.5,
        spike_probability: float = 0.0,
        spike_power: float = 0.0,
        min_spike_duration: int = 1,
        max_spike_duration: int = 5,
        quantum: float = 1.0,
    ) -> None:
        # Deliberately not calling EnergyStorage.__init__: every public
        # member is overridden to delegate to ``inner``, which owns the
        # charge state.
        if fade_rate < 0 or not math.isfinite(fade_rate):
            raise ValueError(f"fade_rate must be finite and >= 0, got {fade_rate!r}")
        if fade_rate > 0 and math.isinf(inner.capacity):
            raise ValueError("capacity fade requires a finite inner capacity")
        if not 0.0 < min_capacity_fraction <= 1.0:
            raise ValueError(
                "min_capacity_fraction must lie in (0, 1], got "
                f"{min_capacity_fraction!r}"
            )
        if not 0.0 <= spike_probability <= 1.0:
            raise ValueError(
                f"spike_probability must lie in [0, 1], got {spike_probability!r}"
            )
        if spike_power < 0 or not math.isfinite(spike_power):
            raise ValueError(
                f"spike_power must be finite and >= 0, got {spike_power!r}"
            )
        min_spike_duration = int(min_spike_duration)
        max_spike_duration = int(max_spike_duration)
        if not 1 <= min_spike_duration <= max_spike_duration:
            raise ValueError(
                "spike durations must satisfy 1 <= min <= max, got "
                f"{min_spike_duration!r}..{max_spike_duration!r}"
            )
        if quantum <= 0 or not math.isfinite(quantum):
            raise ValueError(f"quantum must be finite and > 0, got {quantum!r}")
        self._inner = inner
        self._seed = int(seed)
        self._fade_rate = float(fade_rate)
        self._min_cap_frac = float(min_capacity_fraction)
        self._spike_p = float(spike_probability)
        self._spike_power = float(spike_power)
        self._min_spike = min_spike_duration
        self._max_spike = max_spike_duration
        self._quantum = float(quantum)
        self._rng = np.random.default_rng(self._seed)
        self._spikes: list[bool] = []
        self._spike_left = 0
        self._elapsed = 0.0
        # Energy the fault layer routed through the inner draw path; used
        # to re-classify it from "drawn" to "leaked" in the totals.
        self._injected_drawn = 0.0
        self._fade_drawn = 0.0
        self._fade_lost = 0.0

    # -- wrapper introspection ------------------------------------------------

    @property
    def inner(self) -> EnergyStorage:
        """The wrapped fault-free storage."""
        return self._inner

    @property
    def seed(self) -> int:
        """Seed of the private spike RNG."""
        return self._seed

    @property
    def fade_rate(self) -> float:
        """Fractional capacity loss per time unit."""
        return self._fade_rate

    @property
    def spike_power(self) -> float:
        """Parasitic drain while a leakage spike is active."""
        return self._spike_power

    @property
    def has_spikes(self) -> bool:
        """Whether the spike process can ever activate."""
        return self._spike_p > 0.0 and self._spike_power > 0.0

    @property
    def elapsed(self) -> float:
        """Simulation time this storage has been advanced through."""
        return self._elapsed

    @property
    def nominal_capacity(self) -> float:
        """The inner storage's nameplate capacity (before fade)."""
        return self._inner.capacity

    @property
    def effective_capacity(self) -> float:
        """Current usable capacity after fade."""
        # Exact == 0.0: fade is a feature toggle set from config, never
        # a derived float.
        if self._fade_rate == 0.0:
            return self._inner.capacity
        keep = max(self._min_cap_frac, 1.0 - self._fade_rate * self._elapsed)
        return self._inner.capacity * keep

    # -- state (delegated) ----------------------------------------------------

    @property
    def capacity(self) -> float:
        """Usable capacity right now (the faded value)."""
        return self.effective_capacity

    @property
    def stored(self) -> float:
        return self._inner.stored

    @property
    def fraction(self) -> float:
        cap = self.effective_capacity
        if math.isinf(cap):
            return math.nan
        return self._inner.stored / cap

    @property
    def is_empty(self) -> bool:
        return self._inner.is_empty

    @property
    def is_full(self) -> bool:
        return self._inner.stored >= self.effective_capacity - EPSILON

    @property
    def total_overflow(self) -> float:
        return self._inner.total_overflow

    @property
    def total_drawn(self) -> float:
        """Energy delivered to the *load* (fault drains excluded)."""
        return self._inner.total_drawn - self._injected_drawn - self._fade_drawn

    @property
    def total_leaked(self) -> float:
        """Inner leakage plus spike drain plus capacity-fade losses."""
        return self._inner.total_leaked + self._injected_drawn + self._fade_lost

    # -- spike schedule -------------------------------------------------------

    def _window_index(self, elapsed: float) -> int:
        return max(0, int(math.floor((elapsed + EPSILON) / self._quantum)))

    def _spike_active(self, index: int) -> bool:
        while len(self._spikes) <= index:
            if self._spike_left > 0:
                self._spike_left -= 1
                self._spikes.append(True)
            elif float(self._rng.random()) < self._spike_p:
                self._spike_left = (
                    int(self._rng.integers(self._min_spike, self._max_spike + 1)) - 1
                )
                self._spikes.append(True)
            else:
                self._spikes.append(False)
        return self._spikes[index]

    def _spike_draw(self, index: int, level: float) -> float:
        """Spike drain acting at ``level``; pinned off at an empty store.

        An empty store has no charge for the parasitic path to drain, so
        the spike must not masquerade as load draw there — otherwise the
        simulator would stall the CPU for a fault that cannot bite.
        """
        if not self.has_spikes or level <= EPSILON:
            return 0.0
        return self._spike_power if self._spike_active(index) else 0.0

    # -- analytic segment operations ------------------------------------------

    def net_flow(self, harvest_power: float, draw_power: float) -> float:
        spike = self._spike_draw(self._window_index(self._elapsed), self._inner.stored)
        return self._inner.net_flow(harvest_power, draw_power + spike)

    def time_to_empty(self, harvest_power: float, draw_power: float) -> float:
        self._check_powers(harvest_power, draw_power)
        inner = self._inner
        if math.isinf(inner.stored):
            return INFINITY
        if not self.has_spikes:
            return inner.time_to_empty(harvest_power, draw_power)
        if inner.stored <= EPSILON:
            # Empty-pinned regime: the spike drain is off (nothing to
            # drain), so the inner prediction is exact *while pinned*.
            # But a charging store rises out of the pinned regime, and a
            # spike window can then flip the net flow negative — which
            # the inner model cannot see.  Split at the current spike
            # window's end: up to there the spike stays off (advance()
            # gates it on the level at the window start, which is
            # pinned), so the level cannot cross zero before that, and
            # the caller re-evaluates with the recharged level.
            t_inner = inner.time_to_empty(harvest_power, draw_power)
            index = self._window_index(self._elapsed)
            span = (index + 1) * self._quantum - self._elapsed
            if span <= EPSILON:
                span = self._quantum
            return min(t_inner, span)

        # The inner net_flow is state-dependent only through its
        # empty-pinning; the store is non-empty here, so both regime rates
        # are constants and the walk over the spike schedule is exact
        # until the walked level approaches empty.
        rate_clear = inner.net_flow(harvest_power, draw_power)
        rate_spike = inner.net_flow(harvest_power, draw_power + self._spike_power)
        if rate_clear >= -EPSILON and rate_spike >= -EPSILON:
            return INFINITY
        level = inner.stored
        pos = self._elapsed
        total = 0.0
        for _ in range(self._MAX_WINDOWS):
            index = self._window_index(pos)
            window_end = (index + 1) * self._quantum
            span = window_end - pos
            if span <= 0.0:  # defensive nudge guard
                span = self._quantum
            rate = rate_spike if self._spike_active(index) else rate_clear
            if rate < -EPSILON:
                crossing = level / -rate
                if crossing <= span + EPSILON:
                    return total + min(crossing, span)
            level = min(level + rate * span, inner.capacity)
            total += span
            pos = window_end
            if level <= EPSILON:
                # Walked into the pinned regime without an exact crossing:
                # report the window end — a safe (early) split point.
                return total
        return total  # safe underestimate; the caller splits and re-walks

    def time_to_full(self, harvest_power: float, draw_power: float) -> float:
        """Linear estimate at the *current* spike state and capacity.

        Ignores future spike transitions and ongoing fade — acceptable
        because overfill is clamped exactly in :meth:`advance` and the
        simulator never splits segments on fill events.
        """
        self._check_powers(harvest_power, draw_power)
        cap = self.effective_capacity
        if math.isinf(cap):
            return INFINITY
        rate = self.net_flow(harvest_power, draw_power)
        if rate <= EPSILON:
            return INFINITY
        return max(0.0, (cap - self._inner.stored) / rate)

    def advance(
        self, duration: float, harvest_power: float, draw_power: float
    ) -> SegmentResult:
        if duration < 0 or math.isnan(duration):
            raise ValueError(f"duration must be >= 0, got {duration!r}")
        self._check_powers(harvest_power, draw_power)
        # Exact == 0.0, matching EnergyStorage.advance: sub-EPSILON
        # slivers still carry energy the conservation oracles count.
        if duration == 0.0:
            return SegmentResult(drawn=0.0, stored_delta=0.0, overflow=0.0)

        before = self._inner.stored
        overflow = 0.0
        leaked = 0.0
        remaining = duration
        pos = self._elapsed
        while remaining > 0.0:
            index = self._window_index(pos)
            window_end = (index + 1) * self._quantum
            span = window_end - pos
            if span <= 0.0:  # defensive nudge guard
                span = self._quantum
            if span >= remaining - EPSILON:
                span = remaining  # snap the final sliver exactly
            spike = self._spike_draw(index, self._inner.stored)
            seg = self._inner.advance(span, harvest_power, draw_power + spike)
            if spike > 0.0:
                spike_energy = spike * span
                self._injected_drawn += spike_energy
                leaked += spike_energy
            overflow += seg.overflow
            leaked += seg.leaked
            pos += span
            remaining -= span
        self._elapsed = pos
        leaked += self._apply_fade_clamp()
        after = self._inner.stored
        return SegmentResult(
            drawn=draw_power * duration,
            stored_delta=after - before,
            overflow=overflow,
            leaked=leaked,
        )

    def _apply_fade_clamp(self) -> float:
        """Expel charge above the faded capacity; returns the energy lost."""
        if self._fade_rate == 0.0:
            return 0.0
        excess = self._inner.stored - self.effective_capacity
        if excess <= EPSILON:
            return 0.0
        # Route the expulsion through the inner draw path so its state
        # update stays internally consistent; the discharge factor converts
        # "stored energy to remove" into "delivered energy to request".
        factor = self._inner._instant_discharge_factor()
        delivered = self._inner.draw_instant(excess / factor)
        removed = delivered * factor
        self._fade_drawn += delivered
        self._fade_lost += removed
        return removed

    def _advance_finite(
        self, duration: float, harvest_power: float, draw_power: float
    ) -> SegmentResult:  # pragma: no cover - advance() is fully overridden
        raise AssertionError("DegradedStorage overrides advance() directly")

    def draw_instant(self, energy: float) -> float:
        return self._inner.draw_instant(energy)

    def _instant_discharge_factor(self) -> float:
        return self._inner._instant_discharge_factor()

    def __repr__(self) -> str:
        return (
            f"DegradedStorage({self._inner!r}, seed={self._seed}, "
            f"fade_rate={self._fade_rate!r}, "
            f"spike_probability={self._spike_p!r}, "
            f"spike_power={self._spike_power!r})"
        )
