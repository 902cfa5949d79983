"""Runtime processor state: current level, busy-time and switch accounting."""

from __future__ import annotations

import math
from typing import Optional

from repro.cpu.dvfs import FrequencyLevel, FrequencyScale, SwitchingOverhead
from repro.timeutils import EPSILON, ordered_sum

__all__ = ["Processor"]

#: The overhead of every free switch; frozen, so one object serves all.
_FREE_SWITCH = SwitchingOverhead()


class Processor:
    """A DVFS processor's runtime state.

    Tracks the currently selected level (``None`` while idle), accumulates
    per-level busy time, idle time and level-switch counts, and applies the
    optional :class:`SwitchingOverhead`.  The simulator owns *when* time
    passes; the processor merely records it.
    """

    def __init__(
        self,
        scale: FrequencyScale,
        idle_power: float = 0.0,
        overhead: Optional[SwitchingOverhead] = None,
    ) -> None:
        if idle_power < 0 or not math.isfinite(idle_power):
            raise ValueError(f"idle_power must be finite and >= 0, got {idle_power!r}")
        self._scale = scale
        self._idle_power = float(idle_power)
        self._overhead = overhead or _FREE_SWITCH
        self._current: Optional[FrequencyLevel] = None
        self._current_index = -1  # scale index of _current (-1 while idle)
        self._busy_time = [0.0] * len(scale)
        self._idle_time = 0.0
        self._switches = 0
        self._switch_time_spent = 0.0
        self._switch_energy_spent = 0.0

    # -- configuration ------------------------------------------------------

    @property
    def scale(self) -> FrequencyScale:
        return self._scale

    @property
    def idle_power(self) -> float:
        """Power drawn while no job runs (0 in the paper's model)."""
        return self._idle_power

    @property
    def overhead(self) -> SwitchingOverhead:
        return self._overhead

    # -- state ---------------------------------------------------------------

    @property
    def current_level(self) -> Optional[FrequencyLevel]:
        """The active level, or ``None`` when idle."""
        return self._current

    @property
    def is_idle(self) -> bool:
        return self._current is None

    @property
    def draw_power(self) -> float:
        """Instantaneous power drawn from the storage."""
        if self._current is None:
            return self._idle_power
        return self._current.power

    @property
    def speed(self) -> float:
        """Current execution speed (0 when idle)."""
        return 0.0 if self._current is None else self._current.speed

    # -- transitions -----------------------------------------------------------

    def set_level(self, level: Optional[FrequencyLevel]) -> SwitchingOverhead:
        """Select a level (or ``None`` to idle).

        Returns the switching overhead the caller must account for; the
        overhead is zero when the level does not actually change and for
        transitions to/from idle (clock gating is assumed free — only
        voltage/frequency transitions pay).
        """
        if level is not None and level not in self._scale:
            raise ValueError(f"{level!r} is not a level of {self._scale!r}")
        previous = self._current
        self._current = level
        self._current_index = -1 if level is None else self._scale.index_of(level)
        if (
            previous is None
            or level is None
            or abs(previous.speed - level.speed) <= EPSILON
        ):
            return _FREE_SWITCH
        self._switches += 1
        self._switch_time_spent += self._overhead.time
        self._switch_energy_spent += self._overhead.energy
        return self._overhead

    def account_time(self, duration: float) -> None:
        """Record ``duration`` elapsing in the current state."""
        if duration < 0 or math.isnan(duration):
            raise ValueError(f"duration must be >= 0, got {duration!r}")
        if self._current is None:
            self._idle_time += duration
        else:
            self._busy_time[self._current_index] += duration

    # -- statistics --------------------------------------------------------------

    @property
    def switch_count(self) -> int:
        return self._switches

    @property
    def switch_time_spent(self) -> float:
        return self._switch_time_spent

    @property
    def switch_energy_spent(self) -> float:
        return self._switch_energy_spent

    @property
    def idle_time(self) -> float:
        return self._idle_time

    @property
    def total_busy_time(self) -> float:
        return ordered_sum(self._busy_time)

    def busy_time_at(self, index: int) -> float:
        """Accumulated busy time at level ``index`` of the scale."""
        return self._busy_time[index]

    def busy_time_profile(self) -> dict[float, float]:
        """Mapping ``speed -> busy time`` over all levels."""
        return {
            self._scale[i].speed: self._busy_time[i]
            for i in range(len(self._scale))
        }

    def __repr__(self) -> str:
        state = "idle" if self._current is None else f"S={self._current.speed:.3g}"
        return f"Processor({state}, switches={self._switches})"
