"""Discrete DVFS frequency/power model.

Section 3.3 of the paper: the processor has ``N`` discrete clock speeds
``f_1 < ... < f_N`` with powers ``P_1 < ... < P_N``; the *relative speed*
``S_n = f_n / f_N`` scales execution time (a job with worst-case execution
time ``w`` at ``f_N`` takes ``w / S_n`` at ``f_n``).

:class:`FrequencyScale` is an immutable, validated collection of
:class:`FrequencyLevel` entries ordered by speed; it owns the two queries
the EA-DVFS algorithm needs:

* :meth:`FrequencyScale.min_feasible_level` — the lowest level satisfying
  inequality (6), ``w / S_n <= window``;
* :meth:`FrequencyScale.max_level` — full speed.

Energy efficiency sanity: the paper's XScale ladder has strictly increasing
energy-per-work-unit (``P_n / S_n``), which is what makes slowing down
worthwhile; :meth:`FrequencyScale.validate_efficiency` checks this and the
constructor warns when a level is strictly dominated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.timeutils import EPSILON

__all__ = ["FrequencyLevel", "FrequencyScale", "SwitchingOverhead"]


@dataclass(frozen=True, order=True)
class FrequencyLevel:
    """One DVFS operating point.

    Attributes
    ----------
    speed:
        Relative speed ``S_n = f_n / f_max`` in ``(0, 1]``.
    power:
        Active power drawn at this level (abstract units — must be
        consistent with the energy source and storage).
    frequency_hz:
        Optional physical frequency, informational only.
    """

    speed: float
    power: float
    frequency_hz: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.speed <= 1.0 + EPSILON:
            raise ValueError(f"speed must lie in (0, 1], got {self.speed!r}")
        if self.power <= 0 or not math.isfinite(self.power):
            raise ValueError(f"power must be finite and > 0, got {self.power!r}")
        if self.frequency_hz < 0:
            raise ValueError(
                f"frequency_hz must be >= 0, got {self.frequency_hz!r}"
            )

    @property
    def energy_per_work(self) -> float:
        """Energy to complete one unit of (full-speed) work: ``P_n / S_n``."""
        return self.power / self.speed

    def execution_time(self, work: float) -> float:
        """Wall-clock time to execute ``work`` full-speed work units."""
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work!r}")
        return work / self.speed


@dataclass(frozen=True)
class SwitchingOverhead:
    """Cost of changing DVFS level (zero in the paper — ablation knob).

    ``time`` is dead time during which no work progresses; ``energy`` is an
    additional draw charged to the storage at the moment of the switch.
    """

    time: float = 0.0
    energy: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0 or not math.isfinite(self.time):
            raise ValueError(f"switch time must be finite and >= 0, got {self.time!r}")
        if self.energy < 0 or not math.isfinite(self.energy):
            raise ValueError(
                f"switch energy must be finite and >= 0, got {self.energy!r}"
            )

    @property
    def is_free(self) -> bool:
        # Exact zeros: configured overhead constants, not derived floats.
        return self.time == 0.0 and self.energy == 0.0


class FrequencyScale:
    """Immutable ordered set of DVFS levels.

    Levels are sorted by increasing speed; the fastest level must have
    ``speed == 1.0`` (speeds are relative to ``f_max`` by definition).
    Powers must be strictly increasing with speed.
    """

    def __init__(self, levels: Sequence[FrequencyLevel]) -> None:
        if not levels:
            raise ValueError("a frequency scale needs at least one level")
        ordered = sorted(levels, key=lambda lv: lv.speed)
        for a, b in zip(ordered, ordered[1:]):
            if b.speed - a.speed <= EPSILON:
                raise ValueError(
                    f"duplicate or non-increasing speeds: {a.speed!r}, {b.speed!r}"
                )
            if b.power <= a.power:
                raise ValueError(
                    "power must increase with speed: "
                    f"P({a.speed!r})={a.power!r} vs P({b.speed!r})={b.power!r}"
                )
        if abs(ordered[-1].speed - 1.0) > EPSILON:
            raise ValueError(
                f"fastest level must have speed 1.0, got {ordered[-1].speed!r}"
            )
        self._levels: tuple[FrequencyLevel, ...] = tuple(ordered)
        self._index_levels()
        dominated = self.dominated_levels()
        if dominated:
            warnings.warn(
                "frequency scale has energy-dominated levels (higher "
                f"energy-per-work than a faster level): indices {dominated}",
                stacklevel=2,
            )

    def _index_levels(self) -> None:
        # Positions of the scale's own level objects, by identity: the
        # simulator only ever hands back levels the scale gave out.
        self._positions = {id(lv): i for i, lv in enumerate(self._levels)}

    def __getstate__(self) -> dict[str, object]:
        # Identities do not survive a copy or a pickle; the copy rebuilds.
        return {"_levels": self._levels}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._index_levels()

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        frequencies_hz: Sequence[float],
        powers: Sequence[float],
    ) -> "FrequencyScale":
        """Build a scale from physical frequencies and matching powers.

        Speeds are normalized by the largest frequency.
        """
        if len(frequencies_hz) != len(powers):
            raise ValueError(
                f"{len(frequencies_hz)} frequencies but {len(powers)} powers"
            )
        if not frequencies_hz:
            raise ValueError("at least one frequency is required")
        f_max = max(frequencies_hz)
        if f_max <= 0:
            raise ValueError("frequencies must be positive")
        return cls(
            [
                FrequencyLevel(speed=f / f_max, power=p, frequency_hz=f)
                for f, p in zip(frequencies_hz, powers)
            ]
        )

    @classmethod
    def single_speed(cls, power: float) -> "FrequencyScale":
        """A processor without DVFS (one full-speed level)."""
        return cls([FrequencyLevel(speed=1.0, power=power)])

    # -- basic access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self) -> Iterator[FrequencyLevel]:
        return iter(self._levels)

    def __getitem__(self, index: int) -> FrequencyLevel:
        return self._levels[index]

    def __contains__(self, level: object) -> bool:
        return id(level) in self._positions or level in self._levels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyScale):
            return NotImplemented
        return self._levels == other._levels

    def __hash__(self) -> int:
        return hash(self._levels)

    @property
    def levels(self) -> tuple[FrequencyLevel, ...]:
        return self._levels

    @property
    def max_level(self) -> FrequencyLevel:
        """The full-speed level (``S = 1``, ``P = P_max``)."""
        return self._levels[-1]

    @property
    def min_level(self) -> FrequencyLevel:
        return self._levels[0]

    @property
    def max_power(self) -> float:
        """``P_max``, the power at full speed."""
        return self._levels[-1].power

    def index_of(self, level: FrequencyLevel) -> int:
        """Position of ``level`` within the scale.

        The scale's own level objects are found by identity; an equal
        level that is not one of them is found by ``==``.
        """
        position = self._positions.get(id(level))
        if position is None:
            return self._levels.index(level)
        return position

    # -- scheduling queries ---------------------------------------------------

    def min_feasible_level(
        self, work: float, window: float
    ) -> Optional[FrequencyLevel]:
        """Lowest level finishing ``work`` within ``window`` (ineq. (6)).

        ``work`` is expressed in full-speed execution time.  Returns
        ``None`` when even full speed does not fit (``work > window``) —
        the deadline cannot be respected regardless of energy.
        """
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work!r}")
        if window < 0:
            return None
        for level in self._levels:
            if level.execution_time(work) <= window + EPSILON:
                return level
        return None

    def level_at_least(self, speed: float) -> FrequencyLevel:
        """Slowest level with ``S_n >= speed`` (clamped to full speed)."""
        for level in self._levels:
            if level.speed >= speed - EPSILON:
                return level
        return self.max_level

    def dominated_levels(self) -> tuple[int, ...]:
        """Indices of levels whose energy-per-work exceeds a faster level's.

        Running at a dominated level is never energy-optimal: the faster
        level finishes the same work with less energy.  The paper's XScale
        ladder has none.
        """
        dominated: list[int] = []
        best_above = math.inf
        for i in range(len(self._levels) - 1, -1, -1):
            epw = self._levels[i].energy_per_work
            if epw >= best_above - EPSILON:
                dominated.append(i)
            best_above = min(best_above, epw)
        return tuple(sorted(dominated))

    def validate_efficiency(self) -> None:
        """Raise :class:`ValueError` if any level is energy-dominated."""
        dominated = self.dominated_levels()
        if dominated:
            raise ValueError(
                f"levels {dominated} are energy-dominated; slowing down to "
                "them can never save energy"
            )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"(S={lv.speed:.3g}, P={lv.power:.4g})" for lv in self._levels
        )
        return f"FrequencyScale([{inner}])"
