"""Energy storage models.

Section 3.2 of the paper assumes an *ideal* storage: charged up to its
capacity ``C`` (excess harvest overflows and is discarded), discharged all
the way to zero, no conversion losses, no leakage.  :class:`IdealStorage`
implements exactly that.  :class:`NonIdealStorage` adds charge/discharge
efficiencies and a leakage drain as an ablation of the ideality assumption.

The simulator advances the system in segments of constant harvest and draw
power, so storage exposes *analytic* segment operations:

* :meth:`EnergyStorage.time_to_empty` / :meth:`EnergyStorage.time_to_full`
  — linear-root predictions used to split segments at the instant the
  storage state saturates;
* :meth:`EnergyStorage.advance` — exact state update over a segment during
  which the level is known not to cross zero (the simulator splits there).

An infinite storage (``capacity=inf, initial=inf``) is supported because
the paper's section 4.3 argues EA-DVFS degenerates to plain EDF in that
case; the test suite enforces the degeneration.
"""

from __future__ import annotations

import abc
import math
from typing import NamedTuple

from repro.timeutils import EPSILON, INFINITY, snap_nonnegative

__all__ = ["SegmentResult", "EnergyStorage", "IdealStorage", "NonIdealStorage"]


class SegmentResult(NamedTuple):
    """Energy bookkeeping for one constant-power segment.

    Immutable.  A named tuple rather than a frozen dataclass, because the
    simulator builds one per step and a frozen dataclass's ``__init__``
    costs about twice as much.

    Attributes
    ----------
    drawn:
        Energy delivered to the load (``draw_power * duration``).
    stored_delta:
        Net change of the stored level.
    overflow:
        Harvested energy discarded because the storage was full.
    leaked:
        Energy lost to leakage (always 0 for :class:`IdealStorage`).
    """

    drawn: float
    stored_delta: float
    overflow: float
    leaked: float = 0.0


class EnergyStorage(abc.ABC):
    """Common interface of storage models."""

    def __init__(self, capacity: float, initial: float) -> None:
        if math.isnan(capacity) or capacity <= 0:
            raise ValueError(f"capacity must be > 0 (or inf), got {capacity!r}")
        if math.isnan(initial) or initial < 0:
            raise ValueError(f"initial level must be >= 0, got {initial!r}")
        if initial > capacity + EPSILON:
            raise ValueError(
                f"initial level {initial!r} exceeds capacity {capacity!r}"
            )
        if math.isinf(initial) and not math.isinf(capacity):
            raise ValueError("infinite level requires infinite capacity")
        self._capacity = float(capacity)
        self._stored = min(float(initial), self._capacity)
        self._total_overflow = 0.0
        self._total_drawn = 0.0
        self._total_leaked = 0.0

    # -- state ------------------------------------------------------------

    @property
    def capacity(self) -> float:
        """Storage capacity ``C`` (possibly ``inf``)."""
        return self._capacity

    @property
    def stored(self) -> float:
        """Current stored energy ``EC(t)``."""
        return self._stored

    @property
    def fraction(self) -> float:
        """Normalized level ``EC(t)/C``; ``nan`` for infinite capacity."""
        if math.isinf(self._capacity):
            return math.nan
        return self._stored / self._capacity

    @property
    def is_empty(self) -> bool:
        return self._stored <= EPSILON

    @property
    def is_full(self) -> bool:
        return self._stored >= self._capacity - EPSILON

    @property
    def total_overflow(self) -> float:
        """Cumulative harvested energy discarded while full."""
        return self._total_overflow

    @property
    def total_drawn(self) -> float:
        """Cumulative energy delivered to the load."""
        return self._total_drawn

    @property
    def total_leaked(self) -> float:
        """Cumulative leakage losses."""
        return self._total_leaked

    # -- analytic segment operations ---------------------------------------

    @abc.abstractmethod
    def net_flow(self, harvest_power: float, draw_power: float) -> float:
        """Rate of change of the stored level under the given powers.

        For the ideal storage this is simply ``harvest - draw``; lossy
        models fold efficiencies and leakage in.  Saturation at 0/C is not
        considered here.
        """

    def time_to_empty(self, harvest_power: float, draw_power: float) -> float:
        """Time until the level reaches zero, or ``inf`` if it never does."""
        self._check_powers(harvest_power, draw_power)
        if math.isinf(self._stored):
            return INFINITY
        rate = self.net_flow(harvest_power, draw_power)
        if rate >= -EPSILON:
            return INFINITY
        return max(0.0, self._stored / -rate)

    def time_to_full(self, harvest_power: float, draw_power: float) -> float:
        """Time until the level reaches capacity, or ``inf`` if never."""
        self._check_powers(harvest_power, draw_power)
        if math.isinf(self._capacity):
            return INFINITY
        rate = self.net_flow(harvest_power, draw_power)
        if rate <= EPSILON:
            return INFINITY
        return max(0.0, (self._capacity - self._stored) / rate)

    def advance(
        self, duration: float, harvest_power: float, draw_power: float
    ) -> SegmentResult:
        """Advance the storage through one constant-power segment.

        The caller (the simulator) must have split the segment so that the
        level does not cross *zero* inside it while drawing; violating that
        raises :class:`RuntimeError`, which flags a simulator accounting
        bug rather than silently delivering energy that does not exist.
        Crossing the *capacity* is fine — the excess is counted as
        overflow.
        """
        if duration < 0 or math.isnan(duration):
            raise ValueError(f"duration must be >= 0, got {duration!r}")
        self._check_powers(harvest_power, draw_power)
        # Exact == 0.0 on purpose: a tolerant zero would swallow the
        # energy of sub-EPSILON slivers and break conservation oracles.
        if duration == 0.0:
            return SegmentResult(drawn=0.0, stored_delta=0.0, overflow=0.0)
        if math.isinf(self._stored):
            drawn = draw_power * duration
            self._total_drawn += drawn
            return SegmentResult(drawn=drawn, stored_delta=0.0, overflow=0.0)
        result = self._advance_finite(duration, harvest_power, draw_power)
        self._total_drawn += result.drawn
        self._total_overflow += result.overflow
        self._total_leaked += result.leaked
        return result

    @abc.abstractmethod
    def _advance_finite(
        self, duration: float, harvest_power: float, draw_power: float
    ) -> SegmentResult:
        """Model-specific update for a finite stored level."""

    def draw_instant(self, energy: float) -> float:
        """Withdraw a lump of energy right now (e.g. a DVFS switch cost).

        Returns the energy actually delivered, which may be less than
        requested when the storage cannot cover it (best effort — the
        switch happens regardless, it simply browns the storage out).
        """
        if energy < 0 or math.isnan(energy):
            raise ValueError(f"energy must be >= 0, got {energy!r}")
        # Exact == 0.0: tiny lumps must still be accounted, not dropped.
        if energy == 0.0:
            return 0.0
        if math.isinf(self._stored):
            self._total_drawn += energy
            return energy
        cost_factor = self._instant_discharge_factor()
        delivered = min(energy, self._stored / cost_factor)
        self._stored = snap_nonnegative(self._stored - delivered * cost_factor)
        self._total_drawn += delivered
        return delivered

    def _instant_discharge_factor(self) -> float:
        """Stored energy spent per unit delivered (1.0 for ideal storage)."""
        return 1.0

    @staticmethod
    def _check_powers(harvest_power: float, draw_power: float) -> None:
        # ``not (p >= 0)`` is ``p < 0 or isnan(p)`` without the isnan call:
        # the simulator checks twice per step (time_to_empty, advance).
        if not (harvest_power >= 0):
            raise ValueError(f"harvest power must be >= 0, got {harvest_power!r}")
        if not (draw_power >= 0):
            raise ValueError(f"draw power must be >= 0, got {draw_power!r}")

    def _saturate(self, proposed: float) -> tuple[float, float]:
        """Clamp a proposed new level into ``[0, C]``.

        Returns ``(new_level, overflow)``.  Levels below ``-EPSILON``
        raise — the simulator should have split the segment at depletion.
        """
        if proposed < 0.0:
            # Tolerance is looser than EPSILON: segment ends are clipped to
            # depletion instants computed from the same floats, so the
            # residual can be a few rate*EPSILON in magnitude.
            if proposed < -1e-6 * max(1.0, abs(self._stored)):
                raise RuntimeError(
                    "storage drained below zero inside a segment "
                    f"(proposed level {proposed!r}); the caller must split "
                    "segments at the depletion instant"
                )
            proposed = 0.0
        overflow = 0.0
        if proposed > self._capacity:
            overflow = proposed - self._capacity
            proposed = self._capacity
        return proposed, overflow


class IdealStorage(EnergyStorage):
    """The paper's ideal storage (section 3.2).

    ``capacity`` may be ``inf``; ``initial`` defaults to a full storage as
    in the simulation setup of section 5.1 ("in the beginning of the
    simulation, the energy storage is full").
    """

    def __init__(self, capacity: float, initial: float | None = None) -> None:
        super().__init__(capacity, capacity if initial is None else initial)

    def net_flow(self, harvest_power: float, draw_power: float) -> float:
        return harvest_power - draw_power

    def _advance_finite(
        self, duration: float, harvest_power: float, draw_power: float
    ) -> SegmentResult:
        old = self._stored
        proposed = old + (harvest_power - draw_power) * duration
        new, overflow = self._saturate(proposed)
        self._stored = new
        return SegmentResult(
            drawn=draw_power * duration,
            stored_delta=new - old,
            overflow=overflow,
        )

    def __repr__(self) -> str:
        return (
            f"IdealStorage(capacity={self._capacity!r}, "
            f"stored={self._stored!r})"
        )


class NonIdealStorage(EnergyStorage):
    """Storage with conversion losses and leakage (ideality ablation).

    Parameters
    ----------
    charge_efficiency:
        Fraction of harvested energy that actually reaches the store
        (``0 < eta_c <= 1``).
    discharge_efficiency:
        Delivered/withdrawn ratio: supplying ``P`` to the load depletes the
        store at ``P / eta_d`` (``0 < eta_d <= 1``).
    leakage_power:
        Constant self-discharge drain while the store is non-empty.
    """

    def __init__(
        self,
        capacity: float,
        initial: float | None = None,
        charge_efficiency: float = 0.9,
        discharge_efficiency: float = 0.9,
        leakage_power: float = 0.0,
    ) -> None:
        super().__init__(capacity, capacity if initial is None else initial)
        for name, eta in (
            ("charge_efficiency", charge_efficiency),
            ("discharge_efficiency", discharge_efficiency),
        ):
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {eta!r}")
        if leakage_power < 0 or not math.isfinite(leakage_power):
            raise ValueError(
                f"leakage_power must be finite and >= 0, got {leakage_power!r}"
            )
        self._eta_c = float(charge_efficiency)
        self._eta_d = float(discharge_efficiency)
        self._leak = float(leakage_power)

    @property
    def charge_efficiency(self) -> float:
        return self._eta_c

    @property
    def discharge_efficiency(self) -> float:
        return self._eta_d

    @property
    def leakage_power(self) -> float:
        return self._leak

    def _effective_leak(self, inflow: float, outflow: float) -> float:
        """Leakage rate actually acting in the current state.

        Leakage drains stored charge, so with a non-empty store the full
        rate applies.  At an empty store there is no charge to leak —
        leakage can only eat the surplus of inflow over outflow (the
        level stays pinned at zero).  This single rule is used by both
        :meth:`net_flow` and the integrator, so the simulator's
        depletion/stall logic and the state update can never disagree.
        """
        if self._stored > EPSILON:
            return self._leak
        return min(self._leak, max(0.0, inflow - outflow))

    def net_flow(self, harvest_power: float, draw_power: float) -> float:
        inflow = self._eta_c * harvest_power
        outflow = draw_power / self._eta_d
        return inflow - outflow - self._effective_leak(inflow, outflow)

    def _instant_discharge_factor(self) -> float:
        return 1.0 / self._eta_d

    def _advance_finite(
        self, duration: float, harvest_power: float, draw_power: float
    ) -> SegmentResult:
        old = self._stored
        inflow = self._eta_c * harvest_power
        outflow = draw_power / self._eta_d

        if old <= EPSILON:
            # Pinned-at-zero regime: effective leak capped so the level
            # cannot go negative (the simulator stalls instead of drawing
            # an unsustainable load here).
            leak = self._effective_leak(inflow, outflow)
            proposed = old + (inflow - outflow - leak) * duration
            new, overflow = self._saturate(proposed)
            self._stored = new
            leaked = leak * duration
        elif draw_power > 0 or inflow - self._leak >= -EPSILON:
            # Level is monotone, or the caller split the segment at the
            # depletion instant (violations trip _saturate).
            proposed = old + (inflow - outflow - self._leak) * duration
            new, overflow = self._saturate(proposed)
            self._stored = new
            leaked = self._leak * duration
        else:
            # Idle segment whose leakage outpaces harvest: the level
            # decays linearly to zero, then sits pinned (residual leak
            # capped at the inflow; outflow is zero here).
            decay_rate = self._leak - inflow  # > 0 here
            t_empty = old / decay_rate
            # Exact split is safe: both branches agree at t_empty ==
            # duration (level 0.0, leak for the whole segment).
            if t_empty >= duration:
                self._stored = old - decay_rate * duration
                leaked = self._leak * duration
            else:
                residual = duration - t_empty
                self._stored = 0.0
                leaked = self._leak * t_empty + min(self._leak, inflow) * residual
            overflow = 0.0

        return SegmentResult(
            drawn=draw_power * duration,
            stored_delta=self._stored - old,
            overflow=overflow,
            leaked=leaked,
        )

    def __repr__(self) -> str:
        return (
            f"NonIdealStorage(capacity={self._capacity!r}, stored="
            f"{self._stored!r}, eta_c={self._eta_c!r}, eta_d={self._eta_d!r}, "
            f"leak={self._leak!r})"
        )
