"""Harvested-energy predictors.

The schedulers need the paper's ``ES(am, am + dm)`` — the energy that will
be harvested between a job's release and its deadline.  The true future is
unknowable online; section 5.1 states "we trace the PS(t) profile to
predict the harvested energy from a future period" (following Kansal et
al.).  This module provides that profile predictor plus simpler baselines
and an oracle for ablation:

* :class:`OraclePredictor` — reads the realized future from the source
  (an upper bound on what any predictor can achieve).
* :class:`ProfilePredictor` — per-bin EWMA over the source's (known or
  assumed) cycle, the "trace the profile" approach.
* :class:`MeanPowerPredictor` — a single EWMA of mean power.
* :class:`LastValuePredictor` — persistence forecast.

Predictors learn from :meth:`~HarvestPredictor.observe` calls the simulator
issues for every elapsed segment, so prediction quality improves as the run
progresses.
"""

from __future__ import annotations

import abc
import math
from typing import Iterable, Iterator

import numpy as np

from repro.energy.source import SOLAR_ENVELOPE_PERIOD, EnergySource
from repro.timeutils import EPSILON, validate_interval

__all__ = [
    "HarvestPredictor",
    "OraclePredictor",
    "ProfilePredictor",
    "MeanPowerPredictor",
    "LastValuePredictor",
    "profile_segments",
]


class HarvestPredictor(abc.ABC):
    """Interface for online predictors of future harvested energy.

    **Empty-window contract**: every predictor returns ``0.0`` when
    ``t1 - t0 <= EPSILON``.  The simulator already treats such windows
    as empty (:meth:`repro.sched.base.EnergyOutlook.available_until`
    never consults the predictor for them), so the gate is unreachable
    from the scheduling loop — it exists so direct callers see one
    uniform contract across all predictor kinds, scalar and vectorized
    (``tests/energy/test_predictor.py`` pins it).
    """

    @abc.abstractmethod
    def predict_energy(self, t0: float, t1: float) -> float:
        """Predicted harvest over ``[t0, t1]`` (must be ``>= 0``).

        Windows no longer than ``EPSILON`` predict ``0.0``.
        """

    def observe(self, t0: float, t1: float, energy: float) -> None:
        """Feed the realized harvest over an elapsed segment.

        The default implementation ignores observations (appropriate for
        the oracle).  ``energy`` is the exact integral of the realized
        power over ``[t0, t1]``.
        """

    def reset(self) -> None:
        """Discard learned state (no-op by default)."""


class OraclePredictor(HarvestPredictor):
    """Perfect prediction: reads the future directly from the source.

    Useful to separate scheduling quality from prediction quality in
    ablations, and for the deterministic motivational examples where the
    paper itself assumes the future harvest is known.
    """

    def __init__(self, source: EnergySource) -> None:
        self._source = source

    def predict_energy(self, t0: float, t1: float) -> float:
        validate_interval(t0, t1)
        if t1 - t0 <= EPSILON:
            return 0.0
        return self._source.energy(t0, t1)

    def __repr__(self) -> str:
        return f"OraclePredictor({self._source!r})"


class MeanPowerPredictor(HarvestPredictor):
    """Exponentially weighted running mean of observed power.

    ``alpha`` is the EWMA weight per observed *time unit* — observations of
    different lengths are folded in with a duration-correct decay
    ``(1 - alpha) ** duration``, so feeding one 10-unit segment equals
    feeding ten 1-unit segments with the same average power.
    """

    def __init__(self, initial_power: float = 0.0, alpha: float = 0.05) -> None:
        if initial_power < 0 or not math.isfinite(initial_power):
            raise ValueError(
                f"initial_power must be finite and >= 0, got {initial_power!r}"
            )
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        self._initial = float(initial_power)
        self._alpha = float(alpha)
        self._estimate = self._initial

    @property
    def estimate(self) -> float:
        """Current mean-power estimate."""
        return self._estimate

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def initial_power(self) -> float:
        return self._initial

    def predict_energy(self, t0: float, t1: float) -> float:
        validate_interval(t0, t1)
        if t1 - t0 <= EPSILON:
            return 0.0
        return self._estimate * (t1 - t0)

    def observe(self, t0: float, t1: float, energy: float) -> None:
        validate_interval(t0, t1)
        duration = t1 - t0
        if duration <= EPSILON:
            return
        mean_power = max(0.0, energy / duration)
        keep = (1.0 - self._alpha) ** duration
        self._estimate = keep * self._estimate + (1.0 - keep) * mean_power

    def reset(self) -> None:
        self._estimate = self._initial

    def __repr__(self) -> str:
        return (
            f"MeanPowerPredictor(initial_power={self._initial!r}, "
            f"alpha={self._alpha!r})"
        )


class LastValuePredictor(HarvestPredictor):
    """Persistence forecast: the most recent observed power continues."""

    def __init__(self, initial_power: float = 0.0) -> None:
        if initial_power < 0 or not math.isfinite(initial_power):
            raise ValueError(
                f"initial_power must be finite and >= 0, got {initial_power!r}"
            )
        self._initial = float(initial_power)
        self._last = self._initial

    @property
    def estimate(self) -> float:
        """Most recent observed mean power."""
        return self._last

    @property
    def initial_power(self) -> float:
        return self._initial

    def predict_energy(self, t0: float, t1: float) -> float:
        validate_interval(t0, t1)
        if t1 - t0 <= EPSILON:
            return 0.0
        return self._last * (t1 - t0)

    def observe(self, t0: float, t1: float, energy: float) -> None:
        validate_interval(t0, t1)
        duration = t1 - t0
        if duration <= EPSILON:
            return
        self._last = max(0.0, energy / duration)

    def reset(self) -> None:
        self._last = self._initial

    def __repr__(self) -> str:
        return f"LastValuePredictor(initial_power={self._initial!r})"


def _snap_tail(covered: float, span: float) -> float:
    """Final segment duration ``d`` such that ``covered + d == span``.

    ``span - covered`` rounds, so the telescoped left-to-right sum of
    segment durations can land one ulp off the window length.  Nudging
    ``d`` by ulps restores exact coverage; the loop is bounded because a
    single rounding error is at most a few ulps (Sterbenz's lemma makes
    the plain subtraction already exact whenever ``covered >= span / 2``,
    i.e. for every window at least two bins wide).
    """
    d = span - covered
    for _ in range(8):
        total = covered + d
        if total == span:
            break
        d = math.nextafter(d, math.inf if total < span else -math.inf)
    return d


def profile_segments(
    t0: float,
    t1: float,
    period: float,
    bin_width: float,
    n_bins: int,
) -> Iterator[tuple[int, float]]:
    """Yield ``(bin_index, duration)`` covering ``[t0, t1]`` exactly.

    The cyclic bin walk shared by :meth:`ProfilePredictor._segments` and
    the batch engine's per-lane predictor kernels
    (:mod:`repro.energy.vectorized`) — one implementation, so the two
    engines cannot drift by even an ulp.  Where the window ends in its
    first bin (the first edge reaches the span) the walk yields the one
    segment ``(first, t1 - t0)``; :meth:`ProfilePredictor.observe` applies
    that closed form without walking.

    Bin edges come from one global ladder of offsets from ``t0``
    (``(first + j + 1) * bin_width - position``), so each duration is a
    difference of successive ladder values and the left-to-right float
    sum of durations telescopes.  The final duration is snapped
    (:func:`_snap_tail`) so that sum equals ``t1 - t0`` bit-exactly — no
    over-coverage, and no sliver ever lands in the wrong bin.  The
    ladder strictly grows one bin width per step, so the walk cannot
    stagnate and needs no epsilon guard.
    """
    span = t1 - t0
    if span <= EPSILON:
        return
    position = t0 % period
    first = min(int(position / bin_width), n_bins - 1)
    covered = 0.0
    j = 0
    while True:
        edge = (first + j + 1) * bin_width - position
        index = (first + j) % n_bins
        if edge >= span:
            tail = _snap_tail(covered, span)
            if tail > 0.0:
                yield index, tail
            return
        if edge > covered:
            d = edge - covered
            yield index, d
            covered += d
        j += 1


class ProfilePredictor(HarvestPredictor):
    """Cyclic-profile EWMA predictor ("trace the PS(t) profile").

    The source is assumed (approximately) cyclostationary with period
    ``period`` — true for the paper's eq. (13) source, whose deterministic
    envelope repeats every ``70 pi^2 ~ 690.9`` time units.  The period is
    split into ``n_bins`` equal bins, each holding an EWMA estimate of the
    mean power seen at that cycle position.  Prediction integrates the bin
    estimates across the query window exactly (partial bins pro-rated).

    Bins that have never been observed fall back to ``initial_power``.

    The bin estimates and seen flags are Python lists, so each bin read
    and update in the step loop is plain float arithmetic rather than a
    numpy scalar operation; :meth:`bin_estimates` and :meth:`bin_seen`
    return numpy copies.
    """

    def __init__(
        self,
        period: float = SOLAR_ENVELOPE_PERIOD,
        n_bins: int = 64,
        alpha: float = 0.3,
        initial_power: float = 0.0,
    ) -> None:
        if period <= 0 or not math.isfinite(period):
            raise ValueError(f"period must be finite and > 0, got {period!r}")
        if n_bins < 1:
            raise ValueError(f"n_bins must be >= 1, got {n_bins!r}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        if initial_power < 0 or not math.isfinite(initial_power):
            raise ValueError(
                f"initial_power must be finite and >= 0, got {initial_power!r}"
            )
        self._period = float(period)
        self._n_bins = int(n_bins)
        self._alpha = float(alpha)
        self._initial = float(initial_power)
        self._bin_width = self._period / self._n_bins
        self._estimates = [self._initial] * self._n_bins
        self._seen = [False] * self._n_bins

    @property
    def period(self) -> float:
        return self._period

    @property
    def n_bins(self) -> int:
        return self._n_bins

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def initial_power(self) -> float:
        return self._initial

    @property
    def bin_width(self) -> float:
        return self._bin_width

    def bin_estimates(self) -> np.ndarray:
        """Copy of the per-bin mean-power estimates (for inspection)."""
        return np.array(self._estimates, dtype=float)

    def bin_seen(self) -> np.ndarray:
        """Copy of the per-bin observed flags (for inspection)."""
        return np.array(self._seen, dtype=bool)

    def _segments(self, t0: float, t1: float) -> Iterator[tuple[int, float]]:
        """Yield ``(bin_index, duration)`` covering ``[t0, t1]`` exactly.

        Delegates to the shared :func:`profile_segments` walk (also used
        by the batch engine's kernels).
        """
        return profile_segments(
            t0, t1, self._period, self._bin_width, self._n_bins
        )

    def predict_energy(self, t0: float, t1: float) -> float:
        validate_interval(t0, t1)
        if t1 - t0 <= EPSILON:
            return 0.0
        # Plain left-to-right adds, as the batch kernel's cumsum (and as
        # timeutils.ordered_sum, inlined here because it is the hot loop).
        estimates = self._estimates
        total = 0.0
        for index, d in self._segments(t0, t1):
            total += estimates[index] * d
        return total

    def observe(self, t0: float, t1: float, energy: float) -> None:
        validate_interval(t0, t1)
        duration = t1 - t0
        if duration <= EPSILON:
            return
        mean_power = max(0.0, energy / duration)
        # The walk's start (profile_segments): where the first edge
        # reaches the span, the walk yields just (first, duration).
        position = t0 % self._period
        first = min(int(position / self._bin_width), self._n_bins - 1)
        if (first + 1) * self._bin_width - position >= duration:
            segments: Iterable[tuple[int, float]] = ((first, duration),)
        else:
            segments = self._segments(t0, t1)
        estimates, seen = self._estimates, self._seen
        for index, d in segments:
            # Duration-correct EWMA: a bin fully covered for one bin-width
            # moves by weight alpha; shorter coverage moves proportionally
            # less.
            keep = (1.0 - self._alpha) ** (d / self._bin_width)
            if not seen[index]:
                estimates[index] = mean_power
                seen[index] = True
            else:
                estimates[index] = (
                    keep * estimates[index] + (1.0 - keep) * mean_power
                )

    def reset(self) -> None:
        self._estimates = [self._initial] * self._n_bins
        self._seen = [False] * self._n_bins

    def __repr__(self) -> str:
        return (
            f"ProfilePredictor(period={self._period!r}, n_bins={self._n_bins}, "
            f"alpha={self._alpha!r})"
        )
