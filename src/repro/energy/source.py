"""Ambient energy source models.

All sources expose *piecewise-constant* output power: within each quantum
(default one time unit) the power is constant, so every energy integral the
simulator needs is exact and every storage-depletion time is the root of a
linear function.  This mirrors the discrete-event structure of the paper's
C/C++ simulator, where the stochastic source of eq. (13) is redrawn once
per time unit.

The paper's source (section 5.1, eq. (13)) is::

    PS(t) = 10 * N(t) * cos(t / 70pi) * cos(t / 70pi)

with ``N(t) ~ Normal(0, 1)``.  Taken literally this is negative half the
time, while the paper's Figure 5 shows a non-negative signal peaking around
20.  :class:`SolarStochasticSource` therefore rectifies the Gaussian factor;
``rectify="abs"`` (default, mean power ~3.99) matches the dense 0..20 band
of Figure 5, and ``rectify="clamp"`` (mean ~2.0) is available for ablation.
"""

from __future__ import annotations

import abc
import math
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.timeutils import EPSILON, INFINITY, ordered_sum, validate_interval

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy.typing as npt

    FloatArray = npt.NDArray[np.float64]
    IntArray = npt.NDArray[np.int64]
    BoolArray = npt.NDArray[np.bool_]

__all__ = [
    "EnergySource",
    "ConstantSource",
    "SolarStochasticSource",
    "DayNightSource",
    "MarkovWeatherSource",
    "TraceSource",
    "ScaledSource",
    "CompositeSource",
    "SOLAR_ENVELOPE_PERIOD",
    "piece_reader",
    "quantum_walk",
]

#: Period of the deterministic envelope ``cos^2(t / 70pi)`` in eq. (13):
#: the squared cosine has period ``pi * 70pi = 70 pi^2``.
SOLAR_ENVELOPE_PERIOD: float = 70.0 * math.pi * math.pi

#: Quanta of normal draws a :class:`SolarStochasticSource` takes at once.
_DRAW_CHUNK = 256

#: Shortest window, in quanta, that :meth:`_QuantizedSource.energy` walks
#: with :func:`quantum_walk`: its numpy calls cost about as much as 40
#: steps of the loop, so shorter windows take the loop.
_WALK_MIN_QUANTA = 48


class EnergySource(abc.ABC):
    """Abstract piecewise-constant ambient energy source.

    Subclasses implement :meth:`power` (instantaneous net output power
    after conversion losses, i.e. the paper's ``PS(t)``) and
    :meth:`next_boundary` (the next instant at which the power may change).
    :meth:`energy` integrates the power exactly by walking boundaries.
    """

    @abc.abstractmethod
    def power(self, t: float) -> float:
        """Net harvested power at time ``t >= 0``."""

    @abc.abstractmethod
    def next_boundary(self, t: float) -> float:
        """The smallest boundary strictly greater than ``t``.

        Between consecutive boundaries the power is constant.  Sources with
        truly constant output return ``+inf``.
        """

    def mean_power(self) -> float:
        """Long-run average output power.

        Used by the workload generator (the paper's ``P̄s``).  The default
        estimates it by integrating over a long horizon; subclasses with a
        closed form override this.
        """
        horizon = 10_000.0
        return self.energy(0.0, horizon) / horizon

    def energy(self, t0: float, t1: float) -> float:
        """Exact harvested energy ``ES(t0, t1)`` (eq. (2)).

        Walks quantum boundaries so the piecewise-constant integral is
        exact.  ``t1`` may be ``+inf`` only for sources that are eventually
        zero, which none of the built-ins are, so a finite ``t1`` is
        required.
        """
        validate_interval(t0, t1)
        if not math.isfinite(t1):
            raise ValueError("energy() requires a finite end time")
        if t1 - t0 <= EPSILON:
            return 0.0
        total = 0.0
        t = t0
        while t < t1 - EPSILON:
            power, boundary = self._piece(t)
            if boundary <= t:  # defensive: a boundary must advance time
                raise RuntimeError(
                    f"{type(self).__name__}.next_boundary({t!r}) = {boundary!r} "
                    "does not advance time"
                )
            segment_end = min(boundary, t1)
            total += power * (segment_end - t)
            t = segment_end
        return total

    def _piece(self, t: float) -> tuple[float, float]:
        """``(power(t), next_boundary(t))``: the constant piece at ``t``."""
        boundary = self.next_boundary(t)
        return self.power(t), boundary

    def sample(self, t0: float, t1: float, step: float = 1.0) -> np.ndarray:
        """Power sampled on a regular grid — convenience for plotting."""
        validate_interval(t0, t1)
        if step <= 0:
            raise ValueError(f"step must be positive, got {step!r}")
        grid = np.arange(t0, t1, step)
        return np.asarray([self.power(float(t)) for t in grid], dtype=float)


def piece_reader(source: EnergySource) -> Callable[[float], tuple[float, float]]:
    """``t -> (source.power(t), source.next_boundary(t))`` in one call.

    That is the source's own ``_piece``, which for a quantized source
    computes one quantum index for both.  Where ``power`` or
    ``next_boundary`` is overridden below the class that defines
    ``_piece``, or on the instance itself, the override is what must be
    read, so the reader makes the two reads in turn.
    """
    cls = type(source)
    if cls._piece is not EnergySource._piece:
        owner = next(c for c in cls.__mro__ if "_piece" in vars(c))
        for name in ("power", "next_boundary"):
            if name in vars(source) or getattr(cls, name) is not getattr(
                owner, name
            ):
                return partial(EnergySource._piece, source)
    return source._piece


def quantum_walk(
    read: Callable[["IntArray"], "FloatArray"],
    quantum: "FloatArray",
    first: Optional["IntArray"],
    t0: "FloatArray",
    t1: "FloatArray",
) -> tuple["FloatArray", "BoolArray"]:
    """:meth:`EnergySource.energy` of quantized windows, one per row.

    On a quantized source the energy loop's step ``j`` starts at ``t0``
    (``j = 0``) or at the boundary ``(first + j) * quantum`` the step
    before ended on, and reads quantum ``first + j``; ``first`` defaults
    to the quantum :meth:`_QuantizedSource._index` gives ``t0``.  Every
    row's steps are laid out as one 2-D block, ``read(kk)`` returns the
    power of each quantum index in ``kk``, and the segment energies are
    added by a row-wise ``np.cumsum``: strictly left to right, so each
    row rounds once per segment in walk order, exactly like the loop's
    ``total +=`` (``np.sum`` adds pairwise and would not).

    Each live step's quantum index is recomputed as the loop computes it
    and checked against ``first + j``, with the loop's "boundary must
    advance time" test.  Returns ``(total, on_ladder)``; where
    ``on_ladder`` is False a check failed and ``total`` is not the
    loop's, so the caller must take the loop instead.
    """
    m = t0.shape[0]
    if first is None:
        first = np.maximum(0, np.floor((t0 + EPSILON) / quantum)).astype(np.int64)
    spans = np.ceil((t1 - EPSILON) / quantum).astype(np.int64) - first
    n_steps = int(spans.max()) + 1 if m else 0
    if n_steps <= 0:
        return np.zeros(m), np.ones(m, dtype=np.bool_)
    kk = first[:, None] + np.arange(n_steps, dtype=np.int64)
    kk_f = kk.astype(np.float64)
    q = quantum[:, None]
    tstart = kk_f * q
    tstart[:, 0] = t0
    boundary = (kk_f + 1.0) * q
    # The loop's guards: a window of at most EPSILON is empty, and a step
    # runs while t < t1 - EPSILON.
    live = (tstart < (t1 - EPSILON)[:, None]) & (t1 - t0 > EPSILON)[:, None]
    index = np.maximum(np.floor((tstart + EPSILON) / q), 0.0)
    off = live & ((index != kk_f) | (boundary <= tstart))
    on_ladder = ~(off.any(axis=1) | live[:, -1])
    seg_end = np.minimum(boundary, t1[:, None])
    # Dead steps add 0.0, which never perturbs a float64 accumulator.
    contribution = np.where(live, read(kk) * (seg_end - tstart), 0.0)
    total: FloatArray = np.cumsum(contribution, axis=1)[:, -1]
    return total, on_ladder


def _check_time(t: float) -> None:
    if t < -EPSILON or math.isnan(t):
        raise ValueError(f"source time must be >= 0, got {t!r}")


class ConstantSource(EnergySource):
    """Source with constant output power (e.g. the motivational example)."""

    def __init__(self, power: float) -> None:
        if power < 0 or not math.isfinite(power):
            raise ValueError(f"constant power must be finite and >= 0, got {power!r}")
        self._power = float(power)

    def power(self, t: float) -> float:
        _check_time(t)
        return self._power

    def next_boundary(self, t: float) -> float:
        _check_time(t)
        return INFINITY

    def mean_power(self) -> float:
        return self._power

    def energy(self, t0: float, t1: float) -> float:
        validate_interval(t0, t1)
        if not math.isfinite(t1):
            raise ValueError("energy() requires a finite end time")
        return self._power * max(0.0, t1 - t0)

    def __repr__(self) -> str:
        return f"ConstantSource(power={self._power!r})"


class _QuantizedSource(EnergySource):
    """Base for sources that are constant on a regular quantum grid.

    Subclasses implement :meth:`_quantum_power`, the power during one
    quantum; :meth:`power` and the :meth:`energy` walk look quanta up by
    index.
    """

    def __init__(self, quantum: float) -> None:
        if quantum <= 0 or not math.isfinite(quantum):
            raise ValueError(f"quantum must be finite and > 0, got {quantum!r}")
        self._quantum = float(quantum)

    @property
    def quantum(self) -> float:
        """Length of the piecewise-constant interval."""
        return self._quantum

    def _index(self, t: float) -> int:
        _check_time(t)
        # Nudge by EPSILON so that a query *at* a boundary (possibly with
        # float noise just below it) lands in the quantum that starts there.
        index = math.floor((t + EPSILON) / self._quantum)
        return index if index > 0 else 0

    def next_boundary(self, t: float) -> float:
        return (self._index(t) + 1) * self._quantum

    @abc.abstractmethod
    def _quantum_power(self, index: int) -> float:
        """Power during quantum ``index``."""

    def power(self, t: float) -> float:
        return self._quantum_power(self._index(t))

    def _piece(self, t: float) -> tuple[float, float]:
        # One index serves the quantum's power and its end.
        index = self._index(t)
        return self._quantum_power(index), (index + 1) * self._quantum

    def _quantum_powers(self, start: int, stop: int) -> Sequence[float]:
        """Powers of quanta ``start .. stop - 1``, read in index order."""
        return [self._quantum_power(k) for k in range(start, stop)]

    def _reads_own_quanta(self) -> bool:
        """Whether :func:`quantum_walk` reads what ``_piece`` would.

        True unless ``_piece`` or ``_index`` is overridden below this
        class, ``_quantum_powers`` is not the one matching
        ``_quantum_power``, or the instance carries an override of
        ``_piece`` or of the quanta it reads.
        """
        cls = type(self)
        if (
            cls._piece is not _QuantizedSource._piece
            or cls._index is not _QuantizedSource._index
            or not {"_piece", "_quantum_power", "_quantum_powers"}.isdisjoint(
                vars(self)
            )
        ):
            return False
        owners = [
            next(c for c in cls.__mro__ if name in vars(c))
            for name in ("_quantum_powers", "_quantum_power")
        ]
        return owners[0] is _QuantizedSource or owners[0] is owners[1]

    def energy(self, t0: float, t1: float) -> float:
        """Exact harvested energy ``ES(t0, t1)`` (eq. (2)).

        The boundary walk of :meth:`EnergySource.energy`, run as
        :func:`quantum_walk` (:meth:`_walk_energy`).  Windows shorter than
        ``_WALK_MIN_QUANTA`` quanta, sources that override ``_piece`` or
        what it reads, and walks that leave the quantum ladder take the
        loop itself; both give the same bits.
        """
        if not (
            t1 - t0 >= _WALK_MIN_QUANTA * self._quantum
            and self._reads_own_quanta()
        ):
            return super().energy(t0, t1)
        validate_interval(t0, t1)
        if not math.isfinite(t1):
            raise ValueError("energy() requires a finite end time")
        total = self._walk_energy(t0, t1)
        return super().energy(t0, t1) if total is None else total

    def _walk_energy(self, t0: float, t1: float) -> Optional[float]:
        """:func:`quantum_walk` over ``[t0, t1)``, or ``None`` off the ladder.

        The first quantum is looked up with ``_index``, as the loop does.
        """
        first = self._index(t0)

        def read(kk: IntArray) -> FloatArray:
            return np.asarray(
                [self._quantum_powers(first, first + kk.shape[1])],
                dtype=np.float64,
            )

        total, on_ladder = quantum_walk(
            read,
            np.asarray([self._quantum]),
            np.asarray([first], dtype=np.int64),
            np.asarray([t0], dtype=np.float64),
            np.asarray([t1], dtype=np.float64),
        )
        return float(total[0]) if on_ladder[0] else None


class SolarStochasticSource(_QuantizedSource):
    """The paper's stochastic solar model (section 5.1, eq. (13)).

    ``PS(t) = amplitude * rect(N_k) * cos^2(t_mid / 70pi)`` where ``N_k`` is
    a standard normal redrawn once per quantum ``k`` and ``t_mid`` is the
    quantum midpoint (the slowly varying envelope — period ~690.9 time
    units — is held constant across the one-unit quantum).

    Parameters
    ----------
    seed:
        Seed for the normal draws; runs with equal seeds are identical.
    amplitude:
        The ``10`` in eq. (13).
    rectify:
        ``"abs"`` uses ``|N_k|`` (default, mean power ``amplitude *
        sqrt(2/pi) / 2``); ``"clamp"`` uses ``max(N_k, 0)`` (mean
        ``amplitude / (2 sqrt(2 pi))``); ``"none"`` keeps the raw Gaussian
        (signal may be negative — only useful for studying the literal
        formula).
    envelope_period:
        Period of the squared-cosine envelope; defaults to the paper's
        ``70 pi^2``.
    quantum:
        Redraw interval of ``N_k`` (default one time unit).
    """

    _RECTIFIERS = ("abs", "clamp", "none")

    def __init__(
        self,
        seed: int = 0,
        amplitude: float = 10.0,
        rectify: str = "abs",
        envelope_period: float = SOLAR_ENVELOPE_PERIOD,
        quantum: float = 1.0,
    ) -> None:
        super().__init__(quantum)
        if amplitude < 0 or not math.isfinite(amplitude):
            raise ValueError(f"amplitude must be finite and >= 0, got {amplitude!r}")
        if rectify not in self._RECTIFIERS:
            raise ValueError(
                f"rectify must be one of {self._RECTIFIERS}, got {rectify!r}"
            )
        if envelope_period <= 0:
            raise ValueError(
                f"envelope_period must be > 0, got {envelope_period!r}"
            )
        self._seed = int(seed)
        self._amplitude = float(amplitude)
        self._rectify = rectify
        self._envelope_period = float(envelope_period)
        self._rng = np.random.default_rng(self._seed)
        # Per-quantum powers, computed once each and in index order (the
        # normal draws must be consumed in order): the simulator reads
        # each quantum at least twice, while running and in the result's
        # harvested-energy walk.
        self._powers: list[float] = []

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def rectify(self) -> str:
        return self._rectify

    @property
    def amplitude(self) -> float:
        return self._amplitude

    @property
    def envelope_period(self) -> float:
        return self._envelope_period

    def _envelope(self, t: float) -> float:
        # cos^2(t / (envelope_period / pi)); with the default period the
        # argument is t / 70pi exactly as in eq. (13).
        c = math.cos(math.pi * t / self._envelope_period)
        return c * c

    def _quantum_power(self, index: int) -> float:
        powers = self._powers
        while len(powers) <= index:
            # The next quanta's draws in one call: a generator's batched
            # draws equal its one-at-a-time draws.
            for n in self._rng.standard_normal(_DRAW_CHUNK).tolist():
                if self._rectify == "abs":
                    n = abs(n)
                elif self._rectify == "clamp":
                    n = max(n, 0.0)
                midpoint = (len(powers) + 0.5) * self.quantum
                powers.append(self._amplitude * n * self._envelope(midpoint))
        return powers[index]

    def _quantum_powers(self, start: int, stop: int) -> Sequence[float]:
        if stop > start:
            self._quantum_power(stop - 1)  # fills the table in index order
        return self._powers[start:stop]

    def mean_power(self) -> float:
        """Closed-form long-run mean (envelope averages to 1/2)."""
        if self._rectify == "abs":
            expected = math.sqrt(2.0 / math.pi)
        elif self._rectify == "clamp":
            expected = 1.0 / math.sqrt(2.0 * math.pi)
        else:
            expected = 0.0
        return self._amplitude * expected * 0.5

    def __repr__(self) -> str:
        return (
            f"SolarStochasticSource(seed={self._seed}, amplitude="
            f"{self._amplitude!r}, rectify={self._rectify!r})"
        )


class MarkovWeatherSource(_QuantizedSource):
    """Regime-switching solar source (clear / cloudy Markov weather).

    The eq. (13) model redraws its randomness every time unit, so
    droughts longer than the deterministic envelope trough cannot occur.
    Real deployments see multi-hour overcast stretches; this source
    models them with a two-state Markov chain sampled per quantum:

    * *clear*: output follows a deterministic day/night-style envelope
      scaled by ``clear_power``;
    * *cloudy*: the same envelope attenuated by ``cloudy_factor``.

    ``persistence`` is the per-quantum probability of staying in the
    current state, so expected regime length is ``1 / (1 - persistence)``
    quanta.  Used by the robustness ablation to check the EA-DVFS-vs-LSA
    ordering survives temporally correlated droughts.
    """

    def __init__(
        self,
        seed: int = 0,
        clear_power: float = 8.0,
        cloudy_factor: float = 0.1,
        persistence: float = 0.98,
        envelope_period: float = 200.0,
        quantum: float = 1.0,
    ) -> None:
        super().__init__(quantum)
        if clear_power < 0 or not math.isfinite(clear_power):
            raise ValueError(
                f"clear_power must be finite and >= 0, got {clear_power!r}"
            )
        if not 0.0 <= cloudy_factor <= 1.0:
            raise ValueError(
                f"cloudy_factor must lie in [0, 1], got {cloudy_factor!r}"
            )
        if not 0.0 <= persistence < 1.0:
            raise ValueError(
                f"persistence must lie in [0, 1), got {persistence!r}"
            )
        if envelope_period <= 0:
            raise ValueError(
                f"envelope_period must be > 0, got {envelope_period!r}"
            )
        self._seed = int(seed)
        self._clear_power = float(clear_power)
        self._cloudy_factor = float(cloudy_factor)
        self._persistence = float(persistence)
        self._envelope_period = float(envelope_period)
        self._rng = np.random.default_rng(self._seed)
        self._states: list[bool] = []  # True = clear; extended lazily

    @property
    def persistence(self) -> float:
        return self._persistence

    def expected_regime_length(self) -> float:
        """Mean sojourn time in either weather state (in time units)."""
        return self.quantum / (1.0 - self._persistence)

    def _state(self, index: int) -> bool:
        while len(self._states) <= index:
            if not self._states:
                self._states.append(bool(self._rng.random() < 0.5))
            else:
                stay = bool(self._rng.random() < self._persistence)
                self._states.append(
                    self._states[-1] if stay else not self._states[-1]
                )
        return self._states[index]

    def _envelope(self, t: float) -> float:
        c = math.cos(math.pi * t / self._envelope_period)
        return c * c

    def _quantum_power(self, index: int) -> float:
        midpoint = (index + 0.5) * self.quantum
        base = self._clear_power * self._envelope(midpoint)
        return base if self._state(index) else base * self._cloudy_factor

    def mean_power(self) -> float:
        """Stationary mean: equal time in both states, envelope mean 1/2."""
        return (
            self._clear_power
            * 0.5  # envelope
            * 0.5 * (1.0 + self._cloudy_factor)  # state mix
        )

    def __repr__(self) -> str:
        return (
            f"MarkovWeatherSource(seed={self._seed}, clear_power="
            f"{self._clear_power!r}, cloudy_factor={self._cloudy_factor!r}, "
            f"persistence={self._persistence!r})"
        )


class DayNightSource(EnergySource):
    """Two-mode day/night source (the coarse model of reference [5]).

    Alternates between ``day_power`` for ``day_length`` time units and
    ``night_power`` for ``night_length`` units, starting (at ``t=0``) at
    ``phase`` time units into the day.
    """

    def __init__(
        self,
        day_power: float,
        night_power: float = 0.0,
        day_length: float = 50.0,
        night_length: float = 50.0,
        phase: float = 0.0,
    ) -> None:
        for name, value in (
            ("day_power", day_power),
            ("night_power", night_power),
        ):
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name, value in (
            ("day_length", day_length),
            ("night_length", night_length),
        ):
            if value <= 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        self._day_power = float(day_power)
        self._night_power = float(night_power)
        self._day_length = float(day_length)
        self._night_length = float(night_length)
        self._cycle = self._day_length + self._night_length
        if not 0.0 <= phase < self._cycle:
            raise ValueError(
                f"phase must lie in [0, {self._cycle!r}), got {phase!r}"
            )
        self._phase = float(phase)

    @property
    def day_power(self) -> float:
        return self._day_power

    @property
    def night_power(self) -> float:
        return self._night_power

    @property
    def day_length(self) -> float:
        return self._day_length

    @property
    def night_length(self) -> float:
        return self._night_length

    @property
    def phase(self) -> float:
        return self._phase

    def _position(self, t: float) -> float:
        _check_time(t)
        return (t + self._phase + EPSILON) % self._cycle

    def power(self, t: float) -> float:
        return (
            self._day_power
            if self._position(t) < self._day_length
            else self._night_power
        )

    def next_boundary(self, t: float) -> float:
        pos = self._position(t)
        if pos < self._day_length:
            return t + (self._day_length - pos)
        return t + (self._cycle - pos)

    def mean_power(self) -> float:
        return (
            self._day_power * self._day_length
            + self._night_power * self._night_length
        ) / self._cycle

    def __repr__(self) -> str:
        return (
            f"DayNightSource(day_power={self._day_power!r}, "
            f"night_power={self._night_power!r}, "
            f"day_length={self._day_length!r}, "
            f"night_length={self._night_length!r})"
        )


class TraceSource(_QuantizedSource):
    """Source replaying a recorded per-quantum power trace.

    ``powers[k]`` is the constant output during quantum ``k``.  With
    ``cyclic=True`` the trace wraps around; otherwise queries past the end
    return 0 (the panel is "dead" after the recording).
    """

    def __init__(
        self,
        powers: Sequence[float],
        quantum: float = 1.0,
        cyclic: bool = False,
    ) -> None:
        super().__init__(quantum)
        values = np.asarray(powers, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("powers must be a non-empty 1-D sequence")
        if np.any(~np.isfinite(values)) or np.any(values < 0):
            raise ValueError("powers must be finite and >= 0")
        self._powers = values
        self._cyclic = bool(cyclic)

    def _quantum_power(self, index: int) -> float:
        if self._cyclic:
            index %= self._powers.size
        elif index >= self._powers.size:
            return 0.0
        return float(self._powers[index])

    def mean_power(self) -> float:
        return float(self._powers.mean())

    def __len__(self) -> int:
        return int(self._powers.size)

    def __repr__(self) -> str:
        return (
            f"TraceSource(n={self._powers.size}, quantum={self.quantum!r}, "
            f"cyclic={self._cyclic})"
        )


class ScaledSource(EnergySource):
    """Affine transform ``gain * P(t) + offset`` of another source.

    Handy for modeling conversion efficiency (``gain < 1``) or a trickle
    supplement (``offset > 0``).  The result is clamped at zero so a
    negative offset cannot produce negative harvest.
    """

    def __init__(
        self, inner: EnergySource, gain: float = 1.0, offset: float = 0.0
    ) -> None:
        if gain < 0 or not math.isfinite(gain):
            raise ValueError(f"gain must be finite and >= 0, got {gain!r}")
        if not math.isfinite(offset):
            raise ValueError(f"offset must be finite, got {offset!r}")
        self._inner = inner
        self._gain = float(gain)
        self._offset = float(offset)

    def power(self, t: float) -> float:
        return max(0.0, self._gain * self._inner.power(t) + self._offset)

    def next_boundary(self, t: float) -> float:
        return self._inner.next_boundary(t)

    def __repr__(self) -> str:
        return (
            f"ScaledSource({self._inner!r}, gain={self._gain!r}, "
            f"offset={self._offset!r})"
        )


class CompositeSource(EnergySource):
    """Sum of several sources (e.g. solar panel + vibration harvester)."""

    def __init__(self, sources: Sequence[EnergySource]) -> None:
        if not sources:
            raise ValueError("CompositeSource requires at least one source")
        self._sources = tuple(sources)

    def power(self, t: float) -> float:
        return ordered_sum(s.power(t) for s in self._sources)

    def next_boundary(self, t: float) -> float:
        return min(s.next_boundary(t) for s in self._sources)

    def mean_power(self) -> float:
        return ordered_sum(s.mean_power() for s in self._sources)

    def __repr__(self) -> str:
        return f"CompositeSource({list(self._sources)!r})"
