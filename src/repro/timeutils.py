"""Numeric helpers for simulated-time arithmetic.

The simulator advances time with floating-point arithmetic.  Event times are
frequently derived from one another (e.g. a completion time computed from a
remaining-work division), so naive ``==`` / ``<`` comparisons of such
derived instants are brittle.  The helpers below compare with a single
absolute tolerance :data:`EPSILON`.  They are a convention, not a gate:
many comparisons are exact by design (the scalar and batch engines agree
bit for bit, and their results are pinned exactly), and nothing forces a
comparison through the helpers.

All simulated quantities (time, energy, work) are plain ``float`` in
consistent abstract units; the tolerance is absolute because experiment
horizons are ~1e4 time units and energies ~1e4 energy units, far below the
range where float64 absolute error approaches 1e-9.
"""

from __future__ import annotations

import math
from typing import Iterable

#: Absolute tolerance used for all simulated-time and energy comparisons.
EPSILON: float = 1e-9

#: Sentinel for "never" / unbounded horizons.  ``math.inf`` is used directly
#: so that ordinary arithmetic and comparisons keep working.
INFINITY: float = math.inf


def time_cmp(a: float, b: float, eps: float = EPSILON) -> int:
    """Three-way tolerant comparison: ``-1`` / ``0`` / ``+1``.

    All five predicates below derive from this single function so the
    tolerance is applied to one rounding of ``a - b``.  Expressions like
    ``a > b + eps`` round ``b + eps`` and ``a - b`` differently, which
    lets two predicates hold at once near the tolerance boundary (e.g.
    ``b = -eps``, ``a`` denormal: ``b + eps`` is exactly ``0.0`` while
    ``a - b`` is exactly ``eps``) — breaking trichotomy.
    """
    if a == b:  # covers +inf == +inf, exact hits
        return 0
    diff = a - b
    if abs(diff) <= eps:
        return 0
    return -1 if diff < 0.0 else 1


def time_eq(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when two instants coincide within tolerance."""
    return time_cmp(a, b, eps) == 0


def time_lt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a`` is strictly before ``b`` (beyond tolerance)."""
    return time_cmp(a, b, eps) < 0


def time_le(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a`` is before or at ``b`` within tolerance."""
    return time_cmp(a, b, eps) <= 0


def time_gt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a`` is strictly after ``b`` (beyond tolerance)."""
    return time_cmp(a, b, eps) > 0


def time_ge(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return ``True`` when ``a`` is at or after ``b`` within tolerance."""
    return time_cmp(a, b, eps) >= 0


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``.

    Raises :class:`ValueError` when the interval is empty (``low > high``).
    """
    if low > high:
        raise ValueError(f"empty clamp interval: [{low}, {high}]")
    return max(low, min(high, value))


def snap_nonnegative(value: float, eps: float = EPSILON) -> float:
    """Round tiny negative float noise up to exactly ``0.0``.

    Values below ``-eps`` are genuine negatives and raise
    :class:`ValueError`; they indicate an accounting bug, not float noise.
    """
    if value >= 0.0:
        return value
    if value >= -eps:
        return 0.0
    raise ValueError(f"value {value!r} is negative beyond tolerance {eps!r}")


def ordered_sum(values: Iterable[float]) -> float:
    """Sum floats with plain left-to-right adds, on every Python.

    Builtin ``sum()`` of Python floats is compensated (Neumaier) from
    Python 3.12 on, so its last bit depends on the interpreter.  Every
    float sum whose value reaches a result, a payload or a printed figure
    goes through here; its bits are those of ``sum()`` before 3.12.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def is_finite(value: float) -> bool:
    """Return ``True`` for ordinary finite floats (not inf / nan)."""
    return math.isfinite(value)


def validate_interval(t0: float, t1: float) -> None:
    """Raise :class:`ValueError` unless ``[t0, t1]`` is a valid interval.

    ``t1`` may equal ``t0`` (empty interval) and may be ``+inf``; ``t0``
    must be finite.
    """
    if not math.isfinite(t0):
        raise ValueError(f"interval start must be finite, got {t0!r}")
    if math.isnan(t1):
        raise ValueError("interval end is NaN")
    if t1 < t0:
        raise ValueError(f"interval end {t1!r} precedes start {t0!r}")
