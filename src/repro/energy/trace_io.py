"""Loading and saving recorded harvest traces.

Real deployments (Heliomote/Prometheus-style nodes, the motivation of
the paper's introduction) log their panel output as timestamped power
samples.  This module turns such logs into simulator sources:

* :func:`load_power_csv` — read ``time,power`` rows (or a single power
  column) into arrays.  Field logs are messy, so the loader has two
  policies: ``strict=True`` (default) raises :class:`TraceFormatError`
  with the offending line number on the first malformed row;
  ``strict=False`` skips malformed/NaN/negative rows and reports the
  skip count through a :class:`TraceFormatWarning`;
* :func:`resample_to_quantum` — rebin irregular samples onto the uniform
  piecewise-constant grid the simulator needs, conserving energy
  (time-weighted averaging, not point sampling);
* :func:`source_from_csv` — the one-call path from file to
  :class:`~repro.energy.source.TraceSource`;
* :func:`save_power_csv` — write a source's sampled output back out
  (useful to snapshot a stochastic realization for exact replay).
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.energy.source import EnergySource, TraceSource
from repro.timeutils import EPSILON

__all__ = [
    "TraceFormatError",
    "TraceFormatWarning",
    "load_power_csv",
    "resample_to_quantum",
    "save_power_csv",
    "source_from_csv",
]

PathLike = Union[str, Path]


class TraceFormatError(ValueError):
    """A harvest trace file is malformed (strict mode).

    Subclasses :class:`ValueError` so pre-existing callers catching that
    keep working.  ``line`` is the 1-based line number of the offending
    row, or ``None`` for file-level problems (empty file, no samples).
    """

    def __init__(self, path: PathLike, line: Optional[int], message: str) -> None:
        location = f"{path}, line {line}" if line is not None else f"{path}"
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.line = line


class TraceFormatWarning(UserWarning):
    """Rows were skipped while loading a harvest trace leniently."""


class _RowError(Exception):
    """Internal: one data row failed validation (message only, no path)."""


def _parse_row(
    row: list[str], width: int, last_time: float
) -> tuple[float, float]:
    """Validate one data row; returns ``(time, power)`` (time nan if 1-col).

    Raises :class:`_RowError` on any problem; the caller attaches the
    line number and decides whether to abort (strict) or skip (lenient).
    """
    if len(row) != width:
        raise _RowError(f"expected {width} columns, found {len(row)}")
    try:
        values = [float(cell) for cell in row]
    except ValueError:
        raise _RowError(f"non-numeric value in row {row!r}") from None
    power = values[-1]
    if power < 0 or not math.isfinite(power):
        raise _RowError(f"powers must be finite and >= 0, got {power!r}")
    if width == 1:
        return math.nan, power
    time = values[0]
    if time < 0 or not math.isfinite(time):
        raise _RowError(f"times must be finite and >= 0, got {time!r}")
    if time <= last_time:
        raise _RowError(
            f"times must be strictly increasing, got {time!r} after {last_time!r}"
        )
    return time, power


def load_power_csv(
    path: PathLike, strict: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Read a harvest log CSV into ``(times, powers)`` arrays.

    Accepts two layouts (header optional, detected by non-numeric first
    row):

    * two columns ``time,power`` — timestamps must be strictly
      increasing and non-negative;
    * one column ``power`` — implied unit-spaced timestamps 0, 1, 2, ...

    With ``strict=True`` (default) any malformed row — wrong width,
    non-numeric, NaN/negative power, invalid timestamp — raises
    :class:`TraceFormatError` naming the line.  With ``strict=False``
    such rows are skipped (a non-monotonic timestamp drops that row, not
    the ones after it) and one :class:`TraceFormatWarning` summarizing
    the skips is emitted at the end.
    """
    rows: list[tuple[int, list[str]]] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for row in reader:
            if row and any(cell.strip() for cell in row):
                rows.append((reader.line_num, [cell.strip() for cell in row]))
    if not rows:
        raise TraceFormatError(path, None, "empty harvest trace")

    def _numeric(row: list[str]) -> bool:
        try:
            [float(cell) for cell in row]
            return True
        except ValueError:
            return False

    if not _numeric(rows[0][1]):
        rows = rows[1:]  # drop header
        if not rows:
            raise TraceFormatError(path, None, "only a header, no samples")

    # The first row that parses at all fixes the layout width; rows that
    # cannot even fix a width (3+ columns up front) are judged per policy.
    width = len(rows[0][1])
    if width not in (1, 2):
        raise TraceFormatError(
            path, rows[0][0], f"expected 1 or 2 columns, found {width}"
        )

    times: list[float] = []
    powers: list[float] = []
    skipped: list[tuple[int, str]] = []
    last_time = -math.inf
    for line, row in rows:
        try:
            time, power = _parse_row(row, width, last_time)
        except _RowError as exc:
            if strict:
                raise TraceFormatError(path, line, str(exc)) from None
            skipped.append((line, str(exc)))
            continue
        times.append(time)
        powers.append(power)
        if width == 2:
            last_time = time
    if not powers:
        raise TraceFormatError(path, None, "no valid samples in harvest trace")
    if skipped:
        preview = "; ".join(f"line {ln}: {msg}" for ln, msg in skipped[:5])
        if len(skipped) > 5:
            preview += "; ..."
        warnings.warn(
            TraceFormatWarning(
                f"{path}: skipped {len(skipped)} malformed row(s) ({preview})"
            ),
            stacklevel=2,
        )

    power_array = np.asarray(powers, dtype=float)
    if width == 1:
        time_array = np.arange(len(powers), dtype=float)
    else:
        time_array = np.asarray(times, dtype=float)
    return time_array, power_array


def resample_to_quantum(
    times: np.ndarray,
    powers: np.ndarray,
    quantum: float = 1.0,
    end_time: float | None = None,
) -> np.ndarray:
    """Rebin sample-and-hold power onto a uniform quantum grid.

    The input is interpreted as sample-and-hold: ``powers[i]`` applies
    from ``times[i]`` until the next timestamp (the final sample holds
    until ``end_time``, default one median interval past the last
    timestamp).  Each output bin receives the *time-weighted average*
    power over its span, so total energy is conserved exactly — naive
    point-sampling would alias spiky harvest logs.
    """
    if quantum <= 0:
        raise ValueError(f"quantum must be > 0, got {quantum!r}")
    times = np.asarray(times, dtype=float)
    powers = np.asarray(powers, dtype=float)
    if times.ndim != 1 or times.shape != powers.shape or times.size == 0:
        raise ValueError("times and powers must be equal-length 1-D arrays")
    if end_time is None:
        tail = float(np.median(np.diff(times))) if times.size > 1 else quantum
        end_time = float(times[-1]) + tail
    if end_time <= times[-1]:
        raise ValueError(
            f"end_time {end_time!r} must exceed the last timestamp "
            f"{times[-1]!r}"
        )

    edges = np.append(times, end_time)
    n_bins = int(np.ceil((end_time - EPSILON) / quantum))
    binned = np.zeros(n_bins, dtype=float)
    for start, stop, power in zip(edges[:-1], edges[1:], powers):
        first = int(start / quantum)
        last = min(n_bins - 1, int((stop - EPSILON) / quantum))
        for b in range(first, last + 1):
            lo = max(start, b * quantum)
            hi = min(stop, (b + 1) * quantum)
            if hi > lo:
                binned[b] += power * (hi - lo)
    return binned / quantum


def source_from_csv(
    path: PathLike,
    quantum: float = 1.0,
    cyclic: bool = False,
    strict: bool = True,
) -> TraceSource:
    """Build a :class:`TraceSource` straight from a harvest log CSV.

    ``strict`` is passed through to :func:`load_power_csv`.
    """
    times, powers = load_power_csv(path, strict=strict)
    return TraceSource(
        resample_to_quantum(times, powers, quantum=quantum),
        quantum=quantum,
        cyclic=cyclic,
    )


def save_power_csv(
    source: EnergySource,
    path: PathLike,
    horizon: float,
    step: float = 1.0,
) -> int:
    """Sample a source onto a grid and write ``time,power`` rows.

    Returns the number of samples written.  Round-tripping a
    piecewise-constant source through :func:`source_from_csv` with the
    same quantum reproduces it exactly over the horizon.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon!r}")
    # Imported here: repro.serialization pulls in the simulator, which
    # circles back into repro.energy during package initialization.
    from repro.serialization import atomic_write_text

    powers = source.sample(0.0, horizon, step=step)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time", "power"])
    for i, power in enumerate(powers):
        writer.writerow([repr(i * step), repr(float(power))])
    atomic_write_text(path, buffer.getvalue(), newline="")
    return int(powers.size)
