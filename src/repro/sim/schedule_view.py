"""Schedule reconstruction and Gantt rendering from traces.

A simulation traced with the job/frequency kinds can be turned back into
the schedule it executed:

* :func:`schedule_intervals` — the list of ``(job, start, end, speed)``
  execution intervals implied by the trace;
* :func:`render_gantt` — an ASCII Gantt chart (one row per job, block
  characters keyed by speed) for quick visual inspection of small
  scenarios like the paper's Figures 1 and 3.

The trace must include ``JOB_START``, ``JOB_COMPLETE`` and — for
faithful speed/preemption rendering — ``JOB_PREEMPT``, ``JOB_MISS``,
``FREQ_CHANGE`` and ``STALL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.sim.tracing import Trace, TraceKind
from repro.timeutils import EPSILON

__all__ = ["ExecutionInterval", "schedule_intervals", "render_gantt"]


@dataclass(frozen=True)
class ExecutionInterval:
    """One maximal stretch of a job executing at a constant speed."""

    job: str
    start: float
    end: float
    speed: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def schedule_intervals(
    trace: Trace, end_time: Optional[float] = None
) -> list[ExecutionInterval]:
    """Reconstruct execution intervals from a traced run.

    ``end_time`` closes an interval left open at the end of the trace
    (a job still running when the simulation horizon was reached).
    """
    intervals: list[ExecutionInterval] = []
    current_job: Optional[str] = None
    current_speed = 0.0
    since = 0.0

    def close(at: float) -> None:
        nonlocal current_job
        if current_job is not None and at > since + EPSILON:
            intervals.append(
                ExecutionInterval(
                    job=current_job, start=since, end=at, speed=current_speed
                )
            )
        current_job = None

    for record in trace:
        kind = record.kind
        if kind == TraceKind.JOB_START:
            close(record.time)
            current_job = record["job"]
            current_speed = float(record.get("speed", 1.0))
            since = record.time
        elif kind == TraceKind.FREQ_CHANGE:
            if current_job is not None:
                job = current_job
                close(record.time)
                current_job = job
                current_speed = float(record["speed"])
                since = record.time
        elif kind in (TraceKind.JOB_COMPLETE, TraceKind.JOB_PREEMPT,
                      TraceKind.STALL):
            if current_job is not None and record.get("job") == current_job:
                close(record.time)
        elif kind == TraceKind.JOB_MISS:
            if current_job is not None and record.get("job") == current_job:
                close(record.time)

    if end_time is not None:
        close(end_time)
    return intervals


def _speed_glyph(speed: float) -> str:
    """One character encoding a relative speed (1..9, # for full)."""
    if speed >= 1.0 - EPSILON:
        return "#"
    digit = max(1, min(9, int(round(speed * 10))))
    return str(digit)


def render_gantt(
    trace: Trace,
    t0: float = 0.0,
    t1: Optional[float] = None,
    width: int = 72,
    jobs: Optional[Sequence[str]] = None,
    max_rows: int = 40,
) -> str:
    """ASCII Gantt chart of the traced schedule over ``[t0, t1]``.

    One row per job that executes inside the window (first-execution
    order unless ``jobs`` pins the selection); ``#`` marks full-speed
    execution, digits ``1``-``9`` mark reduced speeds (tenths), ``.``
    marks non-execution.  At most ``max_rows`` rows are rendered; the
    remainder is summarized in a trailing note.
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width!r}")
    if max_rows < 1:
        raise ValueError(f"max_rows must be >= 1, got {max_rows!r}")
    intervals = schedule_intervals(trace, end_time=t1)
    if not intervals:
        return "(no execution recorded)"
    if t1 is None:
        t1 = max(interval.end for interval in intervals)
    if t1 <= t0:
        raise ValueError(f"empty window [{t0!r}, {t1!r}]")

    hidden = 0
    if jobs is None:
        seen: dict[str, None] = {}
        for interval in intervals:
            if interval.end > t0 and interval.start < t1:
                seen.setdefault(interval.job, None)
        if not seen:
            return "(no execution inside the window)"
        all_jobs = list(seen)
        hidden = max(0, len(all_jobs) - max_rows)
        jobs = all_jobs[:max_rows]

    span = t1 - t0
    name_width = max(len(name) for name in jobs)
    lines = []
    for name in jobs:
        row = ["."] * width
        for interval in intervals:
            if interval.job != name:
                continue
            lo = max(interval.start, t0)
            hi = min(interval.end, t1)
            if hi <= lo:
                continue
            c0 = int((lo - t0) / span * width)
            c1 = max(c0 + 1, int(round((hi - t0) / span * width)))
            glyph = _speed_glyph(interval.speed)
            for c in range(c0, min(c1, width)):
                row[c] = glyph
        lines.append(f"{name:>{name_width}} |{''.join(row)}|")
    axis = f"{'':>{name_width}}  {t0:<8g}{'':^{max(0, width - 16)}}{t1:>8g}"
    lines.append(axis)
    lines.append(
        f"{'':>{name_width}}  # = full speed, digits = speed in tenths"
    )
    if hidden:
        lines.append(f"{'':>{name_width}}  (+{hidden} more jobs not shown)")
    return "\n".join(lines)
