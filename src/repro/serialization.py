"""Persistence of simulation results and traces.

Long sweeps are expensive; this module lets the harness (and downstream
users) persist what a run produced without pickling live objects:

* :func:`result_to_dict` / :func:`save_result_json` — a JSON-safe
  summary of a :class:`~repro.sim.simulator.SimulationResult` (metrics
  and per-job records; the trace is exported separately);
* :func:`trace_to_csv` / :func:`load_trace_csv` — flat CSV round-trip of
  a :class:`~repro.sim.tracing.Trace`;
* :func:`jobs_to_csv` — per-job table (release, deadline, completion,
  energy) for external analysis;
* :func:`canonical_value` / :func:`canonical_json` — byte-stable
  canonical JSON (sorted keys, normalized floats) used by the
  golden-trace regression store and the determinism tests in
  :mod:`repro.verify`;
* :func:`atomic_write_text` — crash-safe write-replace used wherever a
  reader must never observe a half-written file (golden fixtures,
  exported sweep results).

Everything is plain ``json``/``csv`` from the standard library — no
extra dependencies, stable on-disk formats.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path
from typing import Any, Union

from repro.sim.simulator import SimulationResult
from repro.sim.tracing import Trace
from repro.tasks.job import Job

__all__ = [
    "atomic_write_text",
    "canonical_json",
    "canonical_value",
    "jobs_to_csv",
    "load_trace_csv",
    "result_to_dict",
    "save_result_json",
    "trace_to_csv",
]

PathLike = Union[str, Path]


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8",
                      newline: str | None = None) -> None:
    """Write ``text`` to ``path`` so readers see the old or the new file.

    The payload goes to a sibling temporary file first (same directory,
    so the final ``os.replace`` stays within one filesystem), is flushed
    and fsync'd, and only then renamed over the destination.  A crash at
    any point leaves either the previous content or the complete new
    content — never a torn file.  The temporary is cleaned up on error.

    ``newline`` forwards to :func:`open`; CSV writers pass ``""`` so the
    ``\\r\\n`` line endings :mod:`csv` emits survive untranslated, same
    as a direct ``open(path, "w", newline="")``.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding=encoding, newline=newline) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars and non-finite floats into JSON-safe values."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _json_safe(value.item())
    return value


def canonical_value(value: Any, float_digits: int = 10) -> Any:
    """Recursively normalize a payload for byte-stable serialization.

    Floats are rounded to ``float_digits`` significant digits (enough to
    distinguish genuine numeric regressions, short enough to absorb
    last-bit noise across library versions), non-finite floats follow the
    :func:`_json_safe` convention, numpy scalars are unwrapped, tuples
    become lists, and mapping keys are coerced to sorted strings.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return _json_safe(value)
        if value == 0.0:
            return 0.0  # normalize -0.0
        return float(f"{value:.{float_digits}g}")
    if isinstance(value, int):
        return value
    if hasattr(value, "tolist"):  # numpy array or scalar
        return canonical_value(value.tolist(), float_digits)
    if hasattr(value, "item"):  # other zero-dim numpy-likes
        return canonical_value(value.item(), float_digits)
    if isinstance(value, dict):
        return {
            str(key): canonical_value(value[key], float_digits)
            for key in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item, float_digits) for item in value]
    if isinstance(value, str):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} value {value!r}"
    )


def canonical_json(payload: Any, float_digits: int = 10) -> str:
    """Deterministic JSON text of :func:`canonical_value` (newline-terminated).

    Two payloads produce identical bytes iff their canonical forms are
    equal — the comparison primitive of the golden-trace store and the
    determinism tests.
    """
    return (
        json.dumps(
            canonical_value(payload, float_digits),
            indent=2,
            sort_keys=True,
            ensure_ascii=False,
        )
        + "\n"
    )


def _job_record(job: Job) -> dict[str, Any]:
    return {
        "name": job.name,
        "task": job.task.name,
        "release": job.release,
        "absolute_deadline": job.absolute_deadline,
        "wcet": job.wcet,
        "actual_work": job.actual_work,
        "state": job.state.value,
        "first_start_time": job.first_start_time,
        "completion_time": job.completion_time,
        "energy_consumed": job.energy_consumed,
        "remaining_work": job.remaining_actual_work,
    }


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """JSON-safe dictionary of a simulation result (without the trace)."""
    return {
        "scheduler": result.scheduler_name,
        "horizon": result.horizon,
        "metrics": {
            "released": result.released_count,
            "completed": result.completed_count,
            "missed": result.missed_count,
            "judged": result.judged_count,
            "miss_rate": result.miss_rate,
            "harvested_energy": result.harvested_energy,
            "drawn_energy": result.drawn_energy,
            "overflow_energy": result.overflow_energy,
            "leaked_energy": result.leaked_energy,
            "final_stored": result.final_stored,
            "storage_capacity": _json_safe(result.storage_capacity),
            "idle_time": result.idle_time,
            "switch_count": result.switch_count,
            "stall_count": result.stall_count,
            "stall_time": result.stall_time,
        },
        "busy_time_profile": {
            f"{speed:g}": time
            for speed, time in sorted(result.busy_time_profile.items())
        },
        "per_task": {
            name: {
                "released": released,
                "missed": result.per_task_missed.get(name, 0),
            }
            for name, released in sorted(result.per_task_released.items())
        },
        "jobs": [_job_record(job) for job in result.jobs],
    }


def save_result_json(result: SimulationResult, path: PathLike) -> None:
    """Write :func:`result_to_dict` to ``path`` as pretty-printed JSON."""
    payload = result_to_dict(result)
    atomic_write_text(
        path, json.dumps(payload, indent=2, default=_json_safe)
    )


#: Columns of the trace CSV format (stable order).
_TRACE_COLUMNS = ("time", "kind", "fields")


def trace_to_csv(trace: Trace, path: PathLike) -> int:
    """Write a trace to CSV; returns the number of records written.

    Each row is ``time, kind, <json-encoded fields>`` — the field
    dictionary is heterogeneous across kinds, so it travels as one JSON
    column rather than an explosion of sparse columns.
    """
    count = 0
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_TRACE_COLUMNS)
    for record in trace:
        writer.writerow(
            [
                repr(record.time),
                record.kind,
                json.dumps(dict(record.fields), default=_json_safe,
                           sort_keys=True),
            ]
        )
        count += 1
    atomic_write_text(path, buffer.getvalue(), newline="")
    return count


def load_trace_csv(path: PathLike) -> Trace:
    """Read a CSV written by :func:`trace_to_csv` back into a trace."""
    trace = Trace()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != _TRACE_COLUMNS:
            raise ValueError(
                f"{path}: not a trace CSV (header {header!r})"
            )
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"{path}: malformed row {row!r}")
            time_text, kind, fields_json = row
            trace.record(float(time_text), kind, **json.loads(fields_json))
    return trace


_JOB_COLUMNS = (
    "name",
    "task",
    "release",
    "absolute_deadline",
    "wcet",
    "actual_work",
    "state",
    "first_start_time",
    "completion_time",
    "energy_consumed",
)


def jobs_to_csv(result: SimulationResult, path: PathLike) -> int:
    """Write the per-job table of a result to CSV; returns the row count."""
    count = 0
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_JOB_COLUMNS,
                            extrasaction="ignore")
    writer.writeheader()
    for job in result.jobs:
        writer.writerow(_job_record(job))
        count += 1
    atomic_write_text(path, buffer.getvalue(), newline="")
    return count
