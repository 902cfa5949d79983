"""Persistence of traces, canonical JSON and atomic writes.

Long sweeps are expensive; this module lets the harness (and downstream
users) persist what a run produced without pickling live objects:

* :func:`trace_to_csv` / :func:`load_trace_csv` — flat CSV round-trip of
  a :class:`~repro.sim.tracing.Trace`;
* :func:`canonical_value` / :func:`canonical_json` — byte-stable
  canonical JSON (sorted keys, floats rounded to :data:`FLOAT_DIGITS`
  significant digits) behind the golden-trace fixtures of
  :mod:`repro.verify` and the ``spec_hash`` bytes of the result journal;
* :func:`atomic_write_text` — crash-safe write-replace used wherever a
  reader must never observe a half-written file (golden fixtures,
  exported sweep results).

A simulation result itself has one JSON schema,
:func:`repro.runtime.journal.result_to_payload`, and exports of result
sets have one exact encoder, :func:`repro.runtime.journal.export_json`.

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

from repro.sim.tracing import Trace

__all__ = [
    "atomic_write_text",
    "canonical_json",
    "canonical_value",
    "load_trace_csv",
    "trace_to_csv",
]

PathLike = Union[str, Path]

#: Significant digits :func:`canonical_value` keeps of a float: enough to
#: distinguish genuine numeric regressions, short enough to absorb
#: last-bit noise across library versions.  ``spec_hash`` bytes depend
#: on it, so changing it re-keys every journal.
FLOAT_DIGITS = 10


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


def canonical_value(value: Any) -> Any:
    """Recursively normalize a payload for byte-stable serialization.

    Floats are rounded to :data:`FLOAT_DIGITS` significant digits,
    non-finite floats follow the :func:`_json_safe` convention, numpy
    scalars are unwrapped, tuples become lists, and mapping keys are
    coerced to sorted strings.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return _json_safe(value)
        if value == 0.0:
            return 0.0  # normalize -0.0
        return float(f"{value:.{FLOAT_DIGITS}g}")
    if isinstance(value, int):
        return value
    if hasattr(value, "tolist"):  # numpy array or scalar
        return canonical_value(value.tolist())
    if hasattr(value, "item"):  # other zero-dim numpy-likes
        return canonical_value(value.item())
    if isinstance(value, dict):
        return {
            str(key): canonical_value(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    if isinstance(value, str):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} value {value!r}"
    )


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text of :func:`canonical_value` (newline-terminated).

    Two payloads produce identical bytes iff their canonical forms are
    equal — the comparison primitive of the golden-trace store, and the
    bytes ``spec_hash`` hashes.  Result-set exports are exact instead
    (:func:`repro.runtime.journal.export_json`).
    """
    return (
        json.dumps(
            canonical_value(payload),
            indent=2,
            sort_keys=True,
            ensure_ascii=False,
        )
        + "\n"
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
