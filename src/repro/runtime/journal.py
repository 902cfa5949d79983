"""Durable, append-only result journal.

The unit of durability is one *record*: a simulation outcome (result or
salvaged failure) keyed by ``(spec_hash, scheduler_name,
engine_version)``.  Records are framed as::

    [u32 payload length][u32 CRC-32 of payload][payload bytes]

with a fixed 8-byte file magic up front.  The payload is compact UTF-8
JSON.  Every append is flushed and ``fsync``'d before :meth:`append`
returns, so a record is either fully on disk or not in the journal at
all; a crash mid-write leaves a *torn tail* (short or CRC-mismatching
trailing frame) that :meth:`ResultJournal.open` detects and truncates
away.  Everything before the tear is intact — append-only framing means
an interrupted sweep loses at most the record being written.

Keys are content-addressed: :func:`journal_keys` canonicalizes each
:class:`~repro.analysis.parallel.RunSpec` (setup class + fields,
utilization, capacity, seed, energy sample interval) through
:func:`repro.serialization.canonical_json` and hashes it with SHA-256,
so two sweeps over the same cells share records and a spec change can
never alias a stale result.  It keys a whole sweep in one pass;
:func:`spec_hash` and :func:`journal_key` are its one-cell forms, so the
key bytes have a single definition.  ``engine_version``
(:data:`ENGINE_VERSION`) is part of the key: bump it whenever simulation
semantics change numerically and old journals simply stop matching.

See ``docs/runtime.md`` for the format and resume semantics.
"""

from __future__ import annotations

import binascii
import dataclasses
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union

from repro.serialization import canonical_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.parallel import RunFailure, RunSpec
    from repro.sim.simulator import SimulationResult

__all__ = [
    "ENGINE_VERSION",
    "JournalError",
    "JournalInfo",
    "JournalKey",
    "ResultJournal",
    "export_json",
    "failure_from_payload",
    "failure_to_payload",
    "journal_key",
    "journal_keys",
    "result_from_payload",
    "result_to_payload",
    "spec_hash",
]

#: Version of the simulation semantics baked into journal keys.  Bump on
#: any change that alters simulated numbers; journaled results from
#: older engines then no longer match and are recomputed.
ENGINE_VERSION = "1"

#: File magic: "RPR" journal, format 1, newline so `file`/`head` output
#: stays readable.
_MAGIC = b"RPRJRNL1"

#: Frame header: little-endian (payload length, CRC-32 of payload).
_HEADER = struct.Struct("<II")

#: Upper bound on a single payload; anything larger is corruption.
_MAX_PAYLOAD = 64 * 1024 * 1024


class JournalError(RuntimeError):
    """The journal file is unusable (bad magic, unreadable, mid-file rot)."""


@dataclass(frozen=True)
class JournalKey:
    """Content address of one journaled outcome."""

    spec_hash: str
    scheduler_name: str
    engine_version: str = ENGINE_VERSION

    def text(self) -> str:
        """Stable single-line rendering (used by inspect/export)."""
        return f"{self.spec_hash}/{self.scheduler_name}/e{self.engine_version}"


def journal_keys(specs: Sequence["RunSpec"]) -> list[JournalKey]:
    """The journal keys of ``specs``, in input order.

    Each key's ``spec_hash`` is the SHA-256 of the canonical JSON of its
    cell: setup class and fields, utilization, capacity, seed and energy
    sample interval.  One pass turns each distinct setup object into
    its fields once and hashes each distinct cell once: cells that differ
    only in scheduler share a hash, since the scheduler is a separate key
    field.

    Setups are matched by identity: equal setups may still canonicalize
    apart (``horizon=2000`` and ``horizon=2000.0`` compare equal but
    hash differently).  Cells are matched by value *and* type for the
    same reason (``capacity=100`` is not ``capacity=100.0``).
    """
    setups: list[Any] = []  # distinct setup objects
    setup_fields: list[dict[str, Any]] = []  # their class and fields
    hashes: dict[tuple[Any, ...], str] = {}
    keys = []
    for spec in specs:
        setup = spec.setup
        # Most recent first: grids share one setup or run setup-major.
        for index in range(len(setups) - 1, -1, -1):
            if setups[index] is setup:
                break
        else:
            index = len(setups)
            setups.append(setup)
            setup_fields.append({
                "setup_class": type(setup).__qualname__,
                "setup": dataclasses.asdict(setup),
            })
        cell = (
            index,
            type(spec.utilization), spec.utilization,
            type(spec.capacity), spec.capacity,
            type(spec.seed), spec.seed,
            type(spec.energy_sample_interval), spec.energy_sample_interval,
        )
        digest = hashes.get(cell)
        if digest is None:
            payload = {
                **setup_fields[index],
                "utilization": spec.utilization,
                "capacity": spec.capacity,
                "seed": spec.seed,
                "energy_sample_interval": spec.energy_sample_interval,
            }
            digest = hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest()
            hashes[cell] = digest
        keys.append(JournalKey(
            spec_hash=digest,
            scheduler_name=spec.scheduler_name,
            engine_version=ENGINE_VERSION,
        ))
    return keys


def spec_hash(spec: "RunSpec") -> str:
    """SHA-256 of the canonical JSON of a run spec (setup class included)."""
    return journal_keys([spec])[0].spec_hash


def journal_key(spec: "RunSpec") -> JournalKey:
    """The journal key of one sweep cell."""
    return journal_keys([spec])[0]


# -- outcome codecs --------------------------------------------------------
#
# Journaled results are the *slim* results the sweeps consume (no job
# list), so every field round-trips through JSON exactly.  Of the trace
# only ENERGY samples travel, under a key only sampled results have.

_ENERGY_FIELDS = ("stored", "fraction", "harvest_power")


def result_to_payload(result: "SimulationResult") -> dict[str, Any]:
    """JSON-safe payload of a simulation result: the one result schema.

    The job list is not part of it (journaled results are slim); the
    per-job timeline travels as a trace CSV instead.
    """
    from repro.sim.tracing import TraceKind

    payload = {
        "scheduler_name": result.scheduler_name,
        "horizon": result.horizon,
        "released_count": result.released_count,
        "completed_count": result.completed_count,
        "missed_count": result.missed_count,
        "judged_count": result.judged_count,
        "harvested_energy": result.harvested_energy,
        "drawn_energy": result.drawn_energy,
        "overflow_energy": result.overflow_energy,
        "leaked_energy": result.leaked_energy,
        "final_stored": result.final_stored,
        "storage_capacity": (
            "inf" if math.isinf(result.storage_capacity)
            else result.storage_capacity
        ),
        "busy_time_profile": {
            repr(speed): time
            for speed, time in sorted(result.busy_time_profile.items())
        },
        "idle_time": result.idle_time,
        "switch_count": result.switch_count,
        "stall_count": result.stall_count,
        "stall_time": result.stall_time,
        "per_task_released": dict(sorted(result.per_task_released.items())),
        "per_task_missed": dict(sorted(result.per_task_missed.items())),
    }
    samples = result.trace.by_kind(TraceKind.ENERGY)
    if samples:
        columns = {"time": [record.time for record in samples]}
        for name in _ENERGY_FIELDS:
            columns[name] = [record[name] for record in samples]
        payload["energy_samples"] = columns
    return payload


def result_from_payload(payload: dict[str, Any]) -> "SimulationResult":
    """Rehydrate a slim :class:`SimulationResult` from its journal payload."""
    from repro.sim.simulator import SimulationResult
    from repro.sim.tracing import Trace, TraceKind

    trace = Trace()
    samples = payload.get("energy_samples")
    if samples is not None:
        trace = Trace(kinds=(TraceKind.ENERGY,))
        for k, time in enumerate(samples["time"]):
            trace.record(
                time,
                TraceKind.ENERGY,
                **{name: samples[name][k] for name in _ENERGY_FIELDS},
            )
    capacity = payload["storage_capacity"]
    return SimulationResult(
        scheduler_name=payload["scheduler_name"],
        horizon=payload["horizon"],
        jobs=(),
        released_count=payload["released_count"],
        completed_count=payload["completed_count"],
        missed_count=payload["missed_count"],
        judged_count=payload["judged_count"],
        harvested_energy=payload["harvested_energy"],
        drawn_energy=payload["drawn_energy"],
        overflow_energy=payload["overflow_energy"],
        leaked_energy=payload["leaked_energy"],
        final_stored=payload["final_stored"],
        storage_capacity=(
            math.inf if isinstance(capacity, str) else capacity
        ),
        busy_time_profile={
            float(speed): time
            for speed, time in payload["busy_time_profile"].items()
        },
        idle_time=payload["idle_time"],
        switch_count=payload["switch_count"],
        stall_count=payload["stall_count"],
        stall_time=payload["stall_time"],
        per_task_released=dict(payload["per_task_released"]),
        per_task_missed=dict(payload["per_task_missed"]),
        trace=trace,
    )


def failure_to_payload(failure: "RunFailure") -> dict[str, Any]:
    """JSON-safe payload of a salvage record (spec travels via the key)."""
    return {
        "error_type": failure.error_type,
        "message": failure.message,
        "attempts": failure.attempts,
        "timed_out": failure.timed_out,
        "traceback": failure.traceback,
        "diagnostics": failure.diagnostics,
    }


def failure_from_payload(
    payload: dict[str, Any], spec: "RunSpec"
) -> "RunFailure":
    """Rehydrate a :class:`RunFailure` against the spec that produced it."""
    from repro.analysis.parallel import RunFailure

    return RunFailure(
        spec=spec,
        error_type=payload["error_type"],
        message=payload["message"],
        attempts=payload["attempts"],
        timed_out=payload["timed_out"],
        traceback=payload.get("traceback"),
        diagnostics=payload.get("diagnostics"),
    )


def export_json(document: dict[str, Any]) -> str:
    """Exact JSON text of an export document (newline-terminated).

    ``document`` maps :meth:`JournalKey.text` to ``{"kind": "result" |
    "failure", "payload": ...}``, as :meth:`ResultJournal.to_canonical`
    and ``repro sweep --export`` build it.  Keys are sorted and floats
    keep their full ``repr`` precision, so every exported float parses
    back ``==`` to its journaled value and two exports are equal bytes
    iff they hold the same outcomes bit for bit.
    """
    return (
        json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False)
        + "\n"
    )


@dataclass(frozen=True)
class JournalInfo:
    """What :meth:`ResultJournal.open` found on disk."""

    path: str
    records: int
    results: int
    failures: int
    size_bytes: int
    #: Bytes of torn trailing frame discarded during recovery (0 when the
    #: file ended on a record boundary).
    torn_bytes_discarded: int

    def format_text(self) -> str:
        lines = [
            f"journal {self.path}",
            f"  records: {self.records} "
            f"({self.results} result(s), {self.failures} failure(s))",
            f"  size: {self.size_bytes} bytes",
        ]
        if self.torn_bytes_discarded:
            lines.append(
                f"  recovered: discarded {self.torn_bytes_discarded} "
                "torn trailing byte(s)"
            )
        return "\n".join(lines)


class ResultJournal:
    """Append-only, fsync'd store of sweep outcomes, safe across crashes.

    Open with :meth:`open` (creates the file on first use, recovers torn
    tails on every later open), test membership with ``key in journal``,
    read outcomes with :meth:`get`, and write with :meth:`append` /
    :meth:`append_result` / :meth:`append_failure`.  Instances are not
    thread-safe; one sweep process owns the journal at a time (workers
    return outcomes to the supervisor, which is the only writer).
    """

    def __init__(self, path: Union[str, Path], *, create: bool = True) -> None:
        self._path = Path(path)
        self._records: dict[tuple[str, str, str], dict[str, Any]] = {}
        self._results = 0
        self._failures = 0
        self._torn_bytes = 0
        self._handle = None
        self._open(create=create)

    # -- lifecycle --------------------------------------------------------

    def _open(self, create: bool) -> None:
        exists = self._path.exists()
        if not exists:
            if not create:
                raise JournalError(f"journal {self._path} does not exist")
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with open(self._path, "xb") as handle:
                handle.write(_MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            self._fsync_parent()
        else:
            self._recover()
        self._handle = open(self._path, "ab")

    def _fsync_parent(self) -> None:
        # Make the journal's directory entry itself durable (a brand-new
        # file can otherwise vanish with the crash it is meant to survive).
        try:
            fd = os.open(self._path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _recover(self) -> None:
        """Scan the file, load intact records, truncate any torn tail."""
        with open(self._path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic != _MAGIC:
                raise JournalError(
                    f"{self._path} is not a result journal "
                    f"(bad magic {magic!r})"
                )
            good_end = handle.tell()
            while True:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    break  # clean EOF or torn header
                length, crc = _HEADER.unpack(header)
                if length > _MAX_PAYLOAD:
                    break  # garbage length: treat as torn
                payload = handle.read(length)
                if len(payload) < length:
                    break  # torn payload
                if binascii.crc32(payload) & 0xFFFFFFFF != crc:
                    break  # torn / bit-rotted record
                try:
                    record = json.loads(payload.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    break  # CRC collision on garbage — still torn
                self._ingest(record)
                good_end = handle.tell()
            handle.seek(0, os.SEEK_END)
            file_end = handle.tell()
        if file_end > good_end:
            self._torn_bytes = file_end - good_end
            with open(self._path, "r+b") as handle:
                handle.truncate(good_end)
                handle.flush()
                os.fsync(handle.fileno())

    def _ingest(self, record: dict[str, Any]) -> None:
        key = record["key"]
        tup = (key["spec_hash"], key["scheduler_name"], key["engine_version"])
        previous = self._records.get(tup)
        if previous is not None:
            # Duplicate append (e.g. a crash between write and the
            # supervisor noting completion, then a re-run): last wins.
            if previous["kind"] == "result":
                self._results -= 1
            else:
                self._failures -= 1
        self._records[tup] = record
        if record["kind"] == "result":
            self._results += 1
        else:
            self._failures += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reads ------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: JournalKey) -> bool:
        return (
            key.spec_hash, key.scheduler_name, key.engine_version
        ) in self._records

    def get(self, key: JournalKey) -> Optional[dict[str, Any]]:
        """The raw record for ``key`` (``{"key", "kind", "payload"}``)."""
        return self._records.get(
            (key.spec_hash, key.scheduler_name, key.engine_version)
        )

    def records(self) -> Iterator[dict[str, Any]]:
        """All live records, in key order (deterministic across opens)."""
        for tup in sorted(self._records):
            yield self._records[tup]

    def info(self) -> JournalInfo:
        return JournalInfo(
            path=str(self._path),
            records=len(self._records),
            results=self._results,
            failures=self._failures,
            size_bytes=self._path.stat().st_size,
            torn_bytes_discarded=self._torn_bytes,
        )

    def to_canonical(self) -> dict[str, Any]:
        """The journal's export document, for :func:`export_json`.

        ``key.text() -> {"kind", "payload"}``: two journals hold the same
        result set iff their exports are identical bytes — the equality
        primitive of the chaos suite's resume-equals-uninterrupted proof.
        """
        return {
            JournalKey(**record["key"]).text(): {
                "kind": record["kind"], "payload": record["payload"],
            }
            for record in self.records()
        }

    # -- writes -----------------------------------------------------------

    def append(self, key: JournalKey, kind: str,
               payload: dict[str, Any]) -> None:
        """Durably append one outcome record.

        The record is on disk (flushed + fsync'd) when this returns; a
        crash before return leaves at most a torn tail that the next
        open discards.
        """
        if kind not in ("result", "failure"):
            raise ValueError(f"unknown record kind {kind!r}")
        record = {
            "key": {
                "spec_hash": key.spec_hash,
                "scheduler_name": key.scheduler_name,
                "engine_version": key.engine_version,
            },
            "kind": kind,
            "payload": payload,
        }
        body = json.dumps(
            record, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        frame = _HEADER.pack(
            len(body), binascii.crc32(body) & 0xFFFFFFFF
        ) + body
        self._commit(frame)
        self._ingest(record)

    def _commit(self, frame: bytes) -> None:
        """Write one framed record and make it durable.

        Split out so the chaos harness can interpose torn writes and
        process kills exactly here (see ``repro.faults.chaos``).
        """
        assert self._handle is not None, "journal is closed"
        self._handle.write(frame)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append_result(self, key: JournalKey,
                      result: "SimulationResult") -> None:
        self.append(key, "result", result_to_payload(result))

    def append_failure(self, key: JournalKey,
                       failure: "RunFailure") -> None:
        self.append(key, "failure", failure_to_payload(failure))
