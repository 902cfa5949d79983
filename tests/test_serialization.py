"""Tests for result/trace persistence."""

import json
import math

import pytest

from repro.cpu.presets import xscale_pxa
from repro.energy.predictor import OraclePredictor
from repro.energy.source import SolarStochasticSource
from repro.energy.storage import IdealStorage
from repro.runtime.journal import result_to_payload
from repro.sched.edf import GreedyEdfScheduler
from repro.serialization import (
    atomic_write_text,
    canonical_json,
    canonical_value,
    load_trace_csv,
    trace_to_csv,
)
from repro.sim.simulator import HarvestingRtSimulator, SimulationConfig
from repro.sim.tracing import Trace, TraceKind
from repro.tasks.task import PeriodicTask, TaskSet


@pytest.fixture
def result():
    source = SolarStochasticSource(seed=2)
    sim = HarvestingRtSimulator(
        taskset=TaskSet([PeriodicTask(period=10.0, wcet=3.0, name="t")]),
        source=source,
        storage=IdealStorage(capacity=30.0),
        scheduler=GreedyEdfScheduler(xscale_pxa()),
        predictor=OraclePredictor(source),
        config=SimulationConfig(
            horizon=300.0,
            trace_kinds=(TraceKind.JOB_COMPLETE, TraceKind.STALL,
                         TraceKind.ENERGY),
            energy_sample_interval=50.0,
        ),
    )
    return sim.run()


class TestResultJson:
    """``result_to_payload`` is the one result schema: the journal's,
    the exports' and ``repro quick --json``'s."""

    def test_dict_fields(self, result):
        payload = result_to_payload(result)
        assert payload["scheduler_name"] == "edf"
        assert payload["released_count"] == 30
        assert payload["per_task_released"] == {"t": 30}
        assert "jobs" not in payload  # the timeline travels as a trace CSV
        assert len(payload["energy_samples"]["time"]) > 0

    def test_round_trips_through_json(self, result):
        payload = result_to_payload(result)
        loaded = json.loads(json.dumps(payload))
        assert loaded == payload  # every float at full precision
        assert loaded["completed_count"] == result.completed_count
        assert loaded["busy_time_profile"]["1.0"] > 0

    def test_infinite_capacity_serializes(self):
        source = SolarStochasticSource(seed=2)
        sim = HarvestingRtSimulator(
            taskset=TaskSet([PeriodicTask(period=10.0, wcet=1.0, name="t")]),
            source=source,
            storage=IdealStorage(capacity=math.inf, initial=math.inf),
            scheduler=GreedyEdfScheduler(xscale_pxa()),
            config=SimulationConfig(horizon=50.0),
        )
        payload = result_to_payload(sim.run())
        assert payload["storage_capacity"] == "inf"
        json.dumps(payload)  # must not raise


class TestTraceCsv:
    def test_round_trip(self, result, tmp_path):
        path = tmp_path / "trace.csv"
        written = trace_to_csv(result.trace, path)
        assert written == len(result.trace)
        loaded = load_trace_csv(path)
        assert len(loaded) == len(result.trace)
        for original, restored in zip(result.trace, loaded):
            assert restored.time == original.time
            assert restored.kind == original.kind

    def test_field_values_preserved(self, tmp_path):
        trace = Trace()
        trace.record(1.5, "energy", stored=12.25, label="x")
        path = tmp_path / "t.csv"
        trace_to_csv(trace, path)
        loaded = load_trace_csv(path)
        assert loaded[0]["stored"] == 12.25
        assert loaded[0]["label"] == "x"

    def test_exact_float_round_trip(self, tmp_path):
        trace = Trace()
        value = 0.1 + 0.2  # classic non-representable sum
        trace.record(value, "energy", stored=value)
        path = tmp_path / "t.csv"
        trace_to_csv(trace, path)
        assert load_trace_csv(path)[0].time == value

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="not a trace CSV"):
            load_trace_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind,fields\n1.0,energy\n")
        with pytest.raises(ValueError, match="malformed"):
            load_trace_csv(path)


class TestAtomicWrite:
    def test_writes_and_cleans_temporary(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_commit_leaves_original_intact(
        self, tmp_path, monkeypatch
    ):
        """A crash at the rename must expose old-or-new, never a tear."""
        target = tmp_path / "out.txt"
        target.write_text("old content")

        def crash(src, dst):
            raise OSError("simulated crash during commit")

        monkeypatch.setattr("repro.serialization.os.replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "new content")
        assert target.read_text() == "old content"
        assert list(tmp_path.iterdir()) == [target]

    def test_interrupted_fsync_cleans_temporary(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"

        def crash(fd):
            raise OSError("simulated fsync failure")

        monkeypatch.setattr("repro.serialization.os.fsync", crash)
        with pytest.raises(OSError, match="fsync"):
            atomic_write_text(target, "payload")
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_trace_export_leaves_no_partial_file(
        self, tmp_path, monkeypatch
    ):
        trace = Trace()
        trace.record(1.0, "energy", stored=1.0)
        path = tmp_path / "trace.csv"

        def crash(src, dst):
            raise OSError("simulated crash during commit")

        monkeypatch.setattr("repro.serialization.os.replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            trace_to_csv(trace, path)
        assert list(tmp_path.iterdir()) == []

    def test_csv_newline_semantics_preserved(self, tmp_path):
        """The atomic path must keep the CRLF endings :mod:`csv` emits."""
        trace = Trace()
        trace.record(1.0, "energy", stored=1.0)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        data = path.read_bytes()
        assert data.count(b"\r\n") == 2  # header + one record
        assert b"\n\n" not in data  # no doubled translation

    def test_newline_parameter_forwarded(self, tmp_path):
        path = tmp_path / "raw.txt"
        atomic_write_text(path, "a\r\nb\r\n", newline="")
        assert path.read_bytes() == b"a\r\nb\r\n"


class TestCanonicalJson:
    def test_sorted_keys_and_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_float_normalization(self):
        assert canonical_value(0.1 + 0.2) == canonical_value(0.3)
        assert canonical_value(-0.0) == 0.0
        assert math.copysign(1.0, canonical_value(-0.0)) == 1.0

    def test_non_finite_floats(self):
        assert canonical_value(math.inf) == "inf"
        assert canonical_value(-math.inf) == "-inf"
        assert canonical_value(math.nan) is None

    def test_numpy_values_unwrapped(self):
        import numpy as np

        payload = {"scalar": np.float64(1.5), "array": np.array([1.0, 2.0])}
        assert canonical_value(payload) == {"scalar": 1.5, "array": [1.0, 2.0]}

    def test_tuples_become_lists(self):
        assert canonical_value((1, 2.0, "x")) == [1, 2.0, "x"]

    def test_bool_survives(self):
        assert canonical_value(True) is True

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError, match="cannot canonicalize"):
            canonical_value(object())

    def test_byte_stability_across_calls(self):
        payload = {"x": [1 / 3, 2 / 7], "y": {"nested": 1e-12}}
        assert canonical_json(payload) == canonical_json(payload)

    def test_result_payload_is_canonicalizable(self, result):
        text = canonical_json(result_to_payload(result))
        assert json.loads(text)["scheduler_name"] == result.scheduler_name
