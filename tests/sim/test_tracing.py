"""Unit tests for the trace recorder."""

import numpy as np
import pytest

from repro.sim.tracing import Trace, TraceKind, TraceRecord


class TestTraceRecord:
    def test_field_access(self):
        record = TraceRecord(time=1.0, kind="energy", fields={"stored": 5.0})
        assert record["stored"] == 5.0
        assert record.get("missing", 42) == 42

    def test_frozen(self):
        record = TraceRecord(time=1.0, kind="x")
        with pytest.raises(AttributeError):
            record.time = 2.0


class TestTraceRecording:
    def test_record_and_iterate(self):
        trace = Trace()
        trace.record(0.0, "a", value=1)
        trace.record(1.0, "b", value=2)
        assert len(trace) == 2
        assert [r.kind for r in trace] == ["a", "b"]
        assert trace[1]["value"] == 2

    def test_kind_filter_drops_unwanted(self):
        trace = Trace(kinds=["a"])
        trace.record(0.0, "a")
        trace.record(1.0, "b")
        assert len(trace) == 1
        assert trace.accepts("a")
        assert not trace.accepts("b")

    def test_unfiltered_accepts_everything(self):
        trace = Trace()
        for kind in TraceKind.ALL:
            assert trace.accepts(kind)

    def test_clear_keeps_filter(self):
        trace = Trace(kinds=["a"])
        trace.record(0.0, "a")
        trace.clear()
        assert len(trace) == 0
        assert not trace.accepts("b")


class TestTraceQueries:
    @pytest.fixture
    def trace(self):
        trace = Trace()
        trace.record(0.0, "energy", stored=10.0)
        trace.record(1.0, "job_release", job="t1#0")
        trace.record(2.0, "energy", stored=8.0)
        trace.record(3.0, "energy", harvest=1.0)  # no 'stored' field
        return trace

    def test_by_kind(self, trace):
        assert len(trace.by_kind("energy")) == 3
        assert len(trace.by_kind("job_release")) == 1
        assert trace.by_kind("nothing") == []

    def test_count(self, trace):
        assert trace.count("energy") == 3
        assert trace.count("nope") == 0

    def test_times(self, trace):
        np.testing.assert_allclose(trace.times(), [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(trace.times("energy"), [0.0, 2.0, 3.0])

    def test_series_skips_missing_fields(self, trace):
        times, values = trace.series("energy", "stored")
        np.testing.assert_allclose(times, [0.0, 2.0])
        np.testing.assert_allclose(values, [10.0, 8.0])

    def test_filter_predicate(self, trace):
        late = trace.filter(lambda r: r.time >= 2.0)
        assert len(late) == 2

    def test_records_snapshot_is_immutable_copy(self, trace):
        snapshot = trace.records
        trace.record(9.0, "energy")
        assert len(snapshot) == 4
        assert len(trace.records) == 5
