"""Unit tests for the durable result journal."""

import math

import pytest

from repro.analysis.metrics import energy_series
from repro.analysis.parallel import RunFailure, RunSpec
from repro.experiments.common import PaperSetup
from repro.faults.chaos import flip_byte, truncate_tail
from repro.runtime.journal import (
    ENGINE_VERSION,
    JournalError,
    JournalKey,
    ResultJournal,
    failure_from_payload,
    failure_to_payload,
    journal_key,
    result_from_payload,
    result_to_payload,
    spec_hash,
)
from repro.serialization import canonical_json
from repro.sim.simulator import SimulationResult

FAST_SETUP = PaperSetup(horizon=200.0)


def make_spec(seed=0, capacity=50.0, name="edf"):
    return RunSpec(name, 0.4, capacity, seed, setup=FAST_SETUP)


def make_result(name="edf", capacity=50.0):
    return SimulationResult(
        scheduler_name=name,
        horizon=200.0,
        jobs=(),
        released_count=40,
        completed_count=38,
        missed_count=2,
        judged_count=40,
        harvested_energy=123.456789,
        drawn_energy=98.7654321,
        overflow_energy=0.1,
        leaked_energy=0.0,
        final_stored=7.25,
        storage_capacity=capacity,
        busy_time_profile={0.5: 10.125, 1.0: 85.5},
        idle_time=104.375,
        switch_count=17,
        stall_count=3,
        stall_time=2.5,
        per_task_released={"t0": 20, "t1": 20},
        per_task_missed={"t0": 2},
    )


def make_failure(spec):
    return RunFailure(
        spec=spec,
        error_type="RuntimeError",
        message="boom",
        attempts=2,
        timed_out=False,
        traceback="Traceback (most recent call last):\n  boom\n",
        diagnostics={"violation": "stall", "time": 12.0},
    )


class TestSpecHash:
    def test_stable(self):
        assert spec_hash(make_spec()) == spec_hash(make_spec())

    def test_sensitive_to_every_cell_coordinate(self):
        base = spec_hash(make_spec())
        assert spec_hash(make_spec(seed=1)) != base
        assert spec_hash(make_spec(capacity=51.0)) != base
        # The scheduler lives in the key, not the hash: same workload,
        # different scheduler = same spec_hash, different JournalKey.
        assert spec_hash(make_spec(name="lsa")) == base
        assert journal_key(make_spec(name="lsa")) != journal_key(make_spec())

    def test_sensitive_to_setup_fields_and_class(self):
        base = spec_hash(make_spec())
        other = RunSpec("edf", 0.4, 50.0, 0, setup=PaperSetup(horizon=300.0))
        assert spec_hash(other) != base

    def test_key_carries_engine_version(self):
        key = journal_key(make_spec())
        assert key.engine_version == ENGINE_VERSION
        assert key.text().endswith(f"/e{ENGINE_VERSION}")


class TestPayloadRoundTrip:
    def test_result_round_trips_bit_exactly(self):
        result = make_result()
        payload = result_to_payload(result)
        back = result_from_payload(payload)
        assert result_to_payload(back) == payload
        assert canonical_json(payload) == canonical_json(result_to_payload(back))
        assert back.busy_time_profile == result.busy_time_profile
        assert back.miss_rate == result.miss_rate

    def test_infinite_capacity_round_trips(self):
        result = make_result(capacity=math.inf)
        back = result_from_payload(result_to_payload(result))
        assert math.isinf(back.storage_capacity)

    def test_unsampled_payload_has_no_energy_samples(self):
        result = FAST_SETUP.run("lsa", 0.4, 50.0, 0)
        assert "energy_samples" not in result_to_payload(result)

    def test_energy_samples_round_trip_bit_exactly(self, tmp_path):
        result = FAST_SETUP.run(
            "lsa", 0.4, 50.0, 0, energy_sample_interval=25.0
        )
        with ResultJournal(tmp_path / "j.journal") as journal:
            journal.append_result(journal_key(make_spec()), result)
        with ResultJournal(tmp_path / "j.journal") as journal:
            record = journal.get(journal_key(make_spec()))
        back = result_from_payload(record["payload"])
        for field in ("stored", "fraction", "harvest_power"):
            times, values = energy_series(result, field)
            back_times, back_values = energy_series(back, field)
            assert times.size == 9
            assert back_times.tobytes() == times.tobytes()
            assert back_values.tobytes() == values.tobytes()
        assert result_to_payload(back) == record["payload"]

    def test_failure_round_trips(self):
        spec = make_spec()
        failure = make_failure(spec)
        back = failure_from_payload(failure_to_payload(failure), spec)
        assert back == failure


class TestJournalBasics:
    def test_create_and_reopen_empty(self, tmp_path):
        path = tmp_path / "j.journal"
        with ResultJournal(path) as journal:
            assert len(journal) == 0
        with ResultJournal(path, create=False) as journal:
            assert len(journal) == 0
            assert journal.info().torn_bytes_discarded == 0

    def test_missing_without_create_raises(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            ResultJournal(tmp_path / "absent.journal", create=False)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bogus.journal"
        path.write_bytes(b"NOTJRNL1" + b"x" * 32)
        with pytest.raises(JournalError, match="bad magic"):
            ResultJournal(path)

    def test_append_get_contains(self, tmp_path):
        spec = make_spec()
        key = journal_key(spec)
        with ResultJournal(tmp_path / "j.journal") as journal:
            assert key not in journal
            journal.append_result(key, make_result())
            assert key in journal
            record = journal.get(key)
            assert record["kind"] == "result"
            assert record["payload"] == result_to_payload(make_result())

    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "j.journal"
        spec = make_spec()
        with ResultJournal(path) as journal:
            journal.append_result(journal_key(spec), make_result())
            journal.append_failure(
                journal_key(make_spec(seed=1)), make_failure(make_spec(seed=1))
            )
        with ResultJournal(path, create=False) as journal:
            info = journal.info()
            assert (info.records, info.results, info.failures) == (2, 1, 1)
            assert info.torn_bytes_discarded == 0
            back = result_from_payload(journal.get(journal_key(spec))["payload"])
            assert back.missed_count == 2

    def test_duplicate_append_last_wins(self, tmp_path):
        path = tmp_path / "j.journal"
        spec = make_spec()
        key = journal_key(spec)
        with ResultJournal(path) as journal:
            journal.append_failure(key, make_failure(spec))
            journal.append_result(key, make_result())
            assert len(journal) == 1
            assert journal.get(key)["kind"] == "result"
        with ResultJournal(path, create=False) as journal:
            assert len(journal) == 1
            assert journal.get(key)["kind"] == "result"
            assert journal.info().failures == 0

    def test_append_kind_validated(self, tmp_path):
        with ResultJournal(tmp_path / "j.journal") as journal:
            with pytest.raises(ValueError, match="kind"):
                journal.append(journal_key(make_spec()), "banana", {})

    def test_canonical_export_is_deterministic(self, tmp_path):
        a = ResultJournal(tmp_path / "a.journal")
        b = ResultJournal(tmp_path / "b.journal")
        for seed in (2, 0, 1):
            spec = make_spec(seed=seed)
            a.append_result(journal_key(spec), make_result())
        for seed in (0, 1, 2):  # different append order, same content
            spec = make_spec(seed=seed)
            b.append_result(journal_key(spec), make_result())
        assert canonical_json(a.to_canonical()) == canonical_json(b.to_canonical())
        a.close()
        b.close()


class TestTornTailRecovery:
    def fill(self, path, n=3):
        with ResultJournal(path) as journal:
            for seed in range(n):
                spec = make_spec(seed=seed)
                journal.append_result(journal_key(spec), make_result())
            return path.stat().st_size

    @pytest.mark.parametrize("drop", [1, 5, 37])
    def test_truncated_tail_discards_only_last_record(self, tmp_path, drop):
        path = tmp_path / "j.journal"
        self.fill(path)
        truncate_tail(path, drop)
        with ResultJournal(path, create=False) as journal:
            info = journal.info()
            assert info.records == 2
            # The torn remainder of record 3 is gone from disk too.
            assert journal_key(make_spec(seed=2)) not in journal
            assert info.torn_bytes_discarded > 0
        # A second open is clean: recovery already truncated the tear.
        with ResultJournal(path, create=False) as journal:
            assert journal.info().torn_bytes_discarded == 0

    def test_appended_garbage_discarded(self, tmp_path):
        path = tmp_path / "j.journal"
        self.fill(path)
        with open(path, "ab") as handle:
            handle.write(b"\x07garbage")
        with ResultJournal(path, create=False) as journal:
            assert journal.info().records == 3
            assert journal.info().torn_bytes_discarded == 8

    def test_bitrot_in_last_record_discards_it(self, tmp_path):
        path = tmp_path / "j.journal"
        self.fill(path)
        flip_byte(path, 10)  # inside the last record's payload
        with ResultJournal(path, create=False) as journal:
            assert journal.info().records == 2
            assert journal.info().torn_bytes_discarded > 0

    def test_append_after_recovery(self, tmp_path):
        path = tmp_path / "j.journal"
        self.fill(path)
        truncate_tail(path, 3)
        with ResultJournal(path, create=False) as journal:
            spec = make_spec(seed=2)
            journal.append_result(journal_key(spec), make_result())
            assert journal.info().records == 3
        with ResultJournal(path, create=False) as journal:
            assert journal.info().records == 3
            assert journal.info().torn_bytes_discarded == 0

    def test_keys_are_order_insensitive_dataclasses(self):
        key = JournalKey(spec_hash="ab", scheduler_name="edf")
        assert key == JournalKey(spec_hash="ab", scheduler_name="edf")
        assert key.text() == f"ab/edf/e{ENGINE_VERSION}"
