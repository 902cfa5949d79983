"""Journal key bytes: pinned literals, the batch key builder and the
purity of the hash-closure roots.

A journal record is addressed by ``spec_hash``; any change to the bytes
behind it silently orphans every existing journal, so the hashes of a
few representative cells are pinned as literal hex strings here.  The
roots behind keys, payloads and exports must also read no clock, global
RNG, environment or file: :class:`TestRootsReadNoAmbientState` runs
them with every such entry point patched to raise.
"""

import builtins
import dataclasses
import hashlib
import io
import math
import os
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime.journal as journal_module
from repro.analysis.parallel import RunFailure, RunSpec
from repro.experiments.ablations import LadderSetup
from repro.experiments.common import PaperSetup
from repro.experiments.fig8_fig9 import DEFAULT_FRACTIONS, REFERENCE_CAPACITY
from repro.experiments.resilience import ResilienceSetup
from repro.runtime.journal import (
    ResultJournal,
    export_json,
    failure_to_payload,
    journal_key,
    journal_keys,
    result_to_payload,
    spec_hash,
)
from repro.runtime.supervisor import run_supervised
from repro.serialization import canonical_json, canonical_value

PINNED = [
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 50.0, 0),
        "9346b94e1db982c4940b0daab52c6dec73878bf616fdeb4d210f125a61fb38b9",
        id="default-setup",
    ),
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 50.0, 3,
                setup=LadderSetup(ladder="continuous-32")),
        "e0264a1c7a7e76a0303d8f3bc83ed69b2ee9a0e5c22558296d98f8982e8cc8b3",
        id="ablation-ladder",
    ),
    pytest.param(
        RunSpec("lsa", 0.4, 60.0, 1, setup=ResilienceSetup(blackout=True)),
        "c1005e20b08d4f564c8345d211b4f0f8dff51f3d17dcb83da2087e7364a28236",
        id="resilience",
    ),
    pytest.param(
        RunSpec("ea-dvfs", 0.4, 100.0, 2, setup=PaperSetup(horizon=400.0),
                energy_sample_interval=25.0),
        "4bf84e6b881751ffe876c348f17aced6c351d02f345fd1b762bd1dc589c28f4f",
        id="fig6-energy-sampled",
    ),
    pytest.param(
        RunSpec("lsa", 0.4, 100, 0),
        "26bff62065c4d77d65dce9dafa65d6bccb19335f5196ad36d8bb81f70b605b63",
        id="int-capacity",
    ),
    pytest.param(
        RunSpec("lsa", 0.4, 100.0, 0),
        "1f8d20f088a7e39b9876b1ac8dc1c5481c3b9229752c55320361727b23ee5085",
        id="float-capacity",
    ),
]


class TestPinnedKeyBytes:
    @pytest.mark.parametrize("spec, expected", PINNED)
    def test_spec_hash_is_pinned(self, spec, expected):
        assert spec_hash(spec) == expected

    def test_int_and_float_capacity_hash_apart(self):
        assert spec_hash(RunSpec("lsa", 0.4, 100, 0)) != spec_hash(
            RunSpec("lsa", 0.4, 100.0, 0)
        )


def reference_spec_hash(spec):
    """The one-cell key formula, kept verbatim as the reference."""
    payload = {
        "setup_class": type(spec.setup).__qualname__,
        "setup": dataclasses.asdict(spec.setup),
        "utilization": spec.utilization,
        "capacity": spec.capacity,
        "seed": spec.seed,
        "energy_sample_interval": spec.energy_sample_interval,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


SHARED = PaperSetup(horizon=200.0)
#: Shared, distinct-but-equal (same bytes), equal-but-not-same-bytes
#: (``200 == 200.0``) and subclass setups.
SETUP_POOL = (
    SHARED,
    SHARED,
    PaperSetup(horizon=200.0),
    PaperSetup(horizon=200),
    LadderSetup(horizon=200.0, ladder="single-speed"),
    LadderSetup(horizon=200.0),
    ResilienceSetup(horizon=200.0, overrun=True),
)

cells = st.builds(
    RunSpec,
    scheduler_name=st.sampled_from(("lsa", "ea-dvfs")),
    utilization=st.sampled_from((0.4, 1, 1.0)),
    capacity=st.sampled_from((100, 100.0, 50.0, -0.0, 0.0)),
    seed=st.sampled_from((0, 1, True)),
    setup=st.sampled_from(SETUP_POOL),
    energy_sample_interval=st.sampled_from((None, 25.0, 25)),
)


class TestJournalKeys:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(cells, max_size=24))
    def test_batch_keys_match_the_one_cell_formula(self, specs):
        specs = specs + specs[: len(specs) // 2]  # repeat some cells
        keys = journal_keys(specs)
        assert keys == [journal_key(spec) for spec in specs]
        assert [k.spec_hash for k in keys] == [
            reference_spec_hash(spec) for spec in specs
        ]
        assert [k.scheduler_name for k in keys] == [
            spec.scheduler_name for spec in specs
        ]

    def test_equal_setups_are_matched_by_identity(self):
        int_setup = PaperSetup(horizon=2000)
        float_setup = PaperSetup(horizon=2000.0)
        assert int_setup == float_setup
        a, b = journal_keys([
            RunSpec("lsa", 0.4, 50.0, 0, setup=int_setup),
            RunSpec("lsa", 0.4, 50.0, 0, setup=float_setup),
        ])
        assert a.spec_hash != b.spec_hash

    def test_empty_grid(self):
        assert journal_keys([]) == []


def fig8_profile_grid(setup):
    """9 capacity fractions x lsa/ea-dvfs x 8 seeds over one setup."""
    return [
        RunSpec(name, 0.4, fraction * REFERENCE_CAPACITY[0.4], seed, setup)
        for fraction in DEFAULT_FRACTIONS
        for name in ("lsa", "ea-dvfs")
        for seed in range(8)
    ]


@pytest.fixture
def canonical_json_calls(monkeypatch):
    """Count the journal module's calls into ``canonical_json``."""
    calls = []

    def counted(payload, *args, **kwargs):
        calls.append(payload)
        return canonical_json(payload, *args, **kwargs)

    monkeypatch.setattr(journal_module, "canonical_json", counted)
    return calls


class TestKeyedOncePerSweep:
    """A sweep hashes each distinct cell once: schedulers share a hash,
    and the landing append reuses the lookup's key."""

    def test_write_pass_hashes_each_distinct_cell_once(
        self, tmp_path, canonical_json_calls
    ):
        specs = fig8_profile_grid(PaperSetup(horizon=20.0))
        with ResultJournal(tmp_path / "j.journal") as journal:
            report = run_supervised(specs, journal=journal, engine="batch")
            assert report.executed == len(specs) == len(journal) == 144
        assert len(canonical_json_calls) == 72

    def test_read_pass_hashes_each_distinct_cell_once(
        self, tmp_path, canonical_json_calls
    ):
        specs = fig8_profile_grid(PaperSetup(horizon=20.0))
        with ResultJournal(tmp_path / "j.journal") as journal:
            run_supervised(specs, journal=journal, engine="batch")
            canonical_json_calls.clear()
            report = run_supervised(specs, journal=journal, engine="batch")
        assert report.journal_hits == 144 and report.executed == 0
        assert len(canonical_json_calls) == 72


#: Clock reads of the ``time`` module, wall and monotonic alike.
CLOCKS = (
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "thread_time",
    "thread_time_ns", "localtime", "gmtime", "ctime", "asctime", "strftime",
)


def _functions(module, names):
    return [
        name for name in names
        if callable(getattr(module, name)) and not isinstance(
            getattr(module, name), type
        )
    ]


def tripwire(name, trips):
    """A stand-in for an ambient entry point: a call records ``name``
    and raises."""

    def trip(*args, **kwargs):
        trips.append(name)
        raise AssertionError(f"hash-closure root reached {name}")

    return trip


def _run(spec):
    return spec.setup.run(
        scheduler_name=spec.scheduler_name,
        utilization=spec.utilization,
        capacity=spec.capacity,
        seed=spec.seed,
        energy_sample_interval=spec.energy_sample_interval,
    )


#: A sampled result, an unsampled one and an infinite-capacity one.
RESULT_SPECS = (
    RunSpec("ea-dvfs", 0.4, 100.0, 2, SHARED, energy_sample_interval=25.0),
    RunSpec("lsa", 0.4, 50.0, 0, SHARED),
    RunSpec("lsa", 0.4, math.inf, 1, SHARED),
)


def root_outputs(specs, results, failure):
    """Everything the hash-closure roots produce for these inputs."""
    keys = journal_keys(specs)
    document = {
        journal_key(spec).text(): {
            "kind": "result", "payload": result_to_payload(result),
        }
        for spec, result in zip(RESULT_SPECS, results)
    }
    document[journal_key(failure.spec).text()] = {
        "kind": "failure", "payload": failure_to_payload(failure),
    }
    return (
        [spec_hash(spec) for spec in specs],
        keys,
        [journal_key(spec) for spec in specs],
        canonical_value(document),
        canonical_json(document),
        export_json(document),
    )


class TestRootsReadNoAmbientState:
    """The roots read no clock, global RNG, environment or file.

    A patched module attribute cannot see a name bound at import
    (``from time import time``); the pinned key bytes and the
    kill-resume exports catch those reads instead.
    """

    def test_roots_trip_nothing_and_match_an_unpatched_rerun(
        self, monkeypatch
    ):
        specs = [
            RunSpec("lsa", 0.4, capacity, 0, setup)
            for setup in SETUP_POOL
            for capacity in (100, 100.0)
        ] + [param.values[0] for param in PINNED]
        results = [_run(spec) for spec in RESULT_SPECS]
        assert "energy_samples" in result_to_payload(results[0])
        assert "energy_samples" not in result_to_payload(results[1])
        failure = RunFailure(
            spec=specs[0],
            error_type="WatchdogError",
            message="stalled",
            attempts=3,
            timed_out=False,
            traceback="Traceback (most recent call last):\n  stall\n",
            diagnostics={"violation": "stall", "time": 12.5,
                         "ready": [1, 2], "stored": 0.0},
        )
        trips = []
        with monkeypatch.context() as patch:
            for name in CLOCKS:
                patch.setattr(time, name, tripwire(f"time.{name}", trips))
            for name in _functions(random, random.__all__):
                patch.setattr(random, name, tripwire(f"random.{name}", trips))
            for name in _functions(np.random, np.random.__all__):
                patch.setattr(
                    np.random, name, tripwire(f"np.random.{name}", trips)
                )
            # On the class, so an alias of os.environ trips as well.
            for name in ("__getitem__", "__iter__", "__len__"):
                patch.setattr(
                    type(os.environ), name,
                    tripwire(f"os.environ.{name}", trips),
                )
            for name in ("getenv", "open"):
                patch.setattr(os, name, tripwire(f"os.{name}", trips))
            patch.setattr(builtins, "open", tripwire("open", trips))
            patch.setattr(io, "open", tripwire("io.open", trips))
            try:
                patched = root_outputs(specs, results, failure)
            except AssertionError:
                patched = None
        assert trips == []
        assert patched == root_outputs(specs, results, failure)
