"""Tests of the benchmark harness itself: ``python -m pytest sweepbench``."""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import run
from layers import SCALAR_PROBES, SWEEP_PROBES, Probe, Tracer, installed

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(workload, trace, cwd, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_names_are_valid_and_unique():
    names = [*run.END_TO_END_UNITS, *run.PER_LAYER_UNITS, *harness.WORKLOADS]
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert len(set(names)) == len(names)


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    } == run.END_TO_END_UNITS
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    } == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_tiny_smoke_run(workload, trace, tmp_path):
    done = _bench(workload, trace, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        # The predicted contrasts: profile kernels on fig8 only, the
        # process pool on scalar-pool only.
        assert (values["energy.profile_predict_calls"] > 0) == (
            workload == "fig8-profile"
        )
        assert (values["parallel.rounds"] > 0) == (workload == "scalar-pool")
        assert values["batch.fallback_frac"] == 0
    else:
        assert all(v > 0 for v in values.values())
    assert list(tmp_path.iterdir()) == []  # scratch journals removed


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "sweepbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _bench("fig8-profile", 0, tmp_path, tmp_path / "sweepbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_wrappers_are_restored():
    probes = SWEEP_PROBES + SCALAR_PROBES
    originals = [vars(p.owner)[p.attr] for p in probes]
    with pytest.raises(RuntimeError):
        with installed(Tracer(), probes):
            for probe, original in zip(probes, originals):
                assert vars(probe.owner)[probe.attr] is not original
            raise RuntimeError("the traced block failed")
    for probe, original in zip(probes, originals):
        assert vars(probe.owner)[probe.attr] is original


def test_self_time_excludes_child_spans():
    class Toy:
        def outer(self):
            self.inner()

        def inner(self):
            time.sleep(0.01)

    tracer = Tracer()
    probes = (Probe(Toy, "outer", "outer"), Probe(Toy, "inner", "inner"))
    with installed(tracer, probes):
        Toy().outer()
    outer, inner = tracer.stat("outer"), tracer.stat("inner")
    assert outer.calls == inner.calls == 1
    assert outer.self_seconds < inner.seconds
    assert outer.seconds == pytest.approx(outer.self_seconds + inner.seconds)
    assert tracer.stat("never-ran").calls == 0


def test_replay_flags_a_wrong_result(tmp_path):
    workload = harness.WORKLOADS["fig8-profile"]
    specs = workload.grid(0, 1, harness.TINY_FRACTIONS)
    sweep = harness.run_sweep(workload, specs, tmp_path / "sweep.journal")
    harness.replay(specs, sweep, range(len(specs)))
    assert not sweep.failed
    payload = sweep.payloads[1]
    sweep.payloads[1] = dict(payload, missed_count=payload["missed_count"] + 1)
    harness.replay(specs, sweep, range(len(specs)))
    assert sweep.failed == {1}


def test_replay_plan_takes_one_cell_per_stratum():
    plan = harness.replay_plan(n_sweeps=5, n_cells=144, count=9)
    assert [i // 16 for _, i in plan] == list(range(9))
    assert [k for k, _ in plan] == sorted(k for k, _ in plan)
    assert {k for k, _ in plan} == set(range(5))
    assert harness.replay_plan(n_sweeps=1, n_cells=4, count=9) == [
        (0, 0), (0, 1), (0, 2), (0, 3)
    ]


def test_speed_scale_maps_the_reference_loop_time_to_one():
    import speed

    assert speed.scale(speed.REFERENCE_S, speed.REFERENCE_S) == 1.0
    assert speed.scale(2 * speed.REFERENCE_S, 2 * speed.REFERENCE_S) == 0.5
    assert speed.sample() > 0
