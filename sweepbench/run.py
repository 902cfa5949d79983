"""Sweep benchmark: end-to-end and per-layer metrics of supervised sweeps.

Run from the repository root::

    python3 sweepbench/run.py --workload fig8-profile --seed 0 --seconds 40 --trace 0

Each workload repeats *sweeps* (see ``harness.py``) until ``--seconds``
have passed, each over fresh task-set seeds derived from ``--seed``.
``--trace 0`` prints the end-to-end metrics, with times scaled to a
reference host speed (see ``speed.py``);
``--trace 1`` prints the per-layer metrics of a traced run, which pairs
every traced sweep with an untraced one over the same cells to measure
the tracing overhead.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the machine and a readable summary.  See README.md for
every metric.

The benchmark imports ``repro`` from ``src/`` next to this directory and
exits with status 2 when that is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, ContextManager, Optional, Sequence

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up probes (fresh interpreters) per untraced run; setup_s is their median.
SETUP_PROBES = 5

#: Read passes per sweep of an untraced run.
READ_PASSES = 20

#: Cells per run replayed in-process on the scalar engine, after the
#: timed sweeps: one from each capacity fraction of the grid.
REPLAY_CELLS = 9

#: Metrics printed with ``--trace 0`` and their units.
END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "first_durable_s": "s",
    "resume_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Printed in the summary but not in the result object: both are 0 on
#: correct code, and ``failed``/``attempted`` already carry the first.
SUMMARY_ONLY_UNITS = {"failed_frac": "ratio", "fallback_frac": "ratio"}

#: Metrics printed with ``--trace 1`` and their units.  ``*_calls``,
#: ``*_lanes`` and ``*_s`` of the sweep layers are per sweep (write plus
#: read pass); ``scalar.*`` are per replayed cell.
PER_LAYER_UNITS = {
    "energy.profile_predict_calls": "count",
    "energy.profile_predict_lanes": "count",
    "energy.profile_predict_s": "s",
    "energy.profile_observe_calls": "count",
    "energy.profile_observe_lanes": "count",
    "energy.profile_observe_s": "s",
    "sched.decide_calls": "count",
    "sched.decide_lanes": "count",
    "sched.decide_s": "s",
    "batch.self_s": "s",
    "batch.lanes_per_call": "count",
    "batch.fallback_frac": "ratio",
    "setup.taskset_s": "s",
    "setup.source_s": "s",
    "setup.calls": "count",
    "supervisor.engine_calls": "count",
    "supervisor.self_s": "s",
    "journal.open_s": "s",
    "journal.lookups": "count",
    "journal.lookup_s": "s",
    "journal.decode_s": "s",
    "journal.appends": "count",
    "journal.append_s": "s",
    "journal.bytes_per_record": "B",
    "parallel.rounds": "count",
    "parallel.round_s": "s",
    "parallel.cells_per_round": "count",
    "scalar.cell_s": "s",
    "scalar.decide_calls": "count",
    "scalar.decide_s": "s",
    "scalar.predict_s": "s",
    "scalar.observe_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does."""

    n_seeds: int
    fractions: Sequence[float]
    replay_cells: int
    setup_probes: int


@dataclass
class Measurement:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    summary: dict[str, Any]


def _sizes(harness: Any, workload: Any, tiny: bool) -> Sizes:
    if tiny:
        return Sizes(1, harness.TINY_FRACTIONS, len(harness.TINY_FRACTIONS), 1)
    return Sizes(
        workload.seeds_per_sweep, harness.DEFAULT_FRACTIONS,
        REPLAY_CELLS, SETUP_PROBES,
    )


def _warm_up(harness: Any, workload: Any, first_seed: int, workdir: Path) -> None:
    """One untimed tiny sweep, so imports and first-call costs are paid."""
    specs = workload.grid(
        first_seed + harness.SEED_STRIDE - 1, 1, harness.TINY_FRACTIONS
    )
    sweep = harness.run_sweep(workload, specs, workdir / "warm-up.journal")
    harness.replay(specs, sweep, [0])


def _replay_run(
    harness: Any, grids: Sequence[Any], sweeps: Sequence[Any], count: int,
    traced: Callable[[], ContextManager[Any]] = contextlib.nullcontext,
) -> None:
    """Replay a stratified subsample of the run's cells (untimed)."""
    for k, i in harness.replay_plan(len(sweeps), sweeps[0].cells, count):
        harness.replay(grids[k], sweeps[k], [i], traced)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counts(sweeps: Sequence[Any]) -> tuple[int, int, float, float]:
    attempted = sum(s.cells for s in sweeps)
    failed = sum(len(s.failed) for s in sweeps)
    fallback_frac = _ratio(
        sum(s.fallbacks for s in sweeps), sum(s.executed for s in sweeps)
    )
    return attempted, failed, _ratio(failed, attempted), fallback_frac


def _end_to_end(
    sweeps: Sequence[Any], samples: Sequence[float],
    setup: Sequence[float], setup_scale: float,
) -> dict[str, float]:
    """The timed end-to-end metrics in reference seconds.

    Sweep ``k`` ran between the loop samples ``k`` and ``k + 1``, and
    the loop time in between is taken as linear in time.  So its write
    pass is scaled by the mean of both samples, its read passes (which
    end the sweep) by the one after, and its first append by the loop
    time interpolated at the moment the append returned.
    """
    ref = speed.REFERENCE_S
    before, after = samples[:-1], samples[1:]

    def at_first_append(s: Any, b: float, a: float) -> float:
        return b + (a - b) * s.first_durable_s / (s.write_s + sum(s.read_s))

    return {
        "cells_per_s": sum(s.cells for s in sweeps) / sum(
            s.write_s * speed.scale(b, a) for s, b, a in zip(sweeps, before, after)
        ),
        "first_durable_s": statistics.median(
            s.first_durable_s * ref / at_first_append(s, b, a)
            for s, b, a in zip(sweeps, before, after)
        ),
        "resume_s": statistics.median(
            statistics.median(s.read_s) * ref / a for s, a in zip(sweeps, after)
        ),
        "setup_s": statistics.median(setup) * setup_scale,
    }


def untraced_run(
    harness: Any, workload: Any, first_seed: int, seconds: float,
    workdir: Path, sizes: Sizes,
) -> Measurement:
    # The loop runs slow for a while after a child process (a pool worker
    # or a set-up process) exits, so set-up, which ends the run, is scaled
    # by samples taken before any child ran.
    start_loop_s = statistics.median(speed.sample() for _ in range(3))
    _warm_up(harness, workload, first_seed, workdir)
    grids, sweeps = [], []
    samples = [speed.sample()]
    deadline = time.perf_counter() + seconds
    while not sweeps or time.perf_counter() < deadline:
        k = len(sweeps)
        specs = workload.grid(
            first_seed + k * sizes.n_seeds, sizes.n_seeds, sizes.fractions
        )
        sweep = harness.run_sweep(
            workload, specs, workdir / f"sweep-{k}.journal",
            read_passes=READ_PASSES,
        )
        samples.append(speed.sample())
        grids.append(specs)
        sweeps.append(sweep)
    _replay_run(harness, grids, sweeps, sizes.replay_cells)
    peak_rss = harness.peak_rss_mb()
    setup = [
        harness.measure_setup(workload, first_seed, workdir / f"setup-{k}.journal")
        for k in range(sizes.setup_probes)
    ]
    attempted, failed, failed_frac, fallback_frac = _counts(sweeps)
    # Times are in reference seconds (see speed.py).  Write passes take
    # seconds and are averaged over the run; the first append and the
    # read passes take milliseconds, so medians are the steadier figures
    # for them (see README.md).
    wall = _end_to_end(sweeps, [speed.REFERENCE_S] * len(samples), setup, 1.0)
    metrics = _end_to_end(sweeps, samples, setup, speed.REFERENCE_S / start_loop_s)
    metrics["peak_rss_mb"] = wall["peak_rss_mb"] = peak_rss
    summary = {
        "sweeps": len(sweeps),
        "cells_per_sweep": sweeps[0].cells,
        "setup_probes": len(setup),
        "failed_frac": failed_frac,
        "fallback_frac": fallback_frac,
        "host_slowdown": statistics.median(samples) / speed.REFERENCE_S,
        "wall": wall,
        "per_sweep": [
            {"write_s": s.write_s, "first_durable_s": s.first_durable_s,
             "read_s": s.read_s}
            for s in sweeps
        ],
        "loop_s": samples,
        "start_loop_s": start_loop_s,
        "setup_s": setup,
    }
    return Measurement(metrics, END_TO_END_UNITS, attempted, failed, summary)


def traced_run(
    harness: Any, workload: Any, first_seed: int, seconds: float,
    workdir: Path, sizes: Sizes,
) -> Measurement:
    from layers import SCALAR_PROBES, SWEEP_PROBES, Tracer, installed

    sweep_tracer, scalar_tracer = Tracer(), Tracer()
    _warm_up(harness, workload, first_seed, workdir)
    grids: list[Any] = []
    plain: list[Any] = []
    traced: list[Any] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        k = len(traced)
        specs = workload.grid(
            first_seed + k * sizes.n_seeds, sizes.n_seeds, sizes.fractions
        )
        journal_path = workdir / f"sweep-{k}.journal"
        # Alternate which side runs first so neither gets the warmer cache.
        for tracing in (k % 2 == 1, k % 2 == 0):
            if not tracing:
                plain.append(harness.run_sweep(workload, specs, journal_path))
                continue
            sweep = harness.run_sweep(
                workload, specs, journal_path,
                lambda: installed(sweep_tracer, SWEEP_PROBES),
            )
            traced.append(sweep)
        grids.append(specs)
        # Tracing must not change a single output.
        for i, payload in enumerate(plain[-1].payloads):
            if payload != traced[-1].payloads[i]:
                traced[-1].failed.add(i)
    _replay_run(
        harness, grids, traced, sizes.replay_cells,
        lambda: installed(scalar_tracer, SCALAR_PROBES),
    )

    n = len(traced)
    stat = sweep_tracer.stat
    metrics: dict[str, float] = {}
    for layer in ("energy.profile_predict", "energy.profile_observe", "sched.decide"):
        metrics[f"{layer}_calls"] = stat(layer).calls / n
        metrics[f"{layer}_lanes"] = stat(layer).lanes / n
        metrics[f"{layer}_s"] = stat(layer).seconds / n
    batch, parallel = stat("batch"), stat("parallel")
    setup_layers = ("setup.taskset", "setup.source", "setup.predictor")
    metrics.update({
        "batch.self_s": batch.self_seconds / n,
        "batch.lanes_per_call": _ratio(batch.lanes, batch.calls),
        "batch.fallback_frac": _counts(traced)[3],
        "setup.taskset_s": stat("setup.taskset").seconds / n,
        "setup.source_s": stat("setup.source").seconds / n,
        "setup.calls": sum(stat(name).calls for name in setup_layers) / n,
        "supervisor.engine_calls": (batch.calls + parallel.calls) / n,
        "supervisor.self_s": stat("supervisor").self_seconds / n,
        "journal.open_s": stat("journal.open").seconds / n,
        "journal.lookups": stat("journal.lookup").calls / n,
        "journal.lookup_s": stat("journal.lookup").seconds / n,
        "journal.decode_s": stat("journal.decode").seconds / n,
        "journal.appends": stat("journal.append").calls / n,
        "journal.append_s": stat("journal.append").seconds / n,
        "journal.bytes_per_record": _ratio(
            sum(s.journal_bytes for s in traced),
            sum(s.journal_records for s in traced),
        ),
        "parallel.rounds": parallel.calls / n,
        "parallel.round_s": _ratio(parallel.seconds, parallel.calls),
        "parallel.cells_per_round": _ratio(parallel.lanes, parallel.calls),
    })
    replayed = [t for s in traced for t in s.replay_s]
    scalar = scalar_tracer.stat
    metrics.update({
        "scalar.cell_s": statistics.fmean(replayed),
        "scalar.decide_calls": scalar("scalar.decide").calls / len(replayed),
        "scalar.decide_s": scalar("scalar.decide").seconds / len(replayed),
        "scalar.predict_s": scalar("scalar.predict").seconds / len(replayed),
        "scalar.observe_s": scalar("scalar.observe").seconds / len(replayed),
    })
    traced_wall = [s.write_s + sum(s.read_s) for s in traced]
    metrics["trace.overhead_frac"] = statistics.median(traced_wall) / statistics.median(
        s.write_s + sum(s.read_s) for s in plain
    ) - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - sweep_tracer.outer_seconds() / sum(
        traced_wall
    )
    attempted, failed, failed_frac, fallback_frac = _counts(plain + traced)
    summary = {
        "sweeps": n,
        "cells_per_sweep": traced[0].cells,
        "replayed_cells": len(replayed),
        "failed_frac": failed_frac,
        "fallback_frac": fallback_frac,
    }
    return Measurement(metrics, PER_LAYER_UNITS, attempted, failed, summary)


def _summary_lines(name: str, trace: bool, result: Measurement) -> list[str]:
    info = result.summary
    lines = [
        f"{name}: {info['sweeps']} sweep(s) x {info['cells_per_sweep']} cells, "
        f"trace {'on' if trace else 'off'}"
    ]
    for metric, value in result.metrics.items():
        lines.append(f"  {metric:32} {value:14.6g} {result.units[metric]}")
    for metric, unit in SUMMARY_ONLY_UNITS.items():
        lines.append(f"  {metric:32} {info[metric]:14.6g} {unit}")
    if "wall" in info:
        lines.append(f"  host slowdown {info['host_slowdown']:.3f}x; unscaled:")
        for metric, value in info["wall"].items():
            lines.append(f"    {metric:30} {value:14.6g} {result.units[metric]}")
    return lines


def _parser(workloads: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test grid: 4 cells per sweep, one set-up probe",
    )
    parser.add_argument("--out", help="also write the full record to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--journal", help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    args = _parser(sorted(harness.WORKLOADS)).parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    first_seed = args.seed * harness.SEED_STRIDE
    if args.setup_probe:
        reached = harness.probe_setup(workload, first_seed, Path(args.journal))
        print(json.dumps({"first_call_at": reached}))
        return 0

    from repro.serialization import atomic_write_text

    measure = traced_run if args.trace else untraced_run
    with tempfile.TemporaryDirectory(prefix=".sweepbench-", dir=Path.cwd()) as tmp:
        result = measure(
            harness, workload, first_seed, args.seconds, Path(tmp),
            _sizes(harness, workload, args.tiny),
        )
    # Recorded afterwards: its git child would otherwise count in peak_rss_mb.
    env = harness.environment(ROOT, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    for line in _summary_lines(workload.name, bool(args.trace), result):
        print(line)
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": result.units[name]}
            for name, value in result.metrics.items()
        },
    }
    if args.out:
        record = {
            "workload": workload.name,
            "trace": args.trace,
            "seconds": args.seconds,
            "env": env,
            "summary": result.summary,
            "result": line,
        }
        atomic_write_text(Path(args.out), json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
