"""Command-line interface.

``repro list``
    Show the available experiments and schedulers.
``repro run <experiment>``
    Regenerate one paper figure/table and print it (set ``REPRO_SCALE``
    to raise the replication count).
``repro quick [options]``
    One ad-hoc simulation with printed summary; optional JSON result
    payload, CSV trace and an ASCII Gantt chart of the executed schedule.
``repro feasibility [options]``
    Offline analysis of a generated workload: EDF schedulability, the
    long-run energy balance, and a storage-capacity lower bound.
``repro verify [options]``
    Differential sweep of the ``repro.verify`` oracle battery over N
    seeded random scenarios; exits non-zero on any discrepancy.
``repro lint [paths]``
    Domain-aware static analysis (determinism, API-contract,
    float-doctrine and commit-path rules); exits non-zero on any
    finding or leftover suppression.
``repro sweep [options]``
    Resumable grid sweep through the crash-consistent runtime
    (:mod:`repro.runtime`): with ``--journal PATH`` every finished cell
    is durably checkpointed and already-journaled cells are skipped, so
    a killed sweep reruns to the identical result set.
``repro journal inspect|export PATH``
    Examine a result journal (record counts, torn-tail recovery) or
    export its result set as exact JSON (the format of ``sweep --export``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments import EXPERIMENTS, run_experiment, scale_factor
from repro.experiments.common import PaperSetup
from repro.sched.registry import available_schedulers
from repro.sim.simulator import SimulationConfig
from repro.sim.tracing import TraceKind

__all__ = ["main", "build_parser"]

_PREDICTOR_CHOICES = ("profile", "oracle", "mean", "last-value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Energy Aware Dynamic Voltage and Frequency "
            "Selection for Real-Time Systems with Energy Harvesting' "
            "(DATE 2008)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and schedulers")

    run = sub.add_parser("run", help="regenerate a paper figure/table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))

    quick = sub.add_parser("quick", help="run one ad-hoc simulation")
    quick.add_argument(
        "--scheduler", default="ea-dvfs", choices=available_schedulers()
    )
    quick.add_argument("--utilization", type=float, default=0.4)
    quick.add_argument("--capacity", type=float, default=200.0)
    quick.add_argument("--seed", type=int, default=0)
    quick.add_argument("--horizon", type=float, default=10_000.0)
    quick.add_argument(
        "--predictor", default="profile", choices=_PREDICTOR_CHOICES
    )
    quick.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the result payload (the journal's result schema) "
        "as JSON",
    )
    quick.add_argument(
        "--trace-csv", metavar="PATH", default=None,
        help="write the recorded trace as CSV (implies tracing)",
    )
    quick.add_argument(
        "--gantt", action="store_true",
        help="print an ASCII Gantt chart of the executed schedule "
        "(best for short horizons)",
    )
    quick.add_argument(
        "--gantt-until", type=float, default=None,
        help="right edge of the Gantt window (default: the horizon)",
    )

    feas = sub.add_parser(
        "feasibility", help="offline schedulability / energy analysis"
    )
    feas.add_argument("--utilization", type=float, default=0.4)
    feas.add_argument("--seed", type=int, default=0)
    feas.add_argument("--n-tasks", type=int, default=5)
    feas.add_argument("--deficit-horizon", type=float, default=10_000.0)

    verify = sub.add_parser(
        "verify",
        help="differential-test the schedulers against analytic oracles",
    )
    verify.add_argument(
        "--n", type=int, default=100,
        help="number of random scenarios to check (default 100)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="base seed; scenario i uses seed+i (default 0)",
    )
    verify.add_argument(
        "--no-faults", action="store_true",
        help="restrict the sweep to fault-free scenarios",
    )
    verify.add_argument(
        "--quiet", action="store_true",
        help="suppress the live progress counter",
    )
    verify.add_argument(
        "--batch", action="store_true",
        help="differentially check the vectorized batch engine against "
        "the scalar simulator instead of the oracle battery",
    )

    lint = sub.add_parser(
        "lint",
        help="domain-aware static analysis of the source tree",
    )
    lint.add_argument(
        "paths", nargs="*",
        default=["src", "benchmarks", "examples", "tests"],
        help="files/directories to lint "
        "(default: src benchmarks examples tests)",
    )
    lint.add_argument(
        "--format", dest="output_format", default="text",
        choices=("text", "json"),
        help="diagnostic output format (default text)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rule codes and exit",
    )

    sweep = sub.add_parser(
        "sweep",
        help="resumable grid sweep with durable result journaling",
    )
    sweep.add_argument(
        "--scheduler", action="append", default=None,
        choices=available_schedulers(), dest="schedulers",
        help="scheduler(s) to sweep (repeatable; default: lsa, ea-dvfs)",
    )
    sweep.add_argument("--utilization", type=float, default=0.4)
    sweep.add_argument(
        "--capacities", default="50,100,200",
        help="comma-separated storage capacities (default 50,100,200)",
    )
    sweep.add_argument(
        "--seeds", type=int, default=4,
        help="task-set seeds per cell: 0..N-1 (default 4)",
    )
    sweep.add_argument(
        "--horizon", type=float, default=10_000.0,
        help="simulation horizon per cell (default 10000)",
    )
    sweep.add_argument(
        "--journal", metavar="PATH", default=None,
        help="journal file for checkpoint/resume (default: $REPRO_JOURNAL)",
    )
    sweep.add_argument(
        "--export", metavar="PATH", default=None,
        help="write the result set as exact JSON, the same bytes as "
        "'repro journal export' of the sweep's journal",
    )
    sweep.add_argument(
        "--workers", type=int, default=None,
        help="scalar-engine worker processes, all on one pool that streams "
        "cells (default: 1, serial and in-process)",
    )
    sweep.add_argument(
        "--engine", default=None, choices=("scalar", "batch"),
        help="execution engine: scalar event simulator or the vectorized "
        "batch core; cells the core does not cover run afterwards on the "
        "scalar workers with --timeout and --retries (default: "
        "$REPRO_ENGINE or scalar)",
    )
    sweep.add_argument(
        "--predictor", default="profile", choices=_PREDICTOR_CHOICES,
        help="harvest predictor (default profile; every kind is "
        "vectorized, so the batch engine never falls back on it)",
    )
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell timeout in seconds (pooled runs only)",
    )
    sweep.add_argument("--retries", type=int, default=1)
    sweep.add_argument("--backoff", type=float, default=0.5)
    sweep.add_argument(
        "--jitter", type=float, default=0.1,
        help="relative seeded backoff jitter (default 0.1)",
    )
    sweep.add_argument(
        "--retry-seed", type=int, default=0,
        help="seed of the retry schedule (backoff jitter + ordering)",
    )
    sweep.add_argument(
        "--quarantine-after", type=int, default=3,
        help="cumulative attempts before a cell is quarantined (default 3)",
    )
    sweep.add_argument(
        "--max-wall-clock", type=float, default=None,
        help="stop launching new batches after this many seconds; "
        "finished cells stay journaled",
    )
    sweep.add_argument(
        "--max-rss-mb", type=float, default=None,
        help="stop launching new batches once RSS exceeds this (MiB)",
    )
    sweep.add_argument(
        "--chaos-kill-record", type=int, default=None,
        help="CHAOS HARNESS: SIGKILL this process at the Nth journal "
        "append (requires --journal)",
    )
    sweep.add_argument(
        "--chaos-kill-mode", default="before",
        choices=("before", "torn", "after"),
        help="CHAOS HARNESS: kill before the record, after half of it "
        "(torn write), or after the full record (default before)",
    )

    journal = sub.add_parser(
        "journal", help="inspect or export a sweep result journal"
    )
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    inspect = journal_sub.add_parser(
        "inspect", help="print record counts and recovery info"
    )
    inspect.add_argument("path")
    inspect.add_argument(
        "--keys", action="store_true",
        help="also list every journaled key",
    )
    export = journal_sub.add_parser(
        "export", help="dump the journal's result set as exact JSON"
    )
    export.add_argument("path")
    export.add_argument(
        "--out", metavar="PATH", default=None,
        help="write to a file (atomic) instead of stdout",
    )
    return parser


@dataclass(frozen=True)
class _ScheduleTracedSetup(PaperSetup):
    """The paper setup with the job schedule traced, for ``repro quick
    --gantt``/``--trace-csv``; tracing changes no simulated number."""

    def config(
        self, seed: int, energy_sample_interval: Optional[float] = None
    ) -> SimulationConfig:
        return dataclasses.replace(
            super().config(seed, energy_sample_interval),
            trace_kinds=(
                TraceKind.JOB_START,
                TraceKind.JOB_PREEMPT,
                TraceKind.JOB_COMPLETE,
                TraceKind.JOB_MISS,
                TraceKind.FREQ_CHANGE,
                TraceKind.STALL,
            ),
        )


def _cmd_list() -> int:
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    print("schedulers:")
    for name in available_schedulers():
        print(f"  {name}")
    print(f"replication scale (REPRO_SCALE): {scale_factor():g}")
    return 0


def _cmd_run(experiment: str) -> int:
    started = time.perf_counter()
    result = run_experiment(experiment)
    elapsed = time.perf_counter() - started
    print(result.format_text())
    print(f"[{experiment} completed in {elapsed:.1f}s at scale "
          f"{scale_factor():g}]")
    return 0


def _cmd_quick(args: argparse.Namespace) -> int:
    setup_type = (
        _ScheduleTracedSetup
        if args.gantt or args.trace_csv is not None
        else PaperSetup
    )
    setup = setup_type(horizon=args.horizon, predictor_kind=args.predictor)
    result = setup.run(
        scheduler_name=args.scheduler,
        utilization=args.utilization,
        capacity=args.capacity,
        seed=args.seed,
    )
    print(result.summary())

    if args.gantt:
        from repro.sim.schedule_view import render_gantt

        until = args.gantt_until if args.gantt_until else args.horizon
        print()
        print(render_gantt(result.trace, t0=0.0, t1=until))
    if args.json:
        import json

        from repro.runtime.journal import result_to_payload
        from repro.serialization import atomic_write_text

        atomic_write_text(
            args.json, json.dumps(result_to_payload(result), indent=2) + "\n"
        )
        print(f"result written to {args.json}")
    if args.trace_csv:
        from repro.serialization import trace_to_csv

        rows = trace_to_csv(result.trace, args.trace_csv)
        print(f"{rows} trace records written to {args.trace_csv}")
    return 0


def _cmd_feasibility(args: argparse.Namespace) -> int:
    from repro.analysis.schedulability import (
        edf_schedulable,
        energy_feasibility,
        max_energy_deficit,
    )

    setup = PaperSetup()
    scale = setup.scale()
    source = setup.source(args.seed)
    taskset = PaperSetup(n_tasks=args.n_tasks).taskset(
        args.seed, args.utilization
    )

    print(f"workload: {taskset}")
    for task in taskset:
        print(
            f"  {task.name}: period={task.period:g} "
            f"wcet={task.wcet:.3f} (u={task.utilization:.3f})"
        )
    print(f"\nEDF schedulable (timing): {edf_schedulable(taskset)}")

    fx = energy_feasibility(taskset, source, scale)
    print(
        f"energy balance: harvest mean {fx.mean_harvest_power:.3f}, "
        f"full-speed demand {fx.full_speed_demand:.3f}, "
        f"stretched lower bound {fx.min_demand:.3f}"
    )
    print(f"  sustainable at full speed: {fx.feasible_at_full_speed}")
    print(f"  sustainable with DVFS:     {fx.feasible_with_dvfs}")

    deficit = max_energy_deficit(
        source, fx.full_speed_demand, args.deficit_horizon
    )
    print(
        f"storage lower bound (max harvest deficit at full-speed demand "
        f"over {args.deficit_horizon:g} units): {deficit:.1f}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import run_differential
    from repro.verify.batch_equivalence import run_batch_equivalence

    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        print(f"\rscenario {done}/{total}", end="", file=sys.stderr,
              flush=True)
        if done == total:
            print(file=sys.stderr)

    battery = run_batch_equivalence if args.batch else run_differential
    started = time.perf_counter()
    report = battery(
        n=args.n,
        seed=args.seed,
        allow_faults=not args.no_faults,
        progress=None if args.quiet else progress,
    )
    elapsed = time.perf_counter() - started
    print(report.format_text())
    print(f"[verify completed in {elapsed:.1f}s]")
    return 0 if report.ok else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    # Exit-code contract matches `repro verify`: 0 clean, 1 findings,
    # 2 internal/usage errors.
    from repro.lint import LintError, all_rules, lint_paths

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name}")
            print(f"        {rule.description}")
        return 0
    try:
        report = lint_paths(args.paths)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    import os

    from repro.analysis.parallel import RunFailure, RunSpec
    from repro.runtime import (
        ResultJournal,
        SupervisorPolicy,
        run_supervised,
    )
    from repro.runtime.sweep import JOURNAL_ENV, engine_from_env

    try:
        capacities = [float(c) for c in args.capacities.split(",") if c]
    except ValueError:
        print(f"error: bad --capacities {args.capacities!r}", file=sys.stderr)
        return 2
    if not capacities or args.seeds < 1:
        print("error: need at least one capacity and one seed",
              file=sys.stderr)
        return 2
    schedulers = tuple(args.schedulers or ("lsa", "ea-dvfs"))
    setup = PaperSetup(horizon=args.horizon, predictor_kind=args.predictor)
    specs = [
        RunSpec(
            scheduler_name=name,
            utilization=args.utilization,
            capacity=capacity,
            seed=seed,
            setup=setup,
        )
        for capacity in capacities
        for name in schedulers
        for seed in range(args.seeds)
    ]

    journal_path = args.journal or os.environ.get(JOURNAL_ENV)
    if args.chaos_kill_record is not None and journal_path is None:
        print("error: --chaos-kill-record requires --journal",
              file=sys.stderr)
        return 2
    journal = None
    if journal_path is not None:
        if args.chaos_kill_record is not None:
            from repro.faults.chaos import ChaosJournal

            journal = ChaosJournal(
                journal_path,
                kill_record=args.chaos_kill_record,
                kill_mode=args.chaos_kill_mode,
            )
        else:
            journal = ResultJournal(journal_path)

    try:
        policy = SupervisorPolicy(
            timeout=args.timeout,
            retries=args.retries,
            backoff=args.backoff,
            jitter=args.jitter,
            seed=args.retry_seed,
            quarantine_after=args.quarantine_after,
            max_wall_clock=args.max_wall_clock,
            max_rss_mb=args.max_rss_mb,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        engine = args.engine or engine_from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_supervised(
            specs,
            policy=policy,
            journal=journal,
            max_workers=args.workers,
            engine=engine,
        )
    finally:
        if journal is not None:
            journal.close()
    print(report.format_text())

    if args.export:
        from repro.runtime.journal import (
            export_json,
            failure_to_payload,
            journal_keys,
            result_to_payload,
        )
        from repro.serialization import atomic_write_text

        document = {}
        for key, outcome in zip(journal_keys(specs), report.outcomes):
            if outcome is None:
                continue
            if isinstance(outcome, RunFailure):
                document[key.text()] = {
                    "kind": "failure", "payload": failure_to_payload(outcome),
                }
            else:
                document[key.text()] = {
                    "kind": "result", "payload": result_to_payload(outcome),
                }
        atomic_write_text(args.export, export_json(document))
        print(f"result set written to {args.export}")
    return 0 if report.ok else 1


def _cmd_journal(args: argparse.Namespace) -> int:
    from repro.runtime import JournalError, ResultJournal
    from repro.runtime.journal import export_json
    from repro.serialization import atomic_write_text

    try:
        journal = ResultJournal(args.path, create=False)
    except (JournalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.journal_command == "inspect":
            print(journal.info().format_text())
            if args.keys:
                for record in journal.records():
                    key = record["key"]
                    print(
                        f"  [{record['kind']:7s}] {key['spec_hash'][:16]}… "
                        f"{key['scheduler_name']} e{key['engine_version']}"
                    )
            return 0
        text = export_json(journal.to_canonical())
        if args.out:
            atomic_write_text(args.out, text)
            print(f"exported {len(journal)} record(s) to {args.out}")
        else:
            print(text, end="")
        return 0
    finally:
        journal.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment)
    if args.command == "quick":
        return _cmd_quick(args)
    if args.command == "feasibility":
        return _cmd_feasibility(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "journal":
        return _cmd_journal(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
