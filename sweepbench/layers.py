"""Per-layer tracing for the sweep benchmark.

Spans are recorded around calls *into* each layer's functions by
temporarily replacing module or class attributes with timing wrappers;
nothing inside ``src/`` is edited.  :func:`installed` swaps the wrappers
in and always restores the original objects, so an untraced run never
sees them.

A span's *self* time is its duration minus the time covered by spans
opened while it was running (its children), e.g. ``batch.self_s`` is the
time ``execute_runspecs`` spent outside the decision kernels, predictor
kernels and lane-input calls.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

import repro.runtime.supervisor as supervisor_module
import repro.sim.batch as batch_module
from repro.core.ea_dvfs import EaDvfsScheduler
from repro.energy.predictor import HarvestPredictor, OraclePredictor, ProfilePredictor
from repro.experiments.common import PaperSetup
from repro.runtime.journal import ResultJournal
from repro.sched.lsa import LazyScheduler

LanesOf = Callable[[tuple, dict], int]


def _first_arg_len(args: tuple, kwargs: dict) -> int:
    """Lane count of a kernel or engine call: the length of argument 0."""
    return len(args[0])


@dataclass
class LayerStat:
    """Accumulated spans of one layer name."""

    calls: int = 0
    lanes: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attr`` is timed under ``name``."""

    owner: Any
    attr: str
    name: str
    lanes_of: Optional[LanesOf] = None


class Tracer:
    """In-memory span accumulator shared by every installed wrapper."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = {}
        self._children: list[float] = []

    def stat(self, name: str) -> LayerStat:
        """The stats of ``name`` (all zero when the layer never ran)."""
        return self.stats.get(name, LayerStat())

    def wrap(self, probe: Probe, fn: Callable[..., Any]) -> Callable[..., Any]:
        stat = self.stats.setdefault(probe.name, LayerStat())
        children = self._children
        lanes_of = probe.lanes_of
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = children.pop()
                if children:
                    children[-1] += elapsed
                stat.calls += 1
                stat.seconds += elapsed
                stat.self_seconds += elapsed - covered
                if lanes_of is not None:
                    stat.lanes += lanes_of(args, kwargs)

        return traced

    def outer_seconds(self) -> float:
        """Time covered by spans: the sum of every span's self time."""
        return sum(stat.self_seconds for stat in self.stats.values())


@contextlib.contextmanager
def installed(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[Tracer]:
    """Wrap every probe's attribute for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, tracer.wrap(probe, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: Layers a supervised sweep passes through, wrapped around the timed
#: write and read passes.  The supervisor resolves ``execute_runspecs``
#: from :mod:`repro.sim.batch` at call time and the batch core resolves
#: its kernels from its own module globals, so wrapping those module
#: attributes catches every call.
SWEEP_PROBES: tuple[Probe, ...] = (
    Probe(supervisor_module, "run_supervised", "supervisor"),
    Probe(supervisor_module, "run_parallel_salvage", "parallel", _first_arg_len),
    Probe(supervisor_module, "result_from_payload", "journal.decode"),
    Probe(batch_module, "execute_runspecs", "batch", _first_arg_len),
    Probe(batch_module, "batch_decide", "sched.decide", _first_arg_len),
    Probe(batch_module, "batch_profile_predict", "energy.profile_predict", _first_arg_len),
    Probe(batch_module, "batch_profile_observe", "energy.profile_observe", _first_arg_len),
    Probe(PaperSetup, "taskset", "setup.taskset"),
    Probe(PaperSetup, "source", "setup.source"),
    Probe(PaperSetup, "predictor", "setup.predictor"),
    Probe(ResultJournal, "__init__", "journal.open"),
    Probe(ResultJournal, "get", "journal.lookup"),
    Probe(ResultJournal, "append", "journal.append"),
)

#: Scalar-engine layers, wrapped around the in-process replay (pool
#: workers are separate processes and out of the tracer's reach).
SCALAR_PROBES: tuple[Probe, ...] = (
    Probe(LazyScheduler, "decide", "scalar.decide"),
    Probe(EaDvfsScheduler, "decide", "scalar.decide"),
    Probe(ProfilePredictor, "predict_energy", "scalar.predict"),
    Probe(OraclePredictor, "predict_energy", "scalar.predict"),
    Probe(ProfilePredictor, "observe", "scalar.observe"),
    Probe(HarvestPredictor, "observe", "scalar.observe"),
)
