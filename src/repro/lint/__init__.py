"""Domain-aware static analysis for the EA-DVFS reproduction.

``repro lint`` runs AST-based checks that encode the conventions the
simulation's correctness rests on (see ``docs/static-analysis.md``):

=========  ==============================================================
code       rule
=========  ==============================================================
RPR001     no stdlib ``random`` (hidden global state)
RPR002     no wall-clock reads feeding simulated results
RPR003     ``np.random.default_rng`` needs an explicit seed
RPR004     no hash-ordered set iteration
RPR301     Scheduler subclasses override ``decide`` and declare ``name``
RPR302     schedulers must be reachable via ``sched/registry.py``
RPR303     frozen ``ScenarioSpec`` is never mutated
RPR402     no SIMD-divergent ufuncs (``np.power`` etc.) in doctrine modules
RPR501     no wall-clock read reachable from a hash-closure root
RPR502     no unseeded/global randomness reachable from a hash-closure root
RPR503     no env/filesystem access reachable from a hash-closure root
RPR504     no set-order-dependent iteration reachable from a hash-closure root
RPR505     no id()/hash()/locale or global mutation in the hash closure
RPR506     file writes use the atomic write-temp/fsync/rename protocol
RPR507     no ``os.replace``/``os.rename`` without fsyncing the payload
RPR508     worker-submitted functions must not mutate module-global state
RPR509     worker-submitted functions must not use an import-time RNG
RPR901     (engine) file failed to parse
RPR902     (engine) suppression names an unknown rule code
RPR903     (engine) suppression matches no finding (stale)
=========  ==============================================================

The determinism family (RPR00x) is relaxed under ``tests/``.

The bit-exact vectorization doctrine is proved by tests (the kernel
bit-equality properties, engine parity, the pinned digests and
``repro verify --batch``).  RPR402 (:mod:`repro.lint.rules_numpy`)
guards the one part those tests can only prove on the CPU they run on:
in modules that opt in with a ``# repro: float-doctrine`` comment line,
it flags numpy ufuncs whose SIMD kernels diverge from libm on some CPUs.

The purity family (RPR5xx, :mod:`repro.lint.rules_purity`) is
*interprocedural*: a cross-module call graph
(:mod:`repro.lint.callgraph`) plus a fixed-point taint analysis
(:mod:`repro.lint.purity`) certify the determinism boundaries declared
in ``purity-roots.toml`` — the ``canonical_json``/``spec_hash`` hash
closure, the atomic-commit write path, and the worker process boundary.
``repro lint --certify`` prints the certification report and
``repro lint --explain-path RPR501:<func>`` shows the call chain from a
root to a flagged taint.

Suppress a finding with an inline ``# repro-lint: disable=RPR001`` (or
``disable-file=`` for the whole file), ideally followed by a short
``-- why`` note.  A run fails on any finding and on any suppression that
matches no finding; CI requires both to be zero over the default tree.
"""

from repro.lint.callgraph import CallGraph, build_call_graph
from repro.lint.engine import (
    Diagnostic,
    LintError,
    LintReport,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    load_modules,
    register_rule,
)
from repro.lint.purity import (
    PurityAnalysis,
    PurityClass,
    Taint,
    analyze as analyze_purity,
    certify,
    load_manifest,
    parse_manifest,
)

__all__ = [
    "CallGraph",
    "Diagnostic",
    "LintError",
    "LintReport",
    "PurityAnalysis",
    "PurityClass",
    "Rule",
    "Taint",
    "all_rules",
    "analyze_purity",
    "build_call_graph",
    "certify",
    "lint_paths",
    "lint_source",
    "load_manifest",
    "load_modules",
    "parse_manifest",
    "register_rule",
]
