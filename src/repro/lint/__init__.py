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
RPR401     no nondeterministic-order float reductions in doctrine modules
RPR402     no SIMD-divergent ufuncs (``np.power`` etc.) in doctrine modules
RPR403     no silent int→float dtype promotion in doctrine modules
RPR404     sorts on float arrays must request a stable kind
RPR405     doctrine kernels must not mutate caller-owned input arrays
RPR410     scalar↔batch parity: twin missing or float-ops drifted from pin
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

The float-determinism family (RPR4xx, :mod:`repro.lint.rules_numpy`)
enforces the bit-exact vectorization doctrine, but only in modules that
opt in with a ``# repro: float-doctrine`` comment line; an array-kind
facet (:mod:`repro.lint.dataflow`) tracks which expressions are float
arrays so the rules stay quiet elsewhere.  The parity checker
(:mod:`repro.lint.parity`) pins the float-operation fingerprint of each
scalar decision function and its vectorized twin and raises RPR410 when
either side drifts from its pin.

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

from repro.lint.dataflow import ArrayKind, ModuleArrays, analyze_arrays
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
    "PAIRS",
    "ArrayKind",
    "CallGraph",
    "Diagnostic",
    "FunctionRef",
    "LintError",
    "LintReport",
    "ModuleArrays",
    "ParityPair",
    "PurityAnalysis",
    "PurityClass",
    "Rule",
    "Taint",
    "all_rules",
    "analyze_arrays",
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

#: Names served lazily from :mod:`repro.lint.parity`.  Importing that
#: module here would put it in ``sys.modules`` before
#: ``python -m repro.lint.parity`` runs it as ``__main__``, which makes
#: runpy warn about a module executed twice.
_PARITY_NAMES = frozenset({"PAIRS", "FunctionRef", "ParityPair"})


def __getattr__(name: str) -> object:
    if name in _PARITY_NAMES:
        from repro.lint import parity

        return getattr(parity, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
