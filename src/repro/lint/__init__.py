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
RPR506     file writes use the atomic write-temp/fsync/rename protocol
RPR507     no ``os.replace``/``os.rename`` without fsyncing the payload
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

The commit-path rules (RPR506/507, :mod:`repro.lint.rules_commit`)
hold every result, journal and export writer to the write-temp/fsync/
rename protocol, which no test can check for a writer added later.
Cache-key purity is proved by tests instead: the pinned key bytes, the
kill-resume exports and the tripwire test that runs the hash-closure
roots with every clock, global RNG, environment read and ``open``
patched to raise (``tests/runtime/test_journal_keys.py``).

Suppress a finding with an inline ``# repro-lint: disable=RPR001`` (or
``disable-file=`` for the whole file), ideally followed by a short
``-- why`` note.  A run fails on any finding and on any suppression that
matches no finding; CI requires both to be zero over the default tree.
"""

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

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "load_modules",
    "register_rule",
]
