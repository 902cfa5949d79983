"""Purity & cache-boundary rules (RPR501–509).

Three boundaries declared in ``purity-roots.toml`` (see
:mod:`repro.lint.purity`):

* **Hash closure** (RPR501–505, one code per taint kind): every function
  reachable from a ``[hash-closure] roots`` entry must be free of
  wall-clock reads, unseeded randomness, environment/filesystem access,
  unordered set iteration, and identity/locale/global-mutation effects.
  A taint anywhere in the closure silently poisons
  ``(spec_hash, scheduler, engine_version)`` cache keys.
* **Commit-path discipline** (RPR506–507, per-module): result/journal
  files must go through the write-temp/fsync/rename protocol of
  ``atomic_write_text``.  RPR506 flags bare write-mode ``open`` /
  ``Path.write_text`` sites; RPR507 flags ``os.replace``/``os.rename``
  in functions that never fsync the data first.
* **Worker boundary** (RPR508–509): functions submitted to process
  pools must not mutate module-global state (each worker mutates its
  own copy — results silently diverge from serial runs) nor draw from a
  module-level RNG captured at import time (every forked worker
  inherits the same stream).

All closure rules stay silent for roots that do not resolve in the
current module set: a partial ``repro lint src/repro/lint`` run is
indistinguishable from a typo here, so unresolved roots are owned by
``repro lint --certify``, which fails unless every root resolves and
certifies.

The whole-program analysis is built once per engine run and shared by
every rule in this family (see :data:`ANALYSIS_BUILDS`, pinned by the
selfhost test).
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.engine import (
    Diagnostic,
    ModuleContext,
    ProjectRule,
    Rule,
    register_rule,
)
from repro.lint.purity import (
    PurityAnalysis,
    PurityManifest,
    Taint,
    _local_names,
    analyze,
    load_manifest,
    ref_matches,
)

__all__ = [
    "ANALYSIS_BUILDS",
    "AtomicWriteRule",
    "HashClosureRule",
    "RenameWithoutFsyncRule",
    "WorkerCapturedRngRule",
    "WorkerGlobalMutationRule",
    "shared_analysis",
]

#: Number of whole-program analyses built since import — the selfhost
#: test asserts one lint run costs exactly one build (the five closure
#: rules and both worker rules all share it).
ANALYSIS_BUILDS = 0

_CACHE: dict[
    tuple[int, ...], tuple[tuple[ModuleContext, ...], PurityAnalysis]
] = {}


def shared_analysis(modules: Sequence[ModuleContext]) -> PurityAnalysis:
    """One :func:`repro.lint.purity.analyze` per module set.

    Keyed by the identity of the context objects: within one engine run
    every project rule receives the same list, so the fixed point is
    computed once.  Only the latest entry is retained (a fresh run
    means fresh contexts).  The entry holds its contexts, so no later
    run's contexts can reuse their ids and be served a stale analysis.
    """
    global ANALYSIS_BUILDS
    key = tuple(id(ctx) for ctx in modules)
    entry = _CACHE.get(key)
    if entry is None:
        ANALYSIS_BUILDS += 1
        entry = (tuple(modules), analyze(modules))
        _CACHE.clear()
        _CACHE[key] = entry
    return entry[1]


def _manifest_for(
    modules: Sequence[ModuleContext],
) -> PurityManifest | None:
    if not modules:
        return None
    return load_manifest(modules[0].path)


class HashClosureRule(ProjectRule):
    """Base for RPR501–505: taint reachable from a hash-closure root."""

    run_on_tests = False
    #: Taint kinds this code owns (:data:`TAINT_CODES` is the inverse).
    taints: frozenset[Taint] = frozenset()

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Diagnostic]:
        manifest = _manifest_for(modules)
        if manifest is None or not manifest.hash_closure_roots:
            return
        analysis = shared_analysis(modules)
        for ref in manifest.hash_closure_roots:
            key = analysis.graph.resolve_ref(ref)
            if key is None:
                continue  # --certify owns unresolved roots
            for member in sorted(analysis.graph.reachable([key])):
                node = analysis.graph.nodes[member]
                for site in analysis.direct.get(member, ()):
                    if site.taint not in self.taints:
                        continue
                    yield Diagnostic(
                        path=node.display_path,
                        line=site.lineno,
                        col=site.col,
                        code=self.code,
                        message=(
                            f"hash-closure root `{ref}` reaches "
                            f"{site.detail} in `{node.qualname}`; a "
                            "nondeterministic hash closure poisons "
                            "cache keys — inspect with `repro lint "
                            f"--explain-path {self.code}:{ref}`"
                        ),
                    )


class WallClockInHashClosureRule(HashClosureRule):
    code = "RPR501"
    name = "hash-closure-wall-clock"
    description = (
        "wall-clock read reachable from a canonical-hash root "
        "(purity-roots.toml [hash-closure])"
    )
    taints = frozenset({Taint.WALL_CLOCK})


class RandomnessInHashClosureRule(HashClosureRule):
    code = "RPR502"
    name = "hash-closure-randomness"
    description = (
        "unseeded/global-state randomness reachable from a "
        "canonical-hash root"
    )
    taints = frozenset({Taint.RANDOMNESS})


class EnvReadInHashClosureRule(HashClosureRule):
    code = "RPR503"
    name = "hash-closure-env-filesystem"
    description = (
        "environment or filesystem access reachable from a "
        "canonical-hash root"
    )
    taints = frozenset({Taint.ENV_FILESYSTEM})


class UnorderedInHashClosureRule(HashClosureRule):
    code = "RPR504"
    name = "hash-closure-unordered"
    description = (
        "set-order-dependent iteration reachable from a "
        "canonical-hash root"
    )
    taints = frozenset({Taint.UNORDERED})


class IdentityInHashClosureRule(HashClosureRule):
    code = "RPR505"
    name = "hash-closure-identity-global"
    description = (
        "id()/hash()/locale formatting or module-global mutation "
        "reachable from a canonical-hash root"
    )
    taints = frozenset({Taint.IDENTITY, Taint.GLOBAL_MUTATION})


# ---------------------------------------------------------------------------
# RPR506/507: commit-path write discipline (per-module)
# ---------------------------------------------------------------------------

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _open_write_mode(node: ast.Call) -> str | None:
    """The write-ish mode string of an ``open(...)`` call, if any."""
    func = node.func
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return None
    mode: ast.expr | None = None
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return None  # default "r", or dynamic — stay conservative
    if any(ch in mode.value for ch in "wax"):
        return mode.value
    return None


def _write_method(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _WRITE_METHODS:
        return func.attr
    return None


def _rename_call(node: ast.Call) -> str | None:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "os"
        and func.attr in ("replace", "rename")
    ):
        return f"os.{func.attr}"
    return None


def _calls_fsync(nodes: Sequence[ast.stmt]) -> bool:
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fsync"
            ):
                return True
    return False


def _iter_scopes(
    tree: ast.Module,
) -> Iterator[tuple[str, Sequence[ast.stmt]]]:
    """``(qualname, body)`` for the module scope and every function.

    Nested function bodies are excluded from the enclosing scope's body
    view — fsync discipline is judged per function.
    """

    def walk(
        body: Sequence[ast.stmt], prefix: str
    ) -> Iterator[tuple[str, Sequence[ast.stmt]]]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{stmt.name}"
                yield (qualname, stmt.body)
                yield from walk(stmt.body, f"{qualname}.")
            elif isinstance(stmt, ast.ClassDef):
                yield from walk(stmt.body, f"{prefix}{stmt.name}.")
            else:
                for inner in ast.walk(stmt):
                    if isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        qualname = f"{prefix}{inner.name}"
                        yield (qualname, inner.body)
                        yield from walk(inner.body, f"{qualname}.")

    yield ("<module>", tree.body)
    yield from walk(tree.body, "")


def _scope_statements(
    body: Sequence[ast.stmt],
) -> Iterator[ast.AST]:
    """Every node of a scope body, skipping nested def/class bodies."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue  # separate scope, visited by _iter_scopes
        yield node
        stack.extend(ast.iter_child_nodes(node))


class AtomicWriteRule(Rule):
    code = "RPR506"
    name = "non-atomic-write"
    description = (
        "bare write-mode open()/write_text() can tear on crash; use "
        "atomic_write_text or allow-list in purity-roots.toml"
    )
    run_on_tests = False

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        manifest = load_manifest(ctx.path)
        allow = manifest.atomic_allow if manifest is not None else ()
        for qualname, body in _iter_scopes(ctx.tree):
            candidates: list[tuple[ast.Call, str]] = []
            for node in _scope_statements(body):
                if not isinstance(node, ast.Call):
                    continue
                mode = _open_write_mode(node)
                method = _write_method(node)
                if mode is None and method is None:
                    continue
                spelled = (
                    f"open(..., {mode!r})"
                    if mode is not None
                    else f".{method}(...)"
                )
                candidates.append((node, spelled))
            if not candidates:
                continue
            if any(
                ref_matches(ref, ctx.display_path, qualname)
                for ref in allow
            ):
                continue
            # A function that fsyncs is implementing the atomic
            # protocol itself (atomic_write_text, the journal) — the
            # whole scope is exempt rather than guessing which write
            # the fsync covers.
            if qualname != "<module>" and _calls_fsync(body):
                continue
            for node, spelled in candidates:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"non-atomic write {spelled} in `{qualname}` can "
                    "leave a torn file after a crash; build the "
                    "payload in memory and call atomic_write_text, or "
                    "allow-list the function under [atomic-writers] "
                    "in purity-roots.toml with a justification",
                )


class RenameWithoutFsyncRule(Rule):
    code = "RPR507"
    name = "rename-without-fsync"
    description = (
        "os.replace/os.rename without an fsync of the payload first "
        "can commit a rename before the data is durable"
    )
    run_on_tests = False

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        manifest = load_manifest(ctx.path)
        allow = manifest.atomic_allow if manifest is not None else ()
        for qualname, body in _iter_scopes(ctx.tree):
            renames = [
                (node, spelled)
                for node in _scope_statements(body)
                if isinstance(node, ast.Call)
                and (spelled := _rename_call(node)) is not None
            ]
            if not renames:
                continue
            if any(
                ref_matches(ref, ctx.display_path, qualname)
                for ref in allow
            ):
                continue
            if _calls_fsync(body):
                continue
            for node, spelled in renames:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"`{spelled}` in `{qualname}` renames without an "
                    "fsync of the payload — on power loss the rename "
                    "can be durable while the data is not; fsync the "
                    "temporary file first (see atomic_write_text)",
                )


# ---------------------------------------------------------------------------
# RPR508/509: worker-boundary safety
# ---------------------------------------------------------------------------


def _worker_keys(
    analysis: PurityAnalysis, manifest: PurityManifest | None
) -> list[str]:
    keys = set(analysis.graph.submitted)
    if manifest is not None:
        for ref in manifest.worker_functions:
            resolved = analysis.graph.resolve_ref(ref)
            if resolved is not None:
                keys.add(resolved)
    return sorted(keys)


def _same_module_closure(
    analysis: PurityAnalysis, worker_key: str
) -> list[str]:
    display = analysis.graph.nodes[worker_key].display_path
    return sorted(
        key
        for key in analysis.graph.reachable([worker_key])
        if analysis.graph.nodes[key].display_path == display
    )


class WorkerGlobalMutationRule(ProjectRule):
    code = "RPR508"
    name = "worker-global-mutation"
    description = (
        "function submitted to a worker pool mutates module-global "
        "state (each process mutates its own copy)"
    )
    run_on_tests = False

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Diagnostic]:
        manifest = _manifest_for(modules)
        analysis = shared_analysis(modules)
        for worker_key in _worker_keys(analysis, manifest):
            worker = analysis.graph.nodes[worker_key]
            for member in _same_module_closure(analysis, worker_key):
                node = analysis.graph.nodes[member]
                for site in analysis.direct.get(member, ()):
                    if site.taint is not Taint.GLOBAL_MUTATION:
                        continue
                    yield Diagnostic(
                        path=node.display_path,
                        line=site.lineno,
                        col=site.col,
                        code=self.code,
                        message=(
                            f"`{node.qualname}` (reached from "
                            f"worker-submitted `{worker.qualname}`) "
                            f"{site.detail}; worker processes mutate "
                            "private copies, so results silently "
                            "diverge from serial runs — pass state "
                            "through arguments/returns instead"
                        ),
                    )


class WorkerCapturedRngRule(ProjectRule):
    code = "RPR509"
    name = "worker-captured-rng"
    description = (
        "function submitted to a worker pool draws from a "
        "module-level RNG captured at import time"
    )
    run_on_tests = False

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Diagnostic]:
        manifest = _manifest_for(modules)
        analysis = shared_analysis(modules)
        for worker_key in _worker_keys(analysis, manifest):
            worker = analysis.graph.nodes[worker_key]
            for member in _same_module_closure(analysis, worker_key):
                node = analysis.graph.nodes[member]
                info = analysis.graph.modules[node.display_path]
                if not info.rng_names:
                    continue
                local = _local_names(node.node)
                for inner in ast.walk(node.node):
                    if not (
                        isinstance(inner, ast.Name)
                        and isinstance(inner.ctx, ast.Load)
                        and inner.id in info.rng_names
                        and inner.id not in local
                    ):
                        continue
                    yield Diagnostic(
                        path=node.display_path,
                        line=inner.lineno,
                        col=inner.col_offset + 1,
                        code=self.code,
                        message=(
                            f"`{node.qualname}` (reached from "
                            f"worker-submitted `{worker.qualname}`) "
                            f"uses module-level RNG `{inner.id}` — "
                            "forked workers inherit one shared "
                            "stream, so draws collide across "
                            "processes; seed a per-task Generator "
                            "from the task spec instead"
                        ),
                    )


for _rule in (
    WallClockInHashClosureRule(),
    RandomnessInHashClosureRule(),
    EnvReadInHashClosureRule(),
    UnorderedInHashClosureRule(),
    IdentityInHashClosureRule(),
    AtomicWriteRule(),
    RenameWithoutFsyncRule(),
    WorkerGlobalMutationRule(),
    WorkerCapturedRngRule(),
):
    register_rule(_rule)
