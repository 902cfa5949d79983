"""Interprocedural purity/determinism analysis and the cache-boundary
certifier.

ROADMAP item 2 keys the planned result cache on
``(spec_hash, scheduler, engine_version)`` — sound only if every
function reachable from ``canonical_json``/``spec_hash``/the journal
codecs is *deterministic*.  This module proves that statically:

1. :func:`analyze` runs a fixed-point effect/taint propagation over the
   cross-module call graph (:mod:`repro.lint.callgraph`).  Each function
   gets its **direct taint sites** (wall-clock reads, unseeded
   randomness, environment/filesystem access, unordered set iteration,
   ``id()``/``hash()``/locale formatting, module-global mutation) and a
   **closure taint set** — the union over everything it can reach.
   Cycles (mutual recursion) converge because the union is monotone.
2. Functions classify as ``pure`` (no taints, no module-state reads),
   ``deterministic`` (no taints; may read module constants), or
   ``effectful``.
3. The checked-in manifest (``purity-roots.toml``) names the hash
   closure roots, the allow-listed non-atomic writers, and the
   worker-boundary functions; :func:`certify` renders the certification
   report the CI gate asserts on.

The analysis is *optimistic about unknown callees*: a call the graph
cannot resolve (stdlib, numpy, unknown receiver) is assumed
deterministic unless its name is in the taint vocabulary below.  The
certifier is exactly as strong as its tables, and extending a table
strengthens every closure at once.

CLI: ``repro lint --certify`` prints the certification report and
fails unless every manifest root resolves *and* certifies; ``repro lint
--explain-path CODE:FUNC`` prints the call chain from a root to a taint.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
from pathlib import Path
from typing import Iterator, Sequence

from repro.lint.callgraph import (
    CallGraph,
    FunctionNode,
    ModuleInfo,
    _dotted,
    build_call_graph,
)
from repro.lint.engine import LintError, ModuleContext
from repro.lint.rules_determinism import _is_set_expr

__all__ = [
    "CertificationReport",
    "FunctionCert",
    "PurityAnalysis",
    "PurityClass",
    "PurityManifest",
    "Taint",
    "TaintSite",
    "analyze",
    "certify",
    "certify_cli",
    "explain_chain",
    "explain_cli",
    "find_manifest",
    "load_manifest",
    "parse_manifest",
]

MANIFEST_NAME = "purity-roots.toml"


class Taint(enum.Enum):
    """One kind of nondeterminism or effect a function may carry."""

    WALL_CLOCK = "wall-clock"
    RANDOMNESS = "randomness"
    ENV_FILESYSTEM = "env-filesystem"
    UNORDERED = "unordered-iteration"
    IDENTITY = "identity-or-locale"
    GLOBAL_MUTATION = "global-mutation"


#: Rule code enforcing each taint kind inside the hash closure.
TAINT_CODES: dict[Taint, str] = {
    Taint.WALL_CLOCK: "RPR501",
    Taint.RANDOMNESS: "RPR502",
    Taint.ENV_FILESYSTEM: "RPR503",
    Taint.UNORDERED: "RPR504",
    Taint.IDENTITY: "RPR505",
    Taint.GLOBAL_MUTATION: "RPR505",
}


class PurityClass(enum.Enum):
    PURE = "pure"
    DETERMINISTIC = "deterministic"
    EFFECTFUL = "effectful"


@dataclasses.dataclass(frozen=True)
class TaintSite:
    """One direct taint occurrence inside a function body."""

    taint: Taint
    lineno: int
    col: int
    detail: str


# ---------------------------------------------------------------------------
# Taint vocabulary
# ---------------------------------------------------------------------------

#: ``(module-ish base, attribute)`` call pairs that read the wall clock.
#: Wider than RPR002's table on purpose: ``perf_counter``/``monotonic``
#: are fine for progress meters but still poison a cache key.
_WALL_CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("time", "ctime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

_RANDOM_ATTRS = frozenset(
    {
        "random", "rand", "randn", "randint", "randrange", "choice",
        "choices", "sample", "shuffle", "uniform", "normal", "gauss",
        "permutation", "bytes", "standard_normal", "exponential",
        "poisson", "integers",
    }
)

_ENV_FS_CALLS = frozenset(
    {
        ("os", "getenv"),
        ("os", "getcwd"),
        ("os", "listdir"),
        ("os", "scandir"),
        ("os", "walk"),
        ("os", "stat"),
        ("os", "cpu_count"),
        ("glob", "glob"),
        ("glob", "iglob"),
        ("socket", "gethostname"),
        ("Path", "cwd"),
        ("Path", "home"),
    }
)

_FS_METHOD_CALLS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: Mutating container methods: called on a module-level name they count
#: as global mutation.
_MUTATOR_METHODS = frozenset(
    {
        "append", "add", "update", "pop", "popleft", "clear", "extend",
        "insert", "remove", "discard", "setdefault", "sort", "reverse",
        "appendleft",
    }
)


def _import_pair(
    info: ModuleInfo, name: str
) -> tuple[str, str] | None:
    """``(module tail, member)`` of a from-imported bare name."""
    imported = info.imports.get(name)
    if imported is None or imported[1] is None:
        return None
    return (imported[0].split(".")[-1], imported[1])


def _call_sites(
    node: ast.Call, info: ModuleInfo
) -> Iterator[tuple[Taint, str]]:
    """Taints triggered by one call expression."""
    func = node.func
    dotted = _dotted(func)
    pair: tuple[str, str] | None = None
    tail: str | None = None
    if dotted is not None:
        parts = dotted.split(".")
        tail = parts[-1]
        if len(parts) >= 2:
            pair = (parts[-2], parts[-1])
    elif isinstance(func, ast.Name):
        tail = func.id
        pair = _import_pair(info, func.id)
    elif isinstance(func, ast.Attribute):
        tail = func.attr

    if pair is not None:
        if pair in _WALL_CLOCK_CALLS:
            yield (Taint.WALL_CLOCK, f"wall-clock read `{pair[0]}.{pair[1]}()`")
        if pair in _ENV_FS_CALLS:
            yield (
                Taint.ENV_FILESYSTEM,
                f"environment/filesystem read `{pair[0]}.{pair[1]}()`",
            )
        if pair[0] == "secrets" or (pair[0], pair[1]) == ("os", "urandom"):
            yield (Taint.RANDOMNESS, f"OS-entropy draw `{dotted or pair[1]}()`")
        if pair[0] == "uuid" and pair[1] in ("uuid1", "uuid4"):
            yield (Taint.RANDOMNESS, f"random UUID `{pair[0]}.{pair[1]}()`")
        if pair[0] == "locale":
            yield (
                Taint.IDENTITY,
                f"locale-dependent call `{pair[0]}.{pair[1]}()`",
            )
        if pair[0] in ("random", "rnd") and pair[1] in _RANDOM_ATTRS:
            yield (
                Taint.RANDOMNESS,
                f"global-state RNG draw `{pair[0]}.{pair[1]}()`",
            )
    if dotted is not None:
        parts = dotted.split(".")
        if "random" in parts[:-1] and parts[-1] in _RANDOM_ATTRS:
            yield (Taint.RANDOMNESS, f"RNG draw `{dotted}()`")
    if tail == "default_rng":
        unseeded = not node.args and not node.keywords
        none_seed = any(
            isinstance(arg, ast.Constant) and arg.value is None
            for arg in node.args
        )
        if unseeded or none_seed:
            yield (
                Taint.RANDOMNESS,
                "unseeded `default_rng()` (OS-entropy seeded)",
            )
    if isinstance(func, ast.Name):
        if func.id == "open":
            yield (
                Taint.ENV_FILESYSTEM,
                "filesystem access `open(...)`",
            )
        elif func.id in ("id", "hash"):
            yield (
                Taint.IDENTITY,
                f"`{func.id}()` depends on object identity / "
                "PYTHONHASHSEED",
            )
        elif func.id in ("vars", "globals", "locals", "input"):
            yield (
                Taint.ENV_FILESYSTEM
                if func.id == "input"
                else Taint.UNORDERED,
                f"`{func.id}()` exposes namespace/environment state",
            )
    if tail in _FS_METHOD_CALLS:
        yield (
            Taint.ENV_FILESYSTEM,
            f"filesystem access `.{tail}(...)`",
        )
    if tail == "strftime":
        yield (
            Taint.IDENTITY,
            "locale-dependent `strftime(...)` formatting",
        )


class _SiteCollector:
    """Direct taint sites + module-state reads of one function body.

    Nested ``def``/``class`` bodies are skipped — they are separate
    call-graph nodes reached through ``contains`` edges — but lambda
    bodies belong to the enclosing function and are scanned inline.
    """

    def __init__(
        self, fnode: FunctionNode, info: ModuleInfo
    ) -> None:
        self.fnode = fnode
        self.info = info
        self.sites: list[TaintSite] = []
        self.reads_module_state = False
        self._local = _local_names(fnode.node)

    def run(self) -> None:
        for stmt in self.fnode.node.body:
            self._visit(stmt)

    def _add(self, node: ast.AST, taint: Taint, detail: str) -> None:
        self.sites.append(
            TaintSite(
                taint=taint,
                lineno=getattr(node, "lineno", self.fnode.lineno),
                col=getattr(node, "col_offset", 0) + 1,
                detail=detail,
            )
        )

    def _visit(self, node: ast.AST) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return
        if isinstance(node, ast.Global):
            self._add(
                node,
                Taint.GLOBAL_MUTATION,
                f"`global {', '.join(node.names)}` rebinds module state",
            )
            return
        if isinstance(node, ast.Call):
            for taint, detail in _call_sites(node, self.info):
                self._add(node, taint, detail)
            self._check_mutator_call(node)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted in ("os.environ", "os.environb", "sys.argv"):
                self._add(
                    node,
                    Taint.ENV_FILESYSTEM,
                    f"environment read `{dotted}`",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_unordered(node.iter)
        elif isinstance(node, ast.comprehension):
            self._check_unordered(node.iter)
        elif isinstance(node, ast.Assign):
            self._check_subscript_mutation(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if (
                node.id in self.info.module_assigns
                and node.id not in self._local
            ):
                self.reads_module_state = True
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _check_unordered(self, iter_expr: ast.expr) -> None:
        if _is_set_expr(iter_expr):
            self._add(
                iter_expr,
                Taint.UNORDERED,
                "iteration over a set (hash order reaches the result)",
            )

    def _check_mutator_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            receiver = func.value.id
            if (
                func.attr in _MUTATOR_METHODS
                and receiver in self.info.module_assigns
                and receiver not in self._local
            ):
                self._add(
                    node,
                    Taint.GLOBAL_MUTATION,
                    f"mutates module-level `{receiver}` via "
                    f"`.{func.attr}(...)`",
                )
        # list(set(..)) / tuple(set(..)) materialize hash order.
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and len(node.args) == 1
            and _is_set_expr(node.args[0])
        ):
            self._add(
                node.args[0],
                Taint.UNORDERED,
                "materializes a set's hash order",
            )

    def _check_subscript_mutation(self, node: ast.Assign) -> None:
        for target in node.targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.info.module_assigns
                and target.value.id not in self._local
            ):
                self._add(
                    node,
                    Taint.GLOBAL_MUTATION,
                    f"writes into module-level `{target.value.id}[...]`",
                )


def _local_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> frozenset[str]:
    names: set[str] = set()
    args = func.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if node is not func:
                names.add(node.name)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Fixed-point closure analysis
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PurityAnalysis:
    """Call graph plus per-function taint/classification results."""

    graph: CallGraph
    direct: dict[str, tuple[TaintSite, ...]]
    closure: dict[str, frozenset[Taint]]
    classification: dict[str, PurityClass]

    def taints_of(self, key: str) -> frozenset[Taint]:
        return self.closure.get(key, frozenset())


def analyze(modules: Sequence[ModuleContext]) -> PurityAnalysis:
    """Build the call graph and run taint propagation to a fixed point.

    Test modules (:attr:`~repro.lint.engine.ModuleContext.is_test_code`)
    are left out: every manifest root lives in shipped code, and the
    RPR5xx rules do not apply under ``tests/``.
    """
    graph = build_call_graph([ctx for ctx in modules if not ctx.is_test_code])
    direct: dict[str, tuple[TaintSite, ...]] = {}
    reads_state: dict[str, bool] = {}
    for key in sorted(graph.nodes):
        node = graph.nodes[key]
        info = graph.modules[node.display_path]
        collector = _SiteCollector(node, info)
        collector.run()
        direct[key] = tuple(collector.sites)
        reads_state[key] = collector.reads_module_state

    closure: dict[str, set[Taint]] = {
        key: {site.taint for site in sites}
        for key, sites in direct.items()
    }
    state_closure: dict[str, bool] = dict(reads_state)
    callers: dict[str, list[str]] = {}
    for caller in sorted(graph.edges):
        for callee in sorted(graph.edges[caller]):
            callers.setdefault(callee, []).append(caller)

    # Worklist fixed point: union direct taints up the (possibly cyclic)
    # caller chains until nothing changes.  Unions are monotone over a
    # finite lattice, so this terminates even for mutual recursion.
    worklist = sorted(closure)
    pending = set(worklist)
    while worklist:
        key = worklist.pop()
        pending.discard(key)
        taints = closure[key]
        state = state_closure[key]
        for caller in callers.get(key, ()):
            changed = False
            if not taints <= closure[caller]:
                closure[caller] |= taints
                changed = True
            if state and not state_closure[caller]:
                state_closure[caller] = True
                changed = True
            if changed and caller not in pending:
                worklist.append(caller)
                pending.add(caller)

    classification: dict[str, PurityClass] = {}
    for key in sorted(closure):
        if closure[key]:
            classification[key] = PurityClass.EFFECTFUL
        elif state_closure[key]:
            classification[key] = PurityClass.DETERMINISTIC
        else:
            classification[key] = PurityClass.PURE
    return PurityAnalysis(
        graph=graph,
        direct=direct,
        closure={k: frozenset(v) for k, v in closure.items()},
        classification=classification,
    )


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PurityManifest:
    """Parsed ``purity-roots.toml``: the three enforced boundaries."""

    path: Path | None
    #: ``path::qualname`` roots whose closure must be deterministic.
    hash_closure_roots: tuple[str, ...] = ()
    #: Functions allowed to write non-atomically (RPR506 exemptions).
    atomic_allow: tuple[str, ...] = ()
    #: Functions crossing the worker process boundary (RPR508/509).
    worker_functions: tuple[str, ...] = ()


def parse_manifest(text: str, path: Path | None = None) -> PurityManifest:
    """Parse the TOML subset the manifest uses.

    Sections, ``key = ["...", ...]`` string arrays (single- or
    multi-line), and ``#`` comments — a deliberate subset so the parser
    needs no ``tomllib`` (absent on the oldest supported CI Python).
    """
    sections: dict[str, dict[str, list[str]]] = {}
    section: str | None = None
    key: str | None = None
    collecting = False
    for raw_lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_toml_comment(raw).strip()
        if not line:
            continue
        if collecting:
            assert section is not None and key is not None
            collecting = not _collect_array_items(
                sections[section][key], line
            )
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            sections.setdefault(section, {})
            continue
        if "=" not in line or section is None:
            raise LintError(
                f"{path or MANIFEST_NAME}:{raw_lineno}: "
                f"unsupported manifest line {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value.startswith("["):
            raise LintError(
                f"{path or MANIFEST_NAME}:{raw_lineno}: "
                f"{key!r} must be a string array"
            )
        items: list[str] = []
        sections[section][key] = items
        collecting = not _collect_array_items(items, value[1:])
    return PurityManifest(
        path=path,
        hash_closure_roots=tuple(
            sections.get("hash-closure", {}).get("roots", ())
        ),
        atomic_allow=tuple(
            sections.get("atomic-writers", {}).get("allow", ())
        ),
        worker_functions=tuple(
            sections.get("workers", {}).get("functions", ())
        ),
    )


def _strip_toml_comment(line: str) -> str:
    out: list[str] = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out)


def _collect_array_items(items: list[str], fragment: str) -> bool:
    """Append quoted items from one array fragment; True when ``]`` seen."""
    rest = fragment
    while True:
        rest = rest.strip().lstrip(",").strip()
        if not rest:
            return False
        if rest.startswith("]"):
            return True
        if not rest.startswith('"'):
            raise LintError(
                f"manifest array items must be double-quoted "
                f"strings, got {rest!r}"
            )
        closing = rest.index('"', 1)
        items.append(rest[1:closing])
        rest = rest[closing + 1 :]


_MANIFEST_CACHE: dict[tuple[str, int], PurityManifest] = {}


def find_manifest(start: Path) -> Path | None:
    """Locate ``purity-roots.toml`` walking up from ``start``."""
    anchor = start if start.is_absolute() else Path.cwd() / start
    for parent in [anchor, *anchor.parents]:
        candidate = parent / MANIFEST_NAME
        if candidate.is_file():
            return candidate
    return None


def load_manifest(start: Path) -> PurityManifest | None:
    """Discover + parse (mtime-cached) the manifest governing ``start``."""
    manifest_path = find_manifest(start)
    if manifest_path is None:
        return None
    stamp = manifest_path.stat().st_mtime_ns
    cache_key = (str(manifest_path), stamp)
    cached = _MANIFEST_CACHE.get(cache_key)
    if cached is None:
        cached = parse_manifest(
            manifest_path.read_text(encoding="utf-8"), path=manifest_path
        )
        _MANIFEST_CACHE.clear()
        _MANIFEST_CACHE[cache_key] = cached
    return cached


def ref_matches(ref: str, display_path: str, qualname: str) -> bool:
    """Whether a manifest ``path::qualname`` ref names this function."""
    if "::" not in ref:
        return False
    path_part, ref_qual = ref.split("::", 1)
    if ref_qual != qualname:
        return False
    normalized = display_path.replace("\\", "/")
    path_part = path_part.replace("\\", "/")
    return normalized == path_part or normalized.endswith("/" + path_part)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FunctionCert:
    key: str
    classification: PurityClass
    taints: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class RootCert:
    ref: str
    #: Resolved node key, or ``None`` when the ref matched no function.
    key: str | None
    closure: tuple[FunctionCert, ...] = ()

    @property
    def ok(self) -> bool:
        return self.key is not None and all(
            cert.classification is not PurityClass.EFFECTFUL
            for cert in self.closure
        )


@dataclasses.dataclass
class CertificationReport:
    """Outcome of certifying every manifest hash-closure root."""

    manifest_path: str | None
    roots: tuple[RootCert, ...]

    @property
    def ok(self) -> bool:
        return bool(self.roots) and all(root.ok for root in self.roots)

    @property
    def certified_refs(self) -> tuple[str, ...]:
        return tuple(root.ref for root in self.roots if root.ok)

    def format_text(self) -> str:
        lines = [f"purity certification ({self.manifest_path})"]
        for root in self.roots:
            if root.key is None:
                lines.append(f"  UNRESOLVED {root.ref}")
                continue
            status = "certified" if root.ok else "TAINTED"
            lines.append(
                f"  {status} {root.ref} "
                f"({len(root.closure)} function(s) in closure)"
            )
            for cert in root.closure:
                marker = {
                    PurityClass.PURE: "pure",
                    PurityClass.DETERMINISTIC: "deterministic",
                    PurityClass.EFFECTFUL: "EFFECTFUL",
                }[cert.classification]
                suffix = (
                    f"  [{', '.join(cert.taints)}]" if cert.taints else ""
                )
                lines.append(f"    {marker:<13} {cert.key}{suffix}")
        verdict = (
            "hash closure fully certified deterministic"
            if self.ok
            else "hash closure NOT certified"
        )
        lines.append(verdict)
        return "\n".join(lines)


def certify(
    analysis: PurityAnalysis, manifest: PurityManifest
) -> CertificationReport:
    """Certify every manifest root against the closure taint sets."""
    roots: list[RootCert] = []
    for ref in manifest.hash_closure_roots:
        key = analysis.graph.resolve_ref(ref)
        if key is None:
            roots.append(RootCert(ref=ref, key=None))
            continue
        closure_keys = sorted(analysis.graph.reachable([key]))
        certs = tuple(
            FunctionCert(
                key=member,
                classification=analysis.classification[member],
                taints=tuple(
                    sorted(t.value for t in analysis.taints_of(member))
                ),
            )
            for member in closure_keys
        )
        roots.append(RootCert(ref=ref, key=key, closure=certs))
    return CertificationReport(
        manifest_path=(
            str(manifest.path) if manifest.path is not None else None
        ),
        roots=tuple(roots),
    )


# ---------------------------------------------------------------------------
# Explain: root → taint chains
# ---------------------------------------------------------------------------


def explain_chain(
    analysis: PurityAnalysis, root_key: str, taints: frozenset[Taint]
) -> tuple[list[str], TaintSite | None]:
    """Shortest call chain from a root to a direct site of ``taints``.

    Returns ``(chain of node keys, site)``; ``(chain, None)`` with just
    the root when no reachable function carries one of the taints.
    """
    targets = sorted(
        key
        for key in analysis.graph.reachable([root_key])
        if any(site.taint in taints for site in analysis.direct.get(key, ()))
    )
    if not targets:
        return ([root_key], None)
    best: tuple[list[str], TaintSite] | None = None
    for target in targets:
        edges = analysis.graph.path(root_key, target)
        if edges is None:
            continue
        chain = [root_key, *(edge.callee for edge in edges)]
        site = next(
            site
            for site in analysis.direct[target]
            if site.taint in taints
        )
        if best is None or len(chain) < len(best[0]):
            best = (chain, site)
    if best is None:
        return ([root_key], None)
    return best


def format_chain(
    analysis: PurityAnalysis,
    chain: Sequence[str],
    site: TaintSite | None,
) -> str:
    lines: list[str] = []
    for depth, key in enumerate(chain):
        node = analysis.graph.nodes[key]
        indent = "  " * depth
        if depth == 0:
            lines.append(f"{indent}{key}  (root)")
        else:
            edge = analysis.graph.edges[chain[depth - 1]][key]
            lines.append(
                f"{indent}-> {key}  ({edge.kind} at "
                f"{analysis.graph.nodes[chain[depth - 1]].display_path}:"
                f"{edge.lineno})"
            )
        del node
    if site is not None:
        leaf = analysis.graph.nodes[chain[-1]]
        lines.append(
            f"{'  ' * len(chain)}taint: {site.detail} at "
            f"{leaf.display_path}:{site.lineno}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI (repro lint --certify / --explain-path)
# ---------------------------------------------------------------------------


def _load_lint_paths(paths: Sequence[str | Path]) -> list[ModuleContext]:
    from repro.lint.engine import SYNTAX_ERROR_CODE, load_modules

    # analyze() drops test modules, so they are not even parsed.
    modules, extras = load_modules(paths, skip_tests=True)
    broken = [d for d in extras if d.code == SYNTAX_ERROR_CODE]
    if broken:
        rendered = "; ".join(d.format_text() for d in broken)
        raise LintError(f"cannot parse tree for certification: {rendered}")
    return modules


def certify_cli(paths: Sequence[str | Path]) -> int:
    """``repro lint --certify``: print the certification report."""
    manifest = load_manifest(Path.cwd())
    if manifest is None:
        print(
            f"no {MANIFEST_NAME} found above {Path.cwd()}; nothing to "
            "certify"
        )
        return 2
    report = certify(analyze(_load_lint_paths(paths)), manifest)
    print(report.format_text())
    return 0 if report.ok else 1


#: Taint kinds each RPR50x code owns (inverse of :data:`TAINT_CODES`).
_CODE_TAINTS: dict[str, frozenset[Taint]] = {}
for _taint, _code in TAINT_CODES.items():
    _CODE_TAINTS.setdefault(_code, frozenset())
    _CODE_TAINTS[_code] |= {_taint}
del _taint, _code


def _resolve_cli_ref(analysis: PurityAnalysis, ref: str) -> str:
    """A node key for a ``path::qualname`` or bare-qualname CLI ref."""
    if "::" in ref:
        key = analysis.graph.resolve_ref(ref)
        if key is None:
            raise LintError(
                f"--explain-path: no function matches {ref!r} in the "
                "linted paths"
            )
        return key
    matches = sorted(
        key
        for key, node in analysis.graph.nodes.items()
        if node.qualname == ref
    )
    if not matches:
        raise LintError(
            f"--explain-path: no function named {ref!r} in the linted "
            "paths"
        )
    if len(matches) > 1:
        raise LintError(
            f"--explain-path: {ref!r} is ambiguous; qualify it as one "
            f"of: {', '.join(matches)}"
        )
    return matches[0]


def explain_cli(spec: str, paths: Sequence[str | Path]) -> int:
    """``repro lint --explain-path CODE:FUNC``: root→taint call chain.

    Exit code 1 when a chain to the flagged taint kind exists, 0 when
    the function's closure is clean for that code.
    """
    code, sep, ref = spec.partition(":")
    code = code.strip().upper()
    ref = ref.strip()
    if not sep or not ref or code not in _CODE_TAINTS:
        known = ", ".join(sorted(_CODE_TAINTS))
        raise LintError(
            f"--explain-path expects CODE:FUNC with CODE one of "
            f"{known}, got {spec!r}"
        )
    taints = _CODE_TAINTS[code]
    analysis = analyze(_load_lint_paths(paths))
    root_key = _resolve_cli_ref(analysis, ref)
    chain, site = explain_chain(analysis, root_key, taints)
    if site is None:
        kinds = ", ".join(sorted(t.value for t in taints))
        print(
            f"{root_key}: no {kinds} taint reachable — closure is "
            f"clean for {code}"
        )
        return 0
    print(format_chain(analysis, chain, site))
    return 1
