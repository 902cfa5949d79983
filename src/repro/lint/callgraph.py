"""Cross-module call graph for the purity certifier (RPR5xx).

The hash-closure rules (:mod:`repro.lint.rules_purity`) must reason
about *every function reachable from* ``canonical_json``/``spec_hash``,
which needs whole-program call resolution.  :func:`build_call_graph`
scans every linted module once and resolves, in decreasing order of
confidence:

* **direct calls** — names bound by nested ``def`` scoping, module-level
  functions, and imports (``from m import f``, ``import m as a`` with
  dotted use, relative imports);
* **instantiations** — ``ClassName(...)`` edges to ``__init__`` and
  records the receiver type of ``v = ClassName(...)``;
* **method calls** — ``self.m()``/``cls.m()`` through the enclosing
  class and its project-local bases, receiver-type hints from
  constructor assignments and parameter annotations, and a
  unique-method-name fallback (guarded by a builtin-method blocklist);
* **registry dispatch** — ``make_scheduler(...)`` fans out to the
  ``__init__``/``decide`` of every ``*Scheduler`` class, mirroring
  ``repro/sched/registry.py``;
* **indirect references** — a bare ``Name`` load of a project function
  (callbacks, ``functools.partial``, decorators) becomes a ``ref``/
  ``partial``/``decorator`` edge, and ``pool.submit(f, ...)`` both adds
  an edge and records ``f`` in :attr:`CallGraph.submitted` for the
  worker-boundary rules (RPR508/509).

Unresolved callees (stdlib, numpy, unknown receivers) are recorded per
caller and treated as *deterministic* by the purity analysis — the
taint tables in :mod:`repro.lint.purity` carry the known-bad names, so
the certifier's strength is exactly the strength of that vocabulary.
Nested ``def``s get a ``contains`` edge from their enclosing function,
which over-approximates closures safely: a taint inside a nested helper
poisons the function that created it.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterable, Iterator, Sequence

from repro.lint.engine import ModuleContext

__all__ = [
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "FunctionNode",
    "ModuleInfo",
    "build_call_graph",
    "module_dotted_name",
]

#: Method names owned by builtin containers/streams: the unique-method
#: fallback must never link ``d.items()`` or ``handle.write()`` to a
#: project class that happens to define the same name.
_BUILTIN_METHODS = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "discard",
        "endswith", "extend", "flush", "format", "get", "index", "insert",
        "item", "items", "join", "keys", "lower", "pop", "popleft", "read",
        "readline", "remove", "replace", "reverse", "setdefault", "sort",
        "split", "splitlines", "startswith", "strip", "tolist", "update",
        "upper", "values", "write",
    }
)


def module_dotted_name(display_path: str) -> str:
    """Dotted module name of a display path (``src/`` prefix stripped).

    ``src/repro/runtime/journal.py`` → ``repro.runtime.journal`` and
    ``src/repro/lint/__init__.py`` → ``repro.lint``, so ``from X import
    f`` statements can be matched against linted modules.
    """
    normalized = display_path.replace("\\", "/")
    if normalized.endswith(".py"):
        normalized = normalized[: -len(".py")]
    parts = [part for part in normalized.split("/") if part]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclasses.dataclass(frozen=True)
class CallEdge:
    """One resolved caller→callee link, anchored to the reference line."""

    caller: str
    callee: str
    lineno: int
    #: ``call`` | ``ref`` | ``decorator`` | ``contains`` | ``dispatch``
    #: | ``partial`` | ``submit``
    kind: str


@dataclasses.dataclass
class FunctionNode:
    """One function/method definition in the linted tree."""

    key: str
    display_path: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Name of the immediately-enclosing class for methods, else ``None``.
    class_name: str | None = None

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclasses.dataclass
class ClassInfo:
    """Methods and base-class names of one class definition."""

    name: str
    display_path: str
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ModuleInfo:
    """Per-module facts the resolver and the purity analysis share."""

    display_path: str
    dotted: str
    tree: ast.Module
    #: ``alias -> (module, member)``; ``member`` is ``None`` for plain
    #: ``import module [as alias]`` bindings.
    imports: dict[str, tuple[str, str | None]] = dataclasses.field(
        default_factory=dict
    )
    functions: dict[str, str] = dataclasses.field(default_factory=dict)
    classes: dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    #: Names assigned at module level (mutable module state candidates).
    module_assigns: set[str] = dataclasses.field(default_factory=set)
    #: Module-level names bound to an RNG (``default_rng(...)`` result).
    rng_names: set[str] = dataclasses.field(default_factory=set)


class CallGraph:
    """Nodes, edges, and project-wide lookup tables."""

    def __init__(self) -> None:
        self.nodes: dict[str, FunctionNode] = {}
        self.modules: dict[str, ModuleInfo] = {}
        self.edges: dict[str, dict[str, CallEdge]] = {}
        #: Per caller: callee names the resolver could not bind.
        self.unresolved: dict[str, list[tuple[str, int]]] = {}
        #: Functions passed as the first argument of a ``.submit(...)``.
        self.submitted: set[str] = set()
        self._by_dotted: dict[str, str] = {}
        # Name → key, poisoned to None when the name is ambiguous.
        self._funcs_by_name: dict[str, str | None] = {}
        self._methods_by_name: dict[str, str | None] = {}
        self._classes_by_name: dict[str, ClassInfo | None] = {}
        # (display, scope-qualname) → directly nested function defs.
        self._scope_defs: dict[tuple[str, str], dict[str, str]] = {}

    # -- queries -----------------------------------------------------------

    def callees(self, key: str) -> Iterator[CallEdge]:
        """Outgoing edges of one function, callee-sorted (deterministic)."""
        per_callee = self.edges.get(key, {})
        for callee in sorted(per_callee):
            yield per_callee[callee]

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Every node reachable from ``roots`` (roots included).

        Plain BFS over the edge map; cycles (mutual recursion) are
        handled by the visited set, so the walk always terminates.
        """
        seen: set[str] = set()
        frontier = [key for key in roots if key in self.nodes]
        seen.update(frontier)
        while frontier:
            key = frontier.pop()
            for edge in self.callees(key):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    frontier.append(edge.callee)
        return seen

    def path(self, root: str, target: str) -> list[CallEdge] | None:
        """Shortest edge chain from ``root`` to ``target`` (BFS), if any."""
        if root not in self.nodes:
            return None
        if root == target:
            return []
        parents: dict[str, CallEdge] = {}
        frontier = [root]
        seen = {root}
        while frontier:
            next_frontier: list[str] = []
            for key in frontier:
                for edge in self.callees(key):
                    if edge.callee in seen:
                        continue
                    seen.add(edge.callee)
                    parents[edge.callee] = edge
                    if edge.callee == target:
                        chain: list[CallEdge] = []
                        cursor = target
                        while cursor != root:
                            step = parents[cursor]
                            chain.append(step)
                            cursor = step.caller
                        chain.reverse()
                        return chain
                    next_frontier.append(edge.callee)
            frontier = next_frontier
        return None

    def resolve_ref(self, ref: str) -> str | None:
        """Resolve a manifest-style ``path::qualname`` reference.

        The path half matches module display paths by suffix, so the
        lint root does not matter.
        """
        if "::" not in ref:
            return None
        path_part, qualname = ref.split("::", 1)
        path_part = path_part.replace("\\", "/")
        for display in sorted(self.modules):
            normalized = display.replace("\\", "/")
            if normalized == path_part or normalized.endswith(
                "/" + path_part
            ):
                key = f"{display}::{qualname}"
                if key in self.nodes:
                    return key
        return None

    # -- construction ------------------------------------------------------

    def _add_edge(
        self, caller: str, callee: str, lineno: int, kind: str
    ) -> None:
        if callee not in self.nodes:
            return
        per_callee = self.edges.setdefault(caller, {})
        if callee not in per_callee:
            per_callee[callee] = CallEdge(
                caller=caller, callee=callee, lineno=lineno, kind=kind
            )

    def _add_unresolved(self, caller: str, name: str, lineno: int) -> None:
        self.unresolved.setdefault(caller, []).append((name, lineno))


def build_call_graph(modules: Sequence[ModuleContext]) -> CallGraph:
    """Collect definitions, then resolve every function's references."""
    graph = CallGraph()
    for ctx in modules:
        _collect_module(graph, ctx)
    _build_lookups(graph)
    for info in [graph.modules[d] for d in sorted(graph.modules)]:
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            if node.display_path == info.display_path:
                _Resolver(graph, info, node).run()
    return graph


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):  # Generic[...] bases
        return _base_name(expr.value)
    return None


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_rng_factory(value: ast.expr) -> bool:
    """Whether an assigned value is an RNG handle (``default_rng(...)``)."""
    if not isinstance(value, ast.Call):
        return False
    dotted = _dotted(value.func)
    if dotted is None:
        return False
    tail = dotted.split(".")[-1]
    return tail in ("default_rng", "RandomState", "Generator")


def _collect_imports(graph: CallGraph, info: ModuleInfo) -> None:
    package_parts = info.dotted.split(".") if info.dotted else []
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    info.imports[alias.asname] = (alias.name, None)
                else:
                    top = alias.name.split(".")[0]
                    info.imports.setdefault(top, (top, None))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                # Relative import: resolve against this module's package.
                prefix = package_parts[: len(package_parts) - node.level]
                module = ".".join([*prefix, module] if module else prefix)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = (module, alias.name)


def _collect_module(graph: CallGraph, ctx: ModuleContext) -> None:
    display = ctx.display_path
    info = ModuleInfo(
        display_path=display,
        dotted=module_dotted_name(display),
        tree=ctx.tree,
    )
    graph.modules[display] = info
    if info.dotted:
        graph._by_dotted.setdefault(info.dotted, display)
    _collect_imports(graph, info)

    def walk(
        body: Sequence[ast.stmt],
        scope: str,
        scope_kind: str,
        class_info: ClassInfo | None,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}.{stmt.name}" if scope else stmt.name
                key = f"{display}::{qualname}"
                graph.nodes[key] = FunctionNode(
                    key=key,
                    display_path=display,
                    qualname=qualname,
                    node=stmt,
                    class_name=(
                        class_info.name
                        if scope_kind == "class" and class_info is not None
                        else None
                    ),
                )
                if scope_kind in ("module", "function"):
                    graph._scope_defs.setdefault(
                        (display, scope), {}
                    )[stmt.name] = key
                if scope_kind == "module":
                    info.functions[stmt.name] = key
                if scope_kind == "class" and class_info is not None:
                    class_info.methods[stmt.name] = key
                walk(stmt.body, qualname, "function", None)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{scope}.{stmt.name}" if scope else stmt.name
                nested = ClassInfo(
                    name=stmt.name,
                    display_path=display,
                    bases=tuple(
                        name
                        for name in (
                            _base_name(base) for base in stmt.bases
                        )
                        if name is not None
                    ),
                )
                info.classes.setdefault(stmt.name, nested)
                walk(stmt.body, qualname, "class", nested)
            elif scope_kind == "module":
                _collect_module_state(info, stmt)
                # Defs nested in module-level `if`/`try` blocks still
                # count as module-level bindings.
                for sub_body in (
                    getattr(stmt, "body", None),
                    getattr(stmt, "orelse", None),
                    getattr(stmt, "finalbody", None),
                ):
                    if sub_body:
                        walk(sub_body, scope, "module", None)

    walk(info.tree.body, "", "module", None)


def _collect_module_state(info: ModuleInfo, stmt: ast.stmt) -> None:
    targets: list[ast.expr] = []
    value: ast.expr | None = None
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
        value = stmt.value
    elif isinstance(stmt, ast.AugAssign):
        targets = [stmt.target]
    for target in targets:
        if isinstance(target, ast.Name):
            info.module_assigns.add(target.id)
            if value is not None and _is_rng_factory(value):
                info.rng_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    info.module_assigns.add(element.id)


def _build_lookups(graph: CallGraph) -> None:
    for display in sorted(graph.modules):
        info = graph.modules[display]
        for name in sorted(info.functions):
            _merge_unique(graph._funcs_by_name, name, info.functions[name])
        for cname in sorted(info.classes):
            cinfo = info.classes[cname]
            _merge_unique_class(graph._classes_by_name, cname, cinfo)
            for mname in sorted(cinfo.methods):
                _merge_unique(
                    graph._methods_by_name, mname, cinfo.methods[mname]
                )


def _merge_unique(
    table: dict[str, str | None], name: str, key: str
) -> None:
    if name not in table:
        table[name] = key
    elif table[name] != key:
        table[name] = None


def _merge_unique_class(
    table: dict[str, ClassInfo | None], name: str, cinfo: ClassInfo
) -> None:
    if name not in table:
        table[name] = cinfo
    elif table[name] is not cinfo:
        table[name] = None


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


class _Resolver:
    """Resolve one function's calls, references, and decorators."""

    def __init__(
        self, graph: CallGraph, info: ModuleInfo, fnode: FunctionNode
    ) -> None:
        self.graph = graph
        self.info = info
        self.fnode = fnode
        self.locals = _local_bindings(fnode.node)
        self.receiver_types = _receiver_types(self, fnode.node)

    # -- entry point -------------------------------------------------------

    def run(self) -> None:
        func = self.fnode.node
        for deco in func.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            key = self._resolve_callable_expr(target)
            if key is not None:
                self.graph._add_edge(
                    self.fnode.key, key, deco.lineno, "decorator"
                )
        for stmt in func.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: its body is a separate node; over-approximate
            # the closure with a `contains` edge and stop descending.
            nested_key = f"{self.fnode.key}.{node.name}"
            self.graph._add_edge(
                self.fnode.key, nested_key, node.lineno, "contains"
            )
            return
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, ast.Call):
            self._handle_call(node)
            for child in ast.iter_child_nodes(node):
                self._visit(child)
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            self._handle_name_ref(node)
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- call handling -----------------------------------------------------

    def _handle_call(self, node: ast.Call) -> None:
        lineno = node.lineno
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if self._is_partial(name):
                self._handle_partial(node)
                return
            if name == "make_scheduler":
                self._dispatch_schedulers(lineno)
                return
            key = self._resolve_name_callable(name)
            if key is not None:
                self.graph._add_edge(self.fnode.key, key, lineno, "call")
            elif name not in self.locals and not _is_builtin_name(name):
                self.graph._add_unresolved(self.fnode.key, name, lineno)
            return
        if isinstance(func, ast.Attribute):
            if func.attr == "submit":
                self._handle_submit(node)
                # fall through: also try resolving `.submit` itself
            if func.attr == "make_scheduler":
                self._dispatch_schedulers(lineno)
                return
            dotted = _dotted(func)
            key = self._resolve_attribute_callable(func, dotted)
            if key is not None:
                self.graph._add_edge(self.fnode.key, key, lineno, "call")
            else:
                self.graph._add_unresolved(
                    self.fnode.key, dotted or func.attr, lineno
                )

    def _is_partial(self, name: str) -> bool:
        if name == "partial":
            imported = self.info.imports.get(name)
            return imported is None or imported[0] == "functools"
        return False

    def _handle_partial(self, node: ast.Call) -> None:
        if not node.args:
            return
        key = self._resolve_callable_expr(node.args[0])
        if key is not None:
            self.graph._add_edge(
                self.fnode.key, key, node.lineno, "partial"
            )

    def _handle_submit(self, node: ast.Call) -> None:
        if not node.args:
            return
        key = self._resolve_callable_expr(node.args[0])
        if key is not None:
            self.graph.submitted.add(key)
            self.graph._add_edge(self.fnode.key, key, node.lineno, "submit")

    def _dispatch_schedulers(self, lineno: int) -> None:
        """``make_scheduler(name)`` reaches every registered scheduler.

        The registry maps names to ``*Scheduler`` classes, so the sound
        over-approximation is an edge to the constructor and ``decide``
        of each such class anywhere in the project.
        """
        for display in sorted(self.graph.modules):
            info = self.graph.modules[display]
            for cname in sorted(info.classes):
                if not cname.endswith("Scheduler"):
                    continue
                cinfo = info.classes[cname]
                for mname in ("__init__", "decide"):
                    key = cinfo.methods.get(mname)
                    if key is not None:
                        self.graph._add_edge(
                            self.fnode.key, key, lineno, "dispatch"
                        )

    def _handle_name_ref(self, node: ast.Name) -> None:
        name = node.id
        if name in self.locals:
            return
        key = self._resolve_name_function(name)
        if key is not None and key != self.fnode.key:
            self.graph._add_edge(self.fnode.key, key, node.lineno, "ref")

    # -- resolution primitives --------------------------------------------

    def _resolve_callable_expr(self, expr: ast.expr) -> str | None:
        """Resolve an expression used *as a callable value* (not called)."""
        if isinstance(expr, ast.Name):
            return self._resolve_name_callable(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute_callable(expr, _dotted(expr))
        return None

    def _resolve_name_function(self, name: str) -> str | None:
        """A bare name as a function value (no class instantiation)."""
        key = self._lookup_scoped(name)
        if key is not None:
            return key
        imported = self.info.imports.get(name)
        if imported is not None:
            return self._resolve_imported_member(imported)
        unique = self.graph._funcs_by_name.get(name)
        return unique

    def _resolve_name_callable(self, name: str) -> str | None:
        """A bare name in call position (functions *and* classes)."""
        key = self._lookup_scoped(name)
        if key is not None:
            return key
        cls = self._lookup_class(name)
        if cls is not None:
            return cls.methods.get("__init__")
        imported = self.info.imports.get(name)
        if imported is not None:
            return self._resolve_imported_member(imported)
        return self.graph._funcs_by_name.get(name)

    def _lookup_scoped(self, name: str) -> str | None:
        """Nested-def scoping: innermost enclosing function scope wins."""
        parts = self.fnode.qualname.split(".")
        display = self.fnode.display_path
        for depth in range(len(parts), -1, -1):
            scope = ".".join(parts[:depth])
            defs = self.graph._scope_defs.get((display, scope))
            if defs is not None and name in defs:
                return defs[name]
        return None

    def _lookup_class(self, name: str) -> ClassInfo | None:
        local = self.info.classes.get(name)
        if local is not None:
            return local
        imported = self.info.imports.get(name)
        if imported is not None:
            module, member = imported
            display = self._module_display(module)
            if display is not None and member is not None:
                return self.graph.modules[display].classes.get(member)
            return None
        return self.graph._classes_by_name.get(name)

    def _module_display(self, dotted: str) -> str | None:
        direct = self.graph._by_dotted.get(dotted)
        if direct is not None:
            return direct
        # Tolerate a missing package prefix (fixture trees whose display
        # paths do not start at the package root).
        tail_matches = [
            self.graph._by_dotted[name]
            for name in sorted(self.graph._by_dotted)
            if name.endswith("." + dotted)
        ]
        if len(tail_matches) == 1:
            return tail_matches[0]
        return None

    def _resolve_imported_member(
        self, imported: tuple[str, str | None]
    ) -> str | None:
        module, member = imported
        if member is None:
            return None
        display = self._module_display(module)
        if display is None:
            return None
        target = self.graph.modules[display]
        key = target.functions.get(member)
        if key is not None:
            return key
        cls = target.classes.get(member)
        if cls is not None:
            return cls.methods.get("__init__")
        return None

    def _resolve_attribute_callable(
        self, func: ast.Attribute, dotted: str | None
    ) -> str | None:
        attr = func.attr
        if dotted is not None:
            parts = dotted.split(".")
            # self.m() / cls.m() through the enclosing class hierarchy.
            if parts[0] in ("self", "cls") and self.fnode.class_name:
                if len(parts) == 2:
                    return self._lookup_method(self.fnode.class_name, attr)
            # Alias translation: `import repro.runtime.journal as jr`.
            imported = self.info.imports.get(parts[0])
            if imported is not None and imported[1] is None:
                parts = imported[0].split(".") + parts[1:]
            key = self._resolve_dotted_module_path(parts)
            if key is not None:
                return key
            # Receiver-type hints: `v = ClassName(...)` / `v: ClassName`.
            if len(parts) == 2:
                receiver_class = self.receiver_types.get(parts[0])
                if receiver_class is not None:
                    found = self._lookup_method(receiver_class, attr)
                    if found is not None:
                        return found
                cls = self._lookup_class(parts[0])
                if cls is not None:
                    return self._class_method_key(cls, attr)
        # Last resort: a method name defined exactly once project-wide.
        if attr not in _BUILTIN_METHODS:
            return self.graph._methods_by_name.get(attr)
        return None

    def _resolve_dotted_module_path(
        self, parts: Sequence[str]
    ) -> str | None:
        """``pkg.mod.func`` / ``pkg.mod.Class.method`` via module paths."""
        for split in range(len(parts) - 1, 0, -1):
            display = self._module_display(".".join(parts[:split]))
            if display is None:
                continue
            target = self.graph.modules[display]
            remainder = parts[split:]
            if len(remainder) == 1:
                key = target.functions.get(remainder[0])
                if key is not None:
                    return key
                cls = target.classes.get(remainder[0])
                if cls is not None:
                    return cls.methods.get("__init__")
            elif len(remainder) == 2:
                cls = target.classes.get(remainder[0])
                if cls is not None:
                    return self._class_method_key(cls, remainder[1])
        return None

    def _lookup_method(self, class_name: str, method: str) -> str | None:
        """Find a method on a class or its project-local base chain."""
        visited: set[str] = set()
        queue = [class_name]
        while queue:
            cname = queue.pop(0)
            if cname in visited:
                continue
            visited.add(cname)
            cinfo = self.info.classes.get(cname)
            if cinfo is None:
                cinfo = self.graph._classes_by_name.get(cname)
            if cinfo is None:
                continue
            key = cinfo.methods.get(method)
            if key is not None:
                return key
            queue.extend(cinfo.bases)
        return None

    def _class_method_key(self, cls: ClassInfo, method: str) -> str | None:
        key = cls.methods.get(method)
        if key is not None:
            return key
        return self._lookup_method(cls.name, method)


def _is_builtin_name(name: str) -> bool:
    import builtins

    return hasattr(builtins, name)


def _local_bindings(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names bound locally (params, assignments, imports, nested defs).

    Over-approximates by walking nested scopes too — a shadowed name is
    merely skipped by the unique-name fallbacks, never misresolved.
    """
    bound: set[str] = set()
    args = func.args
    for arg in (
        *args.posonlyargs,
        *args.args,
        *args.kwonlyargs,
        *([args.vararg] if args.vararg else []),
        *([args.kwarg] if args.kwarg else []),
    ):
        bound.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not func:
                bound.add(node.name)
        elif isinstance(node, ast.ClassDef):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if node is not func:
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    bound.add(local)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    return bound


def _receiver_types(
    resolver: "_Resolver", func: ast.FunctionDef | ast.AsyncFunctionDef
) -> dict[str, str]:
    """``variable -> class name`` hints for method resolution."""
    hints: dict[str, str] = {}

    def annotation_class(annotation: ast.expr | None) -> str | None:
        if annotation is None:
            return None
        name: str | None = None
        if isinstance(annotation, ast.Name):
            name = annotation.id
        elif isinstance(annotation, ast.Attribute):
            name = annotation.attr
        elif isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            name = annotation.value.split(".")[-1].strip()
        if name is not None and resolver._lookup_class(name) is not None:
            return name
        return None

    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        cname = annotation_class(arg.annotation)
        if cname is not None:
            hints[arg.arg] = cname
    for node in ast.walk(func):
        target: ast.expr | None = None
        cname = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(node.value, ast.Call):
                call_name: str | None = None
                if isinstance(node.value.func, ast.Name):
                    call_name = node.value.func.id
                elif isinstance(node.value.func, ast.Attribute):
                    call_name = node.value.func.attr
                if (
                    call_name is not None
                    and resolver._lookup_class(call_name) is not None
                ):
                    cname = call_name
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            cname = annotation_class(node.annotation)
        if (
            target is not None
            and cname is not None
            and isinstance(target, ast.Name)
        ):
            hints.setdefault(target.id, cname)
    return hints
