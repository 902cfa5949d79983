"""Commit-path write discipline (RPR506-507).

Result, journal and export files must go through the
write-temp/fsync/rename protocol of
:func:`repro.serialization.atomic_write_text`, so a crash leaves the old
file or the complete new one, never a torn one.  No test can see a
missing fsync in a writer added later, so these stay static checks:

* RPR506 flags bare write-mode ``open`` / ``Path.write_text`` sites in a
  function that never fsyncs;
* RPR507 flags ``os.replace``/``os.rename`` in a function that never
  fsyncs the data first.

Both are per-module AST checks, and both see through a name bound to
``open`` or ``os.replace``/``os.rename`` by a plain assignment
(``_commit = os.replace``).  A deliberately crash-unsafe writer is
exempted with an inline suppression and its reason.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from repro.lint.engine import (
    Diagnostic,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = ["AtomicWriteRule", "RenameWithoutFsyncRule"]

_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


#: What a name may spell through a plain alias (``_open = open``).
_ALIASED = ("open", "os.replace", "os.rename")


def _open_write_mode(node: ast.Call, aliases: dict[str, str]) -> str | None:
    """The write-ish mode string of an ``open(...)`` call, if any."""
    func = node.func
    if not (isinstance(func, ast.Name) and aliases.get(func.id) == "open"):
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


def _rename_call(node: ast.Call, aliases: dict[str, str]) -> str | None:
    origin = aliases.get(dotted_name(node.func) or "")
    if origin in ("os.replace", "os.rename"):
        return origin
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
        "atomic_write_text"
    )
    run_on_tests = False

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        aliases = ctx.name_aliases(_ALIASED)
        for qualname, body in _iter_scopes(ctx.tree):
            candidates: list[tuple[ast.Call, str]] = []
            for node in _scope_statements(body):
                if not isinstance(node, ast.Call):
                    continue
                mode = _open_write_mode(node, aliases)
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
                    "payload in memory and call atomic_write_text",
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
        aliases = ctx.name_aliases(_ALIASED)
        for qualname, body in _iter_scopes(ctx.tree):
            renames = [
                (node, spelled)
                for node in _scope_statements(body)
                if isinstance(node, ast.Call)
                and (spelled := _rename_call(node, aliases)) is not None
            ]
            if not renames or _calls_fsync(body):
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


register_rule(AtomicWriteRule())
register_rule(RenameWithoutFsyncRule())
