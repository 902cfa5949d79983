"""API-contract rules (RPR301-RPR303).

Three conventions keep the scheduler/verify plumbing sound:

* every concrete :class:`~repro.sched.base.Scheduler` subclass overrides
  :meth:`decide` and declares a ``name`` identifier — the registry, CLI
  tables, and result records all key on it;
* every concrete scheduler defined in the library is reachable through
  :mod:`repro.sched.registry` (either listed in its built-ins or
  registered via ``register_scheduler`` at definition site) — an
  unregistered policy silently falls out of the sweep/verify tiers;
* :class:`~repro.verify.scenarios.ScenarioSpec` is a frozen value
  shared across schedulers for paired comparisons — mutating one
  (``object.__setattr__`` or attribute assignment) desynchronizes the
  worlds the differential harness believes are identical.
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

__all__ = [
    "FrozenSpecMutationRule",
    "SchedulerHooksRule",
    "SchedulerRegistrationRule",
]

#: Class names that are scheduler *frameworks*, not concrete policies.
_BASE_CLASS_NAMES = {"Scheduler"}


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


def _is_scheduler_subclass(cls: ast.ClassDef) -> bool:
    if cls.name in _BASE_CLASS_NAMES:
        return False
    return any(name.endswith("Scheduler") for name in _base_names(cls))


def _is_abstract(cls: ast.ClassDef) -> bool:
    if any(name in ("ABC", "ABCMeta") for name in _base_names(cls)):
        return True
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in item.decorator_list:
                name = deco.attr if isinstance(deco, ast.Attribute) else (
                    deco.id if isinstance(deco, ast.Name) else None
                )
                if name == "abstractmethod":
                    return True
    return False


def _defines(cls: ast.ClassDef, method: str) -> bool:
    return any(
        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and item.name == method
        for item in cls.body
    )


def _assigns_name(cls: ast.ClassDef) -> bool:
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if item.target.id == "name" and item.value is not None:
                return True
        elif isinstance(item, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "name"
                for t in item.targets
            ):
                return True
    return False


def _scheduler_classes(ctx: ModuleContext) -> Iterator[ast.ClassDef]:
    for node in ctx.walk():
        if isinstance(node, ast.ClassDef) and _is_scheduler_subclass(node):
            yield node


class SchedulerHooksRule(Rule):
    code = "RPR301"
    name = "scheduler-hooks"
    description = (
        "concrete Scheduler subclasses must override decide() and declare "
        "a `name` identifier for the registry/CLI"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for cls in _scheduler_classes(ctx):
            if _is_abstract(cls):
                continue
            if not _defines(cls, "decide") and not _assigns_name(cls):
                # Overriding neither hook nor identity: the subclass is a
                # behavioural no-op under a stolen name.
                yield ctx.diagnostic(
                    cls,
                    self.code,
                    f"scheduler subclass {cls.name!r} overrides neither "
                    "decide() nor `name`; a policy must at least carry "
                    "its own registry identity",
                )
            elif _defines(cls, "decide") and not _assigns_name(cls):
                yield ctx.diagnostic(
                    cls,
                    self.code,
                    f"scheduler subclass {cls.name!r} overrides decide() "
                    "but declares no `name: ClassVar[str]`; results and "
                    "the registry key on it",
                )


def _registry(modules: Sequence[ModuleContext]) -> ModuleContext | None:
    return next(
        (
            ctx
            for ctx in modules
            if ctx.display_path.endswith("sched/registry.py")
        ),
        None,
    )


class SchedulerRegistrationRule(ProjectRule):
    code = "RPR302"
    name = "scheduler-registered"
    description = (
        "concrete Scheduler subclasses in the library must be reachable "
        "through sched/registry.py or register_scheduler()"
    )

    def decides(self, modules: Sequence[ModuleContext]) -> bool:
        return _registry(modules) is not None

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Diagnostic]:
        registry = _registry(modules)
        if registry is None:
            # Partial lint run without the registry: the cross-file
            # contract cannot be decided, so stay silent.
            return
        known = {
            node.id
            for node in ast.walk(registry.tree)
            if isinstance(node, ast.Name)
        }
        for ctx in modules:
            if ctx.is_test_code:
                continue
            calls_register = any(
                isinstance(node, ast.Call)
                and (
                    (isinstance(node.func, ast.Name)
                     and node.func.id == "register_scheduler")
                    or (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "register_scheduler")
                )
                for node in ast.walk(ctx.tree)
            )
            for cls in _scheduler_classes(ctx):
                if _is_abstract(cls) or cls.name.startswith("_"):
                    continue
                if cls.name in known or calls_register:
                    continue
                yield ctx.diagnostic(
                    cls,
                    self.code,
                    f"scheduler {cls.name!r} is not referenced by "
                    "sched/registry.py and its module never calls "
                    "register_scheduler(); it is unreachable from the "
                    "CLI/sweep/verify tiers",
                )


#: Variable names treated as ScenarioSpec instances by convention.
_SPEC_NAME_HINTS = ("spec", "scenario")


def _looks_like_spec(name: str) -> bool:
    lowered = name.lower()
    return any(
        lowered == hint or lowered.endswith(f"_{hint}")
        for hint in _SPEC_NAME_HINTS
    )


def _annotation_is_spec(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    return any(
        (isinstance(node, ast.Name) and node.id == "ScenarioSpec")
        or (isinstance(node, ast.Attribute) and node.attr == "ScenarioSpec")
        for node in ast.walk(annotation)
    )


class FrozenSpecMutationRule(Rule):
    code = "RPR303"
    name = "frozen-spec-immutable"
    description = (
        "ScenarioSpec is frozen and shared across paired runs; never "
        "mutate one — build a new spec with dataclasses.replace"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        spec_names = set()
        for node in ctx.walk():
            if isinstance(node, ast.arg) and _annotation_is_spec(node.annotation):
                spec_names.add(node.arg)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and _annotation_is_spec(node.annotation)
                ):
                    spec_names.add(node.target.id)

        def is_spec(name: str) -> bool:
            return name in spec_names or _looks_like_spec(name)

        for node in ctx.walk():
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and is_spec(target.value.id)
                    ):
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            f"attribute assignment on frozen spec "
                            f"`{target.value.id}`; use dataclasses.replace "
                            "to derive a new ScenarioSpec",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "object"
                    and node.args
                ):
                    first = node.args[0]
                    if not (isinstance(first, ast.Name) and first.id == "self"):
                        yield ctx.diagnostic(
                            node,
                            self.code,
                            "object.__setattr__ outside a frozen class's "
                            "own __init__/__post_init__ defeats "
                            "immutability; build a new value instead",
                        )


register_rule(SchedulerHooksRule())
register_rule(SchedulerRegistrationRule())
register_rule(FrozenSpecMutationRule())
