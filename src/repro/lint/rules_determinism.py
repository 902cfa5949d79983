"""Determinism rules (RPR001-RPR004).

The differential and golden-trace harnesses assert *bit-identical*
results across runs, platforms, and execution paths (serial, pool,
salvage).  That only holds when every stochastic or environmental input
is pinned:

* randomness must flow from ``np.random.default_rng(seed)`` with an
  explicit seed — never the global :mod:`random` module or an unseeded
  generator;
* simulated results must not depend on wall-clock reads;
* iteration over sets feeds hash-order (and thus ``PYTHONHASHSEED``)
  into anything order-sensitive downstream.

``time.perf_counter`` / ``time.monotonic`` are *not* flagged: they time
the real execution (progress meters, harness timeouts) and never feed a
simulated value.

The whole family opts out of ``tests/`` (``run_on_tests = False``):
fixtures legitimately draw ad-hoc randomness, and Hypothesis owns its
own entropy.  The other families still apply there.
"""

from __future__ import annotations

import ast
from typing import Container, Iterator

from repro.lint.engine import (
    Diagnostic,
    ModuleContext,
    Rule,
    dotted_name,
    register_rule,
)

__all__ = [
    "GlobalRandomRule",
    "SetIterationRule",
    "UnseededRngRule",
    "WallClockRule",
]

#: Wall-clock attribute reads: ``module -> {attribute, ...}``.
_WALL_CLOCK = {
    "time": {"time", "time_ns", "localtime", "gmtime"},
    "datetime": {"now", "today", "utcnow"},
    "date": {"today"},
}


class GlobalRandomRule(Rule):
    code = "RPR001"
    name = "no-global-random"
    run_on_tests = False
    description = (
        "the stdlib `random` module draws from hidden global state; use "
        "np.random.default_rng(seed) so runs are reproducible"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ctx.walk():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None)
                names = [alias.name for alias in node.names]
                if (isinstance(node, ast.Import) and "random" in names) or (
                    module == "random"
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "import of the stdlib `random` module; route "
                        "randomness through np.random.default_rng(seed)",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = dotted_name(node)
                if dotted is not None and dotted.startswith("random."):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"call into global-state RNG `{dotted}`; use an "
                        "explicit np.random.default_rng(seed) stream",
                    )


class WallClockRule(Rule):
    code = "RPR002"
    name = "no-wall-clock"
    run_on_tests = False
    description = (
        "wall-clock reads (time.time, datetime.now, ...) make simulated "
        "results irreproducible; only simulated time may enter results"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        aliases = _import_aliases(ctx.tree)
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            head, _, rest = dotted.partition(".")
            resolved = aliases.get(head, head) + ("." + rest if rest else "")
            parts = resolved.split(".")
            if len(parts) < 2:
                continue
            base, attr = parts[-2], parts[-1]
            if attr in _WALL_CLOCK.get(base, ()):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"wall-clock read `{dotted}()`; simulated quantities "
                    "must derive from the event clock, not real time",
                )


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Module-level import bindings: local name -> dotted origin.

    ``import time as _time`` binds ``_time`` to ``time``, and ``from time
    import time as now`` binds ``now`` to ``time.time``.
    """
    aliases: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and not stmt.level:
            for alias in stmt.names:
                aliases[alias.asname or alias.name] = (
                    f"{stmt.module}.{alias.name}"
                )
    return aliases


class UnseededRngRule(Rule):
    code = "RPR003"
    name = "seeded-rng"
    run_on_tests = False
    description = (
        "np.random.default_rng() without an explicit seed argument breaks "
        "bit-reproducibility (the whole family is relaxed under tests/)"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or not dotted.endswith("default_rng"):
                continue
            if not node.args and not node.keywords:
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "default_rng() without an explicit seed; pass the "
                    "component's seed so every run is reproducible",
                )
            elif any(
                isinstance(arg, ast.Constant) and arg.value is None
                for arg in node.args
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "default_rng(None) is OS-entropy seeded; pass a real "
                    "seed so every run is reproducible",
                )


#: The set constructors.
_SET_TYPES = ("set", "frozenset")


def _is_set_expr(node: ast.expr, set_names: Container[str]) -> bool:
    """Whether ``node`` builds a set; ``set_names`` holds the names that
    call a set constructor (the builtins and their aliases)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        # set algebra (a & b, a - b, ...) over set expressions
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


#: Builtins that iterate their arguments in order: wrapping a set in one
#: still hands its hash order on (``enumerate(set(names))``).
_ORDER_PRESERVING = frozenset({"enumerate", "zip", "map", "filter", "iter"})


def _iterates_set(node: ast.expr, set_names: Container[str]) -> bool:
    """Whether iterating ``node`` walks a set expression in hash order."""
    if _is_set_expr(node, set_names):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ORDER_PRESERVING
        and any(_iterates_set(arg, set_names) for arg in node.args)
    )


class SetIterationRule(Rule):
    code = "RPR004"
    name = "no-set-iteration-order"
    run_on_tests = False
    description = (
        "iterating a set feeds hash order into downstream results; wrap "
        "in sorted(...) when the order can reach a simulated outcome"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        set_names = ctx.name_aliases(_SET_TYPES)
        for node in ctx.walk():
            target: ast.expr | None = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                target = node.iter
            elif isinstance(node, ast.comprehension):
                target = node.iter
            elif isinstance(node, ast.Call):
                # list(set(..)) / tuple(set(..)) materialize hash order
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1
                ):
                    target = node.args[0]
            if target is not None and _iterates_set(target, set_names):
                yield ctx.diagnostic(
                    target,
                    self.code,
                    "iteration order of a set is hash-dependent; use "
                    "sorted(...) (or keep a list) when order matters",
                )


register_rule(GlobalRandomRule())
register_rule(WallClockRule())
register_rule(UnseededRngRule())
register_rule(SetIterationRule())
