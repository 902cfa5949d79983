"""Scalar↔batch parity registry and the RPR410 cross-module check.

The batch engine's correctness story rests on *twinning*: every scalar
decision/predictor function has a vectorized ``batch_*`` twin that
performs the same IEEE float64 operations in the same order
(``docs/batch-simulation.md``).  The twins are structurally different
code — early returns versus masked ``np.where`` — so the doctrine cannot
be checked by comparing the two ASTs directly.  Instead, each side's
*float-op fingerprint* (the ordered sequence of arithmetic/comparison/
libm-call tokens extracted from its AST) is **pinned** here, and RPR410
fires when either side drifts from its pin or a registered function
disappears.  A pin mismatch is not necessarily a bug — it is a demand
for review: whoever edits a kernel must re-derive the twin's sequence,
re-run the ``repro verify --batch`` differential suite, and refresh the
pin in the same commit (``python -m repro.lint.parity --print``).

The registry also records which schedulers each pair *covers*;
``python -m repro.lint.parity --coverage`` asserts every scheduler in
``repro.sched.vectorized.SCHEDULER_KINDS`` is reached by at least one
pair (the nightly CI step), so a new batch kernel cannot land without
entering the parity contract.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Sequence

from repro.lint.engine import (
    Diagnostic,
    ModuleContext,
    ProjectRule,
    register_rule,
)

__all__ = [
    "PAIRS",
    "FunctionRef",
    "ParityPair",
    "ParityRule",
    "extract_fingerprint",
    "find_function",
]


@dataclasses.dataclass(frozen=True)
class FunctionRef:
    """One side of a parity pair: a function in a module."""

    #: Module path relative to the source root, posix separators
    #: (matched against ``ModuleContext.display_path`` by suffix so the
    #: lint root does not matter).
    path: str
    #: Dotted name inside the module (``Class.method`` or ``function``).
    qualname: str

    def matches_module(self, display_path: str) -> bool:
        normalized = display_path.replace("\\", "/")
        return normalized == self.path or normalized.endswith(
            "/" + self.path
        )


@dataclasses.dataclass(frozen=True)
class ParityPair:
    """A scalar function and its vectorized twin."""

    name: str
    scalar: FunctionRef
    batch: FunctionRef
    #: Scheduler registry names whose batch path exercises this pair.
    covers: tuple[str, ...] = ()


#: The machine-checked doctrine contract.  Every scalar decision or
#: predictor function with a vectorized twin is listed; the nightly
#: coverage check closes the loop against ``SCHEDULER_KINDS``.
PAIRS: tuple[ParityPair, ...] = (
    ParityPair(
        name="compute-plan",
        scalar=FunctionRef("repro/core/slowdown.py", "compute_plan"),
        batch=FunctionRef(
            "repro/sched/vectorized.py", "batch_compute_plan"
        ),
        covers=("ea-dvfs", "ea-dvfs-noslowdown"),
    ),
    ParityPair(
        name="min-feasible-level",
        scalar=FunctionRef(
            "repro/cpu/dvfs.py", "FrequencyScale.min_feasible_level"
        ),
        batch=FunctionRef(
            "repro/sched/vectorized.py", "batch_min_feasible_level"
        ),
        covers=("ea-dvfs", "ea-dvfs-noslowdown"),
    ),
    ParityPair(
        name="scheduler-decide",
        scalar=FunctionRef("repro/core/ea_dvfs.py", "EaDvfsScheduler.decide"),
        batch=FunctionRef("repro/sched/vectorized.py", "batch_decide"),
        covers=("edf", "lsa", "ea-dvfs", "ea-dvfs-noslowdown"),
    ),
    ParityPair(
        name="time-compare",
        scalar=FunctionRef("repro/timeutils.py", "time_le"),
        batch=FunctionRef("repro/sched/vectorized.py", "batch_time_le"),
        covers=("edf", "lsa", "ea-dvfs", "ea-dvfs-noslowdown"),
    ),
    ParityPair(
        name="mean-observe",
        scalar=FunctionRef(
            "repro/energy/predictor.py", "MeanPowerPredictor.observe"
        ),
        batch=FunctionRef(
            "repro/energy/vectorized.py", "batch_mean_observe"
        ),
    ),
    ParityPair(
        name="last-value-observe",
        scalar=FunctionRef(
            "repro/energy/predictor.py", "LastValuePredictor.observe"
        ),
        batch=FunctionRef(
            "repro/energy/vectorized.py", "batch_last_observe"
        ),
    ),
    ParityPair(
        name="span-predict",
        scalar=FunctionRef(
            "repro/energy/predictor.py",
            "MeanPowerPredictor.predict_energy",
        ),
        batch=FunctionRef(
            "repro/energy/vectorized.py", "batch_span_predict"
        ),
    ),
    ParityPair(
        name="snap-tail",
        scalar=FunctionRef("repro/energy/predictor.py", "_snap_tail"),
        batch=FunctionRef(
            "repro/energy/vectorized.py", "_batch_snap_tail"
        ),
    ),
    ParityPair(
        name="profile-walk",
        scalar=FunctionRef("repro/energy/predictor.py", "profile_segments"),
        batch=FunctionRef("repro/energy/vectorized.py", "_profile_walk"),
    ),
    ParityPair(
        name="profile-predict",
        scalar=FunctionRef(
            "repro/energy/predictor.py", "ProfilePredictor.predict_energy"
        ),
        batch=FunctionRef(
            "repro/energy/vectorized.py", "batch_profile_predict"
        ),
    ),
    ParityPair(
        name="profile-observe",
        scalar=FunctionRef(
            "repro/energy/predictor.py", "ProfilePredictor.observe"
        ),
        batch=FunctionRef(
            "repro/energy/vectorized.py", "batch_profile_observe"
        ),
    ),
)


# ---------------------------------------------------------------------------
# Fingerprint extraction
# ---------------------------------------------------------------------------

_BINOP_TOKENS: dict[type[ast.operator], str] = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.Div: "div",
    ast.FloorDiv: "floordiv",
    ast.Mod: "mod",
    ast.Pow: "pow",
    ast.MatMult: "matmul",
}

_CMP_TOKENS: dict[type[ast.cmpop], str] = {
    ast.Lt: "lt",
    ast.LtE: "le",
    ast.Gt: "gt",
    ast.GtE: "ge",
    ast.Eq: "eq",
    ast.NotEq: "ne",
}

#: Call targets normalized to a shared token so the scalar spelling
#: (``math.pow``, ``max``) and the batch spelling (``_libm_pow``,
#: ``np.maximum``) fingerprint identically — the doctrine declares those
#: pairs bit-equivalent.  ``np.power`` deliberately maps to a *distinct*
#: token: swapping ``_libm_pow`` for ``np.power`` must change the
#: fingerprint (that is the RPR402 divergence the pin protects against).
_CALL_TOKENS: dict[str, str] = {
    "max": "max",
    "maximum": "max",
    "fmax": "max",
    "min": "min",
    "minimum": "min",
    "fmin": "min",
    "abs": "abs",
    "absolute": "abs",
    "fabs": "abs",
    "pow": "pow",
    "_libm_pow": "pow",
    "power": "pow[simd]",
    "float_power": "pow[simd]",
    "sqrt": "sqrt",
    "nextafter": "nextafter",
    "fmod": "mod",
    "remainder": "mod",
    "isinf": "isinf",
    "isnan": "isnan",
    "isfinite": "isfinite",
    "cumsum": "cumsum",
    "where": "select",
    "cos": "cos",
    "sin": "sin",
    "tan": "tan",
    "exp": "exp",
    "log": "log",
    "floor": "floor",
    "ceil": "ceil",
    "trunc": "trunc",
}


class _FingerprintVisitor(ast.NodeVisitor):
    """Collect float-op tokens in evaluation (post-)order."""

    def __init__(self) -> None:
        self.tokens: list[str] = []

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self.visit(node.left)
        self.visit(node.right)
        token = _BINOP_TOKENS.get(type(node.op))
        if token is not None:
            self.tokens.append(token)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> None:
        self.visit(node.operand)
        if isinstance(node.op, ast.USub):
            self.tokens.append("neg")

    def visit_Compare(self, node: ast.Compare) -> None:
        self.visit(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            self.visit(comparator)
            token = _CMP_TOKENS.get(type(op))
            if token is not None:
                self.tokens.append(token)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        token = _BINOP_TOKENS.get(type(node.op))
        if token is not None:
            self.tokens.append(token)

    def visit_Call(self, node: ast.Call) -> None:
        self.visit(node.func)
        for arg in node.args:
            self.visit(arg)
        for keyword in node.keywords:
            self.visit(keyword.value)
        name: str | None = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name is not None:
            token = _CALL_TOKENS.get(name)
            if token is not None:
                self.tokens.append(token)


def find_function(
    tree: ast.Module, qualname: str
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """Locate ``Class.method`` / ``function`` in a module AST."""
    parts = qualname.split(".")
    body: Sequence[ast.stmt] = tree.body
    for depth, part in enumerate(parts):
        found = None
        last = depth == len(parts) - 1
        for stmt in body:
            if last and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if stmt.name == part:
                    return stmt
            elif not last and isinstance(stmt, ast.ClassDef):
                if stmt.name == part:
                    found = stmt
                    break
        if found is None:
            return None
        body = found.body
    return None


def extract_fingerprint(
    tree: ast.Module, qualname: str
) -> tuple[str, ...] | None:
    """Ordered float-op token sequence of one function, or ``None``."""
    func = find_function(tree, qualname)
    if func is None:
        return None
    visitor = _FingerprintVisitor()
    for stmt in func.body:
        visitor.visit(stmt)
    return tuple(visitor.tokens)


def _first_divergence(
    pinned: Sequence[str], actual: Sequence[str]
) -> str:
    for i, (want, got) in enumerate(zip(pinned, actual)):
        if want != got:
            return f"first divergence at op {i}: pinned {want!r}, found {got!r}"
    if len(pinned) < len(actual):
        return (
            f"extra op at {len(pinned)}: found {actual[len(pinned)]!r} "
            f"beyond the {len(pinned)}-op pin"
        )
    return (
        f"missing op at {len(actual)}: pin expects "
        f"{pinned[len(actual)]!r}, function ends"
    )


# ---------------------------------------------------------------------------
# Pinned fingerprints
# ---------------------------------------------------------------------------
#
# Generated by ``python -m repro.lint.parity --print``.  Refresh a pin
# ONLY together with a green ``repro verify --batch`` run: the pin is
# the reviewable record that the scalar/batch op sequences were
# re-derived after the edit.

_PINNED: dict[str, dict[str, tuple[str, ...]]] = {
    'compute-plan': {
        'scalar': (
            'lt',
            'isnan',
            'lt',
            'sub',
            'isinf',
            'div',
            'div',
            'sub',
            'max',
            'sub',
            'max',
            'sub',
            'le',
            'sub',
            'le',
        ),
        'batch': (
            'sub',
            'lt',
            'select',
            'sub',
            'ge',
            'select',
            'div',
            'div',
            'sub',
            'max',
            'select',
            'sub',
            'max',
            'select',
            'sub',
            'le',
            'select',
            'select',
            'select',
            'select',
            'sub',
            'le',
        ),
    },
    'min-feasible-level': {
        'scalar': (
            'lt',
            'lt',
            'add',
            'le',
        ),
        'batch': (
            'div',
            'add',
            'le',
            'ge',
            'neg',
            'select',
        ),
    },
    'scheduler-decide': {
        'scalar': (
            'add',
            'gt',
        ),
        'batch': (
            'sub',
            'neg',
            'eq',
            'div',
            'sub',
            'max',
            'add',
            'gt',
            'eq',
            'eq',
            'lt',
            'add',
            'gt',
            'isinf',
            'div',
            'sub',
            'max',
            'select',
            'select',
            'add',
            'gt',
        ),
    },
    'time-compare': {
        'scalar': (
            'le',
        ),
        'batch': (
            'sub',
            'eq',
            'abs',
            'le',
            'lt',
        ),
    },
    'mean-observe': {
        'scalar': (
            'sub',
            'le',
            'div',
            'max',
            'sub',
            'pow',
            'mul',
            'sub',
            'mul',
            'add',
        ),
        'batch': (
            'div',
            'max',
            'sub',
            'pow',
            'mul',
            'sub',
            'mul',
            'add',
        ),
    },
    'last-value-observe': {
        'scalar': (
            'sub',
            'le',
            'div',
            'max',
        ),
        'batch': (
            'div',
            'max',
        ),
    },
    'span-predict': {
        'scalar': (
            'sub',
            'le',
            'sub',
            'mul',
        ),
        'batch': (
            'sub',
            'le',
            'mul',
            'select',
        ),
    },
    'snap-tail': {
        'scalar': (
            'sub',
            'add',
            'eq',
            'lt',
            'neg',
            'nextafter',
        ),
        'batch': (
            'sub',
            'add',
            'ne',
            'lt',
            'neg',
            'select',
            'nextafter',
            'select',
        ),
    },
    'profile-walk': {
        'scalar': (
            'sub',
            'le',
            'mod',
            'div',
            'sub',
            'min',
            'add',
            'add',
            'mul',
            'sub',
            'add',
            'mod',
            'ge',
            'gt',
            'gt',
            'sub',
            'add',
            'add',
        ),
        'batch': (
            'sub',
            'div',
            'sub',
            'min',
            'div',
            'max',
            'add',
            'add',
            'add',
            'mul',
            'sub',
            'max',
            'ge',
            'neg',
            'isfinite',
            'isfinite',
            'add',
            'neg',
        ),
    },
    'profile-predict': {
        'scalar': (
            'sub',
            'le',
            'mul',
        ),
        'batch': (
            'sub',
            'gt',
            'eq',
            'lt',
            'mul',
            'add',
            'mul',
            'cumsum',
            'neg',
        ),
    },
    'profile-observe': {
        'scalar': (
            'sub',
            'le',
            'div',
            'max',
            'sub',
            'div',
            'pow',
            'mul',
            'sub',
            'mul',
            'add',
        ),
        'batch': (
            'eq',
            'sub',
            'div',
            'max',
            'sub',
            'min',
            'add',
            'add',
            'div',
            'pow',
            'mul',
            'sub',
            'mul',
            'add',
            'select',
        ),
    },
}


class ParityRule(ProjectRule):
    code = "RPR410"
    name = "scalar-batch-parity"
    run_on_tests = False
    description = (
        "a registered scalar/batch twin's float-op sequence diverged "
        "from its pin (or a registered function is missing); re-derive "
        "the twin, re-run `repro verify --batch`, refresh the pin with "
        "`python -m repro.lint.parity --print`"
    )

    def check_project(
        self, modules: Sequence[ModuleContext]
    ) -> Iterator[Diagnostic]:
        for ctx in modules:
            for pair in PAIRS:
                for side in ("scalar", "batch"):
                    ref: FunctionRef = getattr(pair, side)
                    if not ref.matches_module(ctx.display_path):
                        continue
                    yield from self._check_side(ctx, pair, side, ref)

    def _check_side(
        self,
        ctx: ModuleContext,
        pair: ParityPair,
        side: str,
        ref: FunctionRef,
    ) -> Iterator[Diagnostic]:
        actual = extract_fingerprint(ctx.tree, ref.qualname)
        if actual is None:
            yield Diagnostic(
                path=ctx.display_path,
                line=1,
                col=1,
                code=self.code,
                message=(
                    f"parity pair {pair.name!r}: registered {side} "
                    f"function `{ref.qualname}` not found in this "
                    "module; update repro/lint/parity.py with the twin"
                ),
            )
            return
        pinned = _PINNED.get(pair.name, {}).get(side)
        func = find_function(ctx.tree, ref.qualname)
        line = func.lineno if func is not None else 1
        if pinned is None:
            yield Diagnostic(
                path=ctx.display_path,
                line=line,
                col=1,
                code=self.code,
                message=(
                    f"parity pair {pair.name!r} ({side}) has no pinned "
                    "fingerprint; run `python -m repro.lint.parity "
                    "--print` and commit the pin"
                ),
            )
            return
        if tuple(actual) != tuple(pinned):
            yield Diagnostic(
                path=ctx.display_path,
                line=line,
                col=1,
                code=self.code,
                message=(
                    f"`{ref.qualname}` diverged from the pinned "
                    f"{side} float-op sequence of pair {pair.name!r} "
                    f"({_first_divergence(pinned, actual)}); re-derive "
                    "the twin, re-run `repro verify --batch`, and "
                    "refresh the pin"
                ),
            )


# Under ``python -m repro.lint.parity`` this module body runs twice:
# once as the canonical ``repro.lint.parity`` (imported by the package)
# and once as ``__main__`` (runpy).  Only the canonical copy registers,
# or the engine would see a duplicate RPR410.
if __name__ != "__main__":
    register_rule(ParityRule())


# ---------------------------------------------------------------------------
# CLI: pin generation and coverage assertion
# ---------------------------------------------------------------------------


def _load_side(root: str, ref: FunctionRef) -> tuple[str, ...] | None:
    from pathlib import Path

    path = Path(root) / "src" / ref.path
    if not path.exists():
        return None
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return extract_fingerprint(tree, ref.qualname)


def _print_pins(root: str) -> int:
    print("_PINNED: dict[str, dict[str, tuple[str, ...]]] = {")
    status = 0
    for pair in PAIRS:
        print(f"    {pair.name!r}: {{")
        for side in ("scalar", "batch"):
            ref: FunctionRef = getattr(pair, side)
            fingerprint = _load_side(root, ref)
            if fingerprint is None:
                print(f"        # {side}: `{ref.qualname}` NOT FOUND")
                status = 1
                continue
            print(f"        {side!r}: (")
            for token in fingerprint:
                print(f"            {token!r},")
            print("        ),")
        print("    },")
    print("}")
    return status


def _check_coverage() -> int:
    # Imported lazily so plain lint runs never pay the numpy import.
    from repro.lint.coverage import check_coverage
    from repro.sched.vectorized import SCHEDULER_KINDS

    covered: set[str] = set()
    for pair in PAIRS:
        covered.update(pair.covers)
    return check_coverage(
        required=SCHEDULER_KINDS,
        covered=covered,
        describe_missing=lambda name: (
            f"scheduler {name!r} has a batch kernel but no parity "
            "pair covers it; add one to repro/lint/parity.py"
        ),
        describe_extra=lambda name: (
            f"parity registry covers unknown scheduler {name!r}"
        ),
        success_message=(
            f"parity registry covers all {len(SCHEDULER_KINDS)} batch "
            f"schedulers via {len(PAIRS)} pairs"
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.parity",
        description="Scalar/batch parity registry utilities.",
    )
    parser.add_argument(
        "--print",
        action="store_true",
        dest="print_pins",
        help="emit the current _PINNED literal (paste into parity.py)",
    )
    parser.add_argument(
        "--coverage",
        action="store_true",
        help="assert every batch scheduler is covered by a parity pair",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root containing src/ (default: cwd)",
    )
    options = parser.parse_args(argv)
    if options.print_pins:
        return _print_pins(options.root)
    if options.coverage:
        return _check_coverage()
    parser.error("one of --print / --coverage is required")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
