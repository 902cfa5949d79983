"""Float-determinism rules (RPR401-RPR405).

The vectorized batch engine is built on a *bit-exact doctrine*: every
``batch_*`` kernel performs the same IEEE float64 operations in the same
order as its scalar twin (``docs/batch-simulation.md``).  The doctrine
was previously enforced only dynamically — ``repro verify --batch``
sampling and the accumulation-contract canaries — so a doctrine-breaking
edit stayed invisible until a seed happened to hit it.  This family makes
the common violation shapes a lint failure at commit time:

* RPR401 — nondeterministic-order reduction: ``np.sum`` / ``np.dot`` /
  ``@`` over float arrays use pairwise/SIMD accumulation whose grouping
  is shape- and build-dependent.  The pinned idiom is ``np.cumsum``
  (strictly left-to-right per the accumulation contract) or an explicit
  scalar loop.
* RPR402 — SIMD-divergent ufunc: ``np.power``, ``np.exp2`` and friends
  route through SIMD polynomial kernels that differ from libm by 1 ulp
  on a few percent of inputs.  The doctrine mandates element-wise libm
  wrappers (``_libm_pow``-style) so scalar and batch engines agree bit
  for bit.  The table is configurable per rule instance.
* RPR403 — silent dtype promotion: float64 kernels must not mix integer
  arrays into float arithmetic (the promotion is correct but implicit —
  pin it with ``.astype(np.float64)``) nor introduce non-float64 floats.
* RPR404 — unstable sort: ``np.sort``/``argsort`` default to introsort,
  whose tie order is implementation-defined.  Lane/event ordering must
  use ``kind="stable"`` or ``np.lexsort``.
* RPR405 — in-place mutation of a parameter: a kernel that writes
  through an input view aliases caller state; accidental aliasing is a
  classic silent-divergence source.  Kernels that mutate by contract
  opt out by saying "in place" in their docstring.

The family is *opt-in per module*: rules fire only in files carrying the
``# repro: float-doctrine`` pragma (the three vectorized kernel modules).
Everywhere else numpy is used for analysis/plotting where bit-exactness
across engines is not a contract.  All checks consume the conservative
array-kind facet (:func:`repro.lint.dataflow.analyze_arrays`): only
*positive* knowledge (annotations, numpy constructors) triggers a
finding, so an unannotated expression never false-positives.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.dataflow import ArrayKind
from repro.lint.engine import (
    Diagnostic,
    ModuleContext,
    Rule,
    register_rule,
)

__all__ = [
    "DEFAULT_DIVERGENT_UFUNCS",
    "DtypePromotionRule",
    "InPlaceParamMutationRule",
    "SimdDivergentUfuncRule",
    "UnorderedReductionRule",
    "UnstableSortRule",
    "is_doctrine_module",
]

#: Pragma marking a module as subject to the bit-exact doctrine.  Must
#: be a real comment token so prose mentioning the pragma (docstrings,
#: documentation snippets) does not opt a module in by accident; the
#: engine's shared comment stream provides that for free.
_DOCTRINE_RE = re.compile(r"^#\s*repro:\s*float-doctrine\b")

#: numpy ufuncs with SIMD kernels known (or suspected) to diverge from
#: libm by >= 1 ulp on some inputs.  ``np.sqrt`` is absent on purpose:
#: IEEE 754 requires it correctly rounded, so SIMD and libm agree.
#: Retirement path for an entry: prove equality exhaustively against the
#: scalar engine's libm calls (see the ``_libm_pow`` canary in
#: tests/sched/test_vectorized_kernels.py), then drop it here and
#: replace the wrapper in the same PR.
DEFAULT_DIVERGENT_UFUNCS = frozenset(
    {
        "power",
        "float_power",
        "exp",
        "exp2",
        "expm1",
        "log",
        "log2",
        "log10",
        "log1p",
        "sin",
        "cos",
        "tan",
        "sinh",
        "cosh",
        "tanh",
        "arcsin",
        "arccos",
        "arctan",
        "arctan2",
        "cbrt",
        "hypot",
    }
)

#: ``np.`` reductions whose result depends on accumulation order over
#: floats.  ``max``/``min``/``any``/``all`` are order-insensitive.
_ORDERED_REDUCTIONS = frozenset(
    {
        "sum",
        "nansum",
        "dot",
        "vdot",
        "inner",
        "matmul",
        "tensordot",
        "einsum",
        "prod",
        "nanprod",
        "mean",
        "nanmean",
        "average",
        "std",
        "var",
        "median",
        "trace",
    }
)

#: Reduction *methods* checked against the receiver's facet kind.
_ORDERED_REDUCTION_METHODS = frozenset(
    {"sum", "dot", "mean", "prod", "std", "var"}
)

#: dtype tokens that break the float64-only doctrine when spelled out.
_NON_F64_FLOAT_TOKENS = frozenset(
    {"float32", "float16", "half", "single", "longdouble", "float128"}
)

_ARITH_OPS = (
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.FloorDiv,
    ast.Mod,
    ast.Pow,
)


def is_doctrine_module(ctx: ModuleContext) -> bool:
    """Whether the module opted into the bit-exact float doctrine.

    Reads the comment stream the engine tokenized once per file instead
    of re-scanning the raw source; hand-built contexts without a stream
    fall back to tokenizing here.
    """
    comments = ctx.comments
    if comments is None:
        from repro.lint.engine import _iter_comments

        comments = tuple(_iter_comments(ctx.source))
    lines = ctx.source.splitlines()
    return any(
        _DOCTRINE_RE.match(text) is not None
        # Whole-line comments only: a trailing `x = 1  # repro: ...`
        # does not opt the module in.
        and lines[line - 1].lstrip().startswith("#")
        for line, text in comments
    )


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _np_attr(func: ast.expr) -> str | None:
    """``np.<attr>`` / ``numpy.<attr>`` call target, else ``None``."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


class _DoctrineRule(Rule):
    """Base: applies only in ``# repro: float-doctrine`` modules."""

    run_on_tests = False

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not is_doctrine_module(ctx):
            return
        yield from self.check_doctrine(ctx)

    def check_doctrine(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        raise NotImplementedError


class UnorderedReductionRule(_DoctrineRule):
    code = "RPR401"
    name = "no-unordered-float-reduction"
    description = (
        "np.sum/np.dot/@ over float arrays accumulate in a shape- and "
        "build-dependent order; use np.cumsum (left-to-right contract) "
        "or an explicit loop in doctrine modules"
    )

    def check_doctrine(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        arrays = ctx.arrays
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                attr = _np_attr(node.func)
                if (
                    attr in _ORDERED_REDUCTIONS
                    and node.args
                    and arrays.kind_of(node.args[0])
                    is ArrayKind.FLOAT_ARRAY
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"np.{attr} over a float array reduces in "
                        "unspecified order; the doctrine idiom is "
                        "np.cumsum (strict left-to-right) or a scalar "
                        "loop",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDERED_REDUCTION_METHODS
                    and arrays.kind_of(node.func.value)
                    is ArrayKind.FLOAT_ARRAY
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f".{node.func.attr}() on a float array reduces "
                        "in unspecified order; use np.cumsum or a "
                        "scalar loop",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.MatMult
            ):
                if ArrayKind.FLOAT_ARRAY in (
                    arrays.kind_of(node.left),
                    arrays.kind_of(node.right),
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "`@` (matmul) over float arrays accumulates in "
                        "unspecified order; doctrine kernels must pin "
                        "the accumulation explicitly",
                    )


class SimdDivergentUfuncRule(_DoctrineRule):
    code = "RPR402"
    name = "no-simd-divergent-ufunc"
    description = (
        "numpy's SIMD transcendental kernels (np.power, np.exp2, ...) "
        "differ from libm by 1 ulp on some inputs; doctrine kernels must "
        "use element-wise libm wrappers (_libm_pow-style)"
    )

    def __init__(
        self, divergent: frozenset[str] = DEFAULT_DIVERGENT_UFUNCS
    ) -> None:
        self.divergent = divergent

    def check_doctrine(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        arrays = ctx.arrays
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                attr = _np_attr(node.func)
                if attr in self.divergent:
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"np.{attr} uses a SIMD kernel that can differ "
                        "from the scalar engine's libm call by 1 ulp; "
                        "use an element-wise libm wrapper "
                        "(_libm_pow-style)",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, ast.Pow
            ):
                if ArrayKind.FLOAT_ARRAY in (
                    arrays.kind_of(node.left),
                    arrays.kind_of(node.right),
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "`**` on a float array dispatches to np.power's "
                        "SIMD kernel; use an element-wise libm wrapper "
                        "(_libm_pow-style)",
                    )


class DtypePromotionRule(_DoctrineRule):
    code = "RPR403"
    name = "no-silent-dtype-promotion"
    description = (
        "int arrays mixed into float64 arithmetic promote silently; pin "
        "the conversion with .astype(np.float64), and never introduce "
        "non-float64 float dtypes in doctrine modules"
    )

    def check_doctrine(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        arrays = ctx.arrays
        for node in ctx.walk():
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, _ARITH_OPS
            ):
                kinds = (
                    arrays.kind_of(node.left),
                    arrays.kind_of(node.right),
                )
                if ArrayKind.INT_ARRAY in kinds and any(
                    kind
                    in (ArrayKind.FLOAT_ARRAY, ArrayKind.FLOAT_SCALAR)
                    for kind in kinds
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        "int array promotes silently into float "
                        "arithmetic; pin it with .astype(np.float64) so "
                        "the conversion point is explicit",
                    )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                    and node.attr in _NON_F64_FLOAT_TOKENS
                ):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"np.{node.attr} breaks the float64-only "
                        "doctrine; batch kernels must match the scalar "
                        "engine's float64 arithmetic exactly",
                    )
            elif isinstance(node, ast.Constant) and (
                isinstance(node.value, str)
                and node.value in _NON_F64_FLOAT_TOKENS
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"dtype string {node.value!r} breaks the "
                    "float64-only doctrine",
                )


class UnstableSortRule(_DoctrineRule):
    code = "RPR404"
    name = "stable-sort-only"
    description = (
        "np.sort/argsort default to introsort with unspecified tie "
        "order; lane/event ordering must pass kind=\"stable\" or use "
        "np.lexsort"
    )

    _STABLE_KINDS = ("stable", "mergesort")

    def _has_stable_kind(self, node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "kind":
                return (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value in self._STABLE_KINDS
                )
        return False

    def check_doctrine(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        arrays = ctx.arrays
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            attr = _np_attr(node.func)
            if attr in ("sort", "argsort"):
                if not self._has_stable_kind(node):
                    yield ctx.diagnostic(
                        node,
                        self.code,
                        f"np.{attr} without kind=\"stable\" leaves tie "
                        "order unspecified; pass kind=\"stable\" or use "
                        "np.lexsort",
                    )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("sort", "argsort")
                and arrays.kind_of(node.func.value).is_array
                and not self._has_stable_kind(node)
            ):
                # Only flag array receivers: Python's list.sort is
                # already stable by definition.
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f".{node.func.attr}() on an array without "
                    "kind=\"stable\" leaves tie order unspecified",
                )


#: In-place ndarray methods that mutate the receiver.
_INPLACE_METHODS = frozenset(
    {"sort", "fill", "partition", "put", "resize", "setfield"}
)

_OPT_OUT_RE = re.compile(r"in[- ]place", re.IGNORECASE)


class InPlaceParamMutationRule(_DoctrineRule):
    code = "RPR405"
    name = "no-inplace-param-mutation"
    description = (
        "writing through a parameter (or a view of one) aliases caller "
        "state; kernels that mutate by contract must say \"in place\" "
        "in their docstring"
    )

    _VIEW_METHODS = frozenset({"reshape", "ravel", "view", "flatten"})

    def check_doctrine(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        for node in ctx.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(
        self,
        ctx: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Diagnostic]:
        doc = ast.get_docstring(func)
        if doc is not None and _OPT_OUT_RE.search(doc):
            return
        args = func.args
        params = {
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if arg.arg not in ("self", "cls")
        }
        if not params:
            return
        aliases = set(params)
        # One forward pass: grow the alias set (x = param, x = param[...],
        # x = param.view()), then flag stores through any alias.  Nested
        # function definitions have their own parameter scope and are
        # visited separately by ``check_doctrine``.
        for stmt in ast.walk(func):
            if isinstance(stmt, ast.Assign):
                if self._aliases_param(stmt.value, aliases):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            aliases.add(target.id)
                for target in stmt.targets:
                    yield from self._check_store(ctx, target, aliases)
            elif isinstance(stmt, ast.AugAssign):
                yield from self._check_store(ctx, stmt.target, aliases)
            elif isinstance(stmt, ast.Call):
                yield from self._check_call(ctx, stmt, aliases)

    def _root_name(self, node: ast.expr) -> str | None:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _aliases_param(self, value: ast.expr, aliases: set[str]) -> bool:
        if isinstance(value, ast.Name):
            return value.id in aliases
        if isinstance(value, ast.Subscript):
            root = self._root_name(value)
            return root is not None and root in aliases
        if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Attribute
        ):
            if value.func.attr in self._VIEW_METHODS:
                root = self._root_name(value.func.value)
                return root is not None and root in aliases
        return False

    def _check_store(
        self, ctx: ModuleContext, target: ast.expr, aliases: set[str]
    ) -> Iterator[Diagnostic]:
        if isinstance(target, ast.Subscript):
            root = self._root_name(target)
            if root is not None and root in aliases:
                yield ctx.diagnostic(
                    target,
                    self.code,
                    f"store through parameter `{root}` mutates caller "
                    "state in place; copy first, or declare the "
                    "contract with \"in place\" in the docstring",
                )

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, aliases: set[str]
    ) -> Iterator[Diagnostic]:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _INPLACE_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in aliases
        ):
            yield ctx.diagnostic(
                node,
                self.code,
                f"in-place `.{node.func.attr}()` on parameter "
                f"`{node.func.value.id}` mutates caller state; copy "
                "first, or declare \"in place\" in the docstring",
            )
        for kw in node.keywords:
            if (
                kw.arg == "out"
                and isinstance(kw.value, ast.Name)
                and kw.value.id in aliases
            ):
                yield ctx.diagnostic(
                    node,
                    self.code,
                    f"out={kw.value.id} writes into a parameter in "
                    "place; copy first, or declare \"in place\" in the "
                    "docstring",
                )


register_rule(UnorderedReductionRule())
register_rule(SimdDivergentUfuncRule())
register_rule(DtypePromotionRule())
register_rule(UnstableSortRule())
register_rule(InPlaceParamMutationRule())
