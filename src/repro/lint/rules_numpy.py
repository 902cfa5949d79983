"""Float-doctrine rule RPR402: no libm-divergent numpy ufuncs.

The vectorized batch engine is built on a *bit-exact doctrine*: every
``batch_*`` kernel performs the same IEEE float64 operations in the same
order as its scalar twin (``docs/batch-simulation.md``).  Most of the
doctrine is proved dynamically — the Hypothesis kernel bit-equality
tests, the engine-parity tests, the pinned digests and
``repro verify --batch``.  Those prove libm agreement only on the numpy
build and CPU they ran on, though: ``np.power``, ``np.exp2`` and
friends route through SIMD kernels that differ from libm by 1 ulp on a
few percent of inputs on some CPUs (AVX-512 hosts for ``np.power``) and
agree on others.  So a kernel calling one can pass every test on one
host and diverge on the next.  RPR402 flags those calls by name, and
any ``**`` (which dispatches to ``np.power`` on arrays), in the modules
carrying the ``# repro: float-doctrine`` pragma; the doctrine mandates
element-wise libm wrappers (``_libm_pow``) there instead.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.lint.engine import (
    Diagnostic,
    ModuleContext,
    Rule,
    register_rule,
)

__all__ = [
    "DEFAULT_DIVERGENT_UFUNCS",
    "SimdDivergentUfuncRule",
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


def _np_attr(func: ast.expr) -> str | None:
    """``np.<attr>`` / ``numpy.<attr>`` call target, else ``None``."""
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
    ):
        return func.attr
    return None


class SimdDivergentUfuncRule(Rule):
    code = "RPR402"
    name = "no-simd-divergent-ufunc"
    description = (
        "numpy's SIMD transcendental kernels (np.power, np.exp2, ...) "
        "differ from libm by 1 ulp on some inputs and CPUs; doctrine "
        "modules must use element-wise libm wrappers (_libm_pow-style) "
        "and no `**`"
    )
    run_on_tests = False

    def check_module(self, ctx: ModuleContext) -> Iterator[Diagnostic]:
        if not is_doctrine_module(ctx):
            return
        for node in ctx.walk():
            if isinstance(node, ast.Call):
                attr = _np_attr(node.func)
                if attr in DEFAULT_DIVERGENT_UFUNCS:
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
                yield ctx.diagnostic(
                    node,
                    self.code,
                    "`**` on an array dispatches to np.power's SIMD "
                    "kernel, and this check cannot tell arrays from "
                    "floats; use an element-wise libm wrapper "
                    "(_libm_pow-style)",
                )


register_rule(SimdDivergentUfuncRule())
