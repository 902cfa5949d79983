"""Array-kind facet: which expressions are float arrays, for RPR4xx.

The float-determinism rules (:mod:`repro.lint.rules_numpy`) need to
know the *numpy value shape* of an expression — a float64 array, an
integer index array, a boolean mask, or a Python scalar: ``np.sum``
over a float array reorders additions, over a boolean mask it merely
counts; ``int_array * 2.0`` silently promotes, ``float_array * 2.0``
does not.

:func:`analyze_arrays` follows values through one function (or the
module body) at a time.  An :class:`_ArrayInterpreter` walks statements
in order, carrying an environment ``name -> ArrayKind``, and records
the kind of every expression it meets.  Only *positive* knowledge
produces a kind: ``FloatArray``/``IntArray``/``BoolArray`` and builtin
scalar annotations, numpy constructors and dtypes, and dtype-preserving
algebra.  Control flow is handled conservatively: branches are
interpreted separately and joined (agreeing kinds survive,
disagreements decay to UNKNOWN), and anything the interpreter cannot
see stays UNKNOWN — so a finding built on the facet is as trustworthy
as the annotation it was seeded from.
"""

from __future__ import annotations

import ast
import enum
from typing import Mapping, Sequence

__all__ = [
    "ArrayKind",
    "ModuleArrays",
    "analyze_arrays",
    "annotation_array_kind",
]


def _target_names(target: ast.expr) -> list[str]:
    names: list[str] = []
    if isinstance(target, ast.Name):
        names.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            names.extend(_target_names(elt))
    elif isinstance(target, ast.Starred):
        names.extend(_target_names(target.value))
    return names


class ArrayKind(enum.Enum):
    """Abstract numpy value shape of one expression."""

    FLOAT_ARRAY = "float-array"
    INT_ARRAY = "int-array"
    BOOL_ARRAY = "bool-array"
    FLOAT_SCALAR = "float-scalar"
    INT_SCALAR = "int-scalar"
    UNKNOWN = "unknown"

    @property
    def is_array(self) -> bool:
        return self in (
            ArrayKind.FLOAT_ARRAY,
            ArrayKind.INT_ARRAY,
            ArrayKind.BOOL_ARRAY,
        )

    @property
    def base(self) -> str | None:
        """Element base type: ``"float"``, ``"int"``, ``"bool"`` or None."""
        return _BASE_OF.get(self)


_BASE_OF = {
    ArrayKind.FLOAT_ARRAY: "float",
    ArrayKind.FLOAT_SCALAR: "float",
    ArrayKind.INT_ARRAY: "int",
    ArrayKind.INT_SCALAR: "int",
    ArrayKind.BOOL_ARRAY: "bool",
}

#: Annotation spellings seeding the facet (the repo's own aliases plus
#: the builtin scalars).
_ANNOTATION_KINDS = {
    "FloatArray": ArrayKind.FLOAT_ARRAY,
    "IntArray": ArrayKind.INT_ARRAY,
    "BoolArray": ArrayKind.BOOL_ARRAY,
    "float": ArrayKind.FLOAT_SCALAR,
    "int": ArrayKind.INT_SCALAR,
}

_FLOAT_DTYPES = {
    "float64", "double", "float_", "float", "float32", "float16", "half",
    "single", "longdouble", "float128",
}
_INT_DTYPES = {
    "int64", "int32", "int16", "int8", "intp", "int_", "int",
    "uint64", "uint32", "uint16", "uint8",
}
_BOOL_DTYPES = {"bool_", "bool"}

#: ``np.`` constructors returning float64 arrays unless dtype= says else.
_NP_FLOAT_CONSTRUCTORS = {
    "zeros", "ones", "empty", "linspace", "zeros_like", "ones_like",
    "empty_like",
}
#: ``np.`` calls returning integer index arrays.
_NP_INT_RETURNS = {
    "argsort", "argmin", "argmax", "flatnonzero", "searchsorted",
    "lexsort", "argpartition", "digitize", "argwhere",
}
#: ``np.`` calls returning boolean masks.
_NP_BOOL_RETURNS = {
    "isnan", "isinf", "isfinite", "signbit", "logical_and", "logical_or",
    "logical_not", "logical_xor", "isclose",
}
#: Element-wise ``np.`` calls whose result joins their arguments' kinds.
_NP_ELEMENTWISE = {
    "maximum", "minimum", "abs", "absolute", "fabs", "nextafter", "mod",
    "fmod", "copysign", "clip", "power", "float_power", "sqrt", "exp",
    "exp2", "expm1", "log", "log2", "log10", "log1p", "sin", "cos", "tan",
    "hypot", "cbrt", "floor", "ceil", "trunc", "round", "sign",
}
#: Methods preserving the receiver's kind.
_PRESERVING_METHODS = {
    "copy", "reshape", "ravel", "flatten", "view", "clip", "squeeze",
    "transpose",
}
#: ``np.`` scalar constants.
_NP_FLOAT_CONSTANTS = {"nan", "inf", "pi", "e", "euler_gamma"}

#: ``math.`` calls returning Python ints.
_MATH_INT_RETURNS = {"ceil", "floor", "trunc", "isqrt", "comb", "factorial"}


def _tail_name(node: ast.expr) -> str | None:
    """``Name`` id or final ``Attribute`` attr (``npt.NDArray`` -> NDArray)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dtype_kind(node: ast.expr) -> ArrayKind:
    """Array kind implied by a dtype expression (``np.float64``, "int64")."""
    token: str | None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        token = node.value
    else:
        token = _tail_name(node)
    if token is None:
        return ArrayKind.UNKNOWN
    if token in _FLOAT_DTYPES:
        return ArrayKind.FLOAT_ARRAY
    if token in _INT_DTYPES:
        return ArrayKind.INT_ARRAY
    if token in _BOOL_DTYPES:
        return ArrayKind.BOOL_ARRAY
    return ArrayKind.UNKNOWN


def annotation_array_kind(node: ast.expr | None) -> ArrayKind:
    """Facet seed from a parameter/return annotation."""
    if node is None:
        return ArrayKind.UNKNOWN
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ArrayKind.UNKNOWN
    name = _tail_name(node)
    if name in _ANNOTATION_KINDS:
        return _ANNOTATION_KINDS[name]
    if isinstance(node, ast.Subscript) and _tail_name(node.value) == "NDArray":
        # npt.NDArray[np.float64] and friends.
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[-1]
        return _dtype_kind(inner)
    return ArrayKind.UNKNOWN


def _kind_from(base: str, array: bool) -> ArrayKind:
    if base == "float":
        return ArrayKind.FLOAT_ARRAY if array else ArrayKind.FLOAT_SCALAR
    if base == "bool":
        return ArrayKind.BOOL_ARRAY if array else ArrayKind.UNKNOWN
    return ArrayKind.INT_ARRAY if array else ArrayKind.INT_SCALAR


def _join_value(left: ArrayKind, right: ArrayKind) -> ArrayKind:
    """Broadcast join: what ``np.where(c, left, right)`` produces."""
    if left is right:
        return left
    if left is ArrayKind.UNKNOWN or right is ArrayKind.UNKNOWN:
        return ArrayKind.UNKNOWN
    array = left.is_array or right.is_array
    if left.base == "bool" or right.base == "bool":
        if left.base == right.base == "bool":
            return _kind_from("bool", array)
        return ArrayKind.UNKNOWN
    base = "float" if "float" in (left.base, right.base) else "int"
    return _kind_from(base, array)


def _join_flow(left: ArrayKind, right: ArrayKind) -> ArrayKind:
    """Control-flow join: agreement survives, disagreement decays."""
    return left if left is right else ArrayKind.UNKNOWN


def _combine_array_binop(
    op: ast.operator, left: ArrayKind, right: ArrayKind
) -> ArrayKind:
    if isinstance(op, (ast.BitAnd, ast.BitOr, ast.BitXor)):
        if left is right is ArrayKind.BOOL_ARRAY:
            return ArrayKind.BOOL_ARRAY
        return ArrayKind.UNKNOWN
    if not isinstance(
        op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod,
             ast.Pow, ast.MatMult)
    ):
        return ArrayKind.UNKNOWN
    if left is ArrayKind.UNKNOWN or right is ArrayKind.UNKNOWN:
        return ArrayKind.UNKNOWN
    array = left.is_array or right.is_array
    # Arithmetic on bools yields ints (numpy semantics).
    bases = {"bool": "int"}.get(left.base or "", left.base), {
        "bool": "int"
    }.get(right.base or "", right.base)
    if isinstance(op, ast.Div):
        base = "float"
    elif "float" in bases:
        base = "float"
    else:
        base = "int"
    if isinstance(op, ast.MatMult):
        # The result rank depends on operand ranks; keep only the base.
        return _kind_from(base, True) if array else ArrayKind.UNKNOWN
    return _kind_from(base, array)


class ModuleArrays:
    """Per-module facet result: the array kind of every visited node."""

    def __init__(self) -> None:
        self._kinds: dict[int, ArrayKind] = {}

    def kind_of(self, node: ast.AST) -> ArrayKind:
        """Interpreted kind of ``node`` (UNKNOWN if never visited)."""
        return self._kinds.get(id(node), ArrayKind.UNKNOWN)

    def _record(self, node: ast.AST, kind: ArrayKind) -> ArrayKind:
        self._kinds[id(node)] = kind
        return kind


class _ArrayInterpreter:
    def __init__(
        self, result: ModuleArrays, functions: Mapping[str, ArrayKind]
    ) -> None:
        self._result = result
        #: Locally defined functions with facet-typed return annotations.
        self._functions = functions

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr, env: dict[str, ArrayKind]) -> ArrayKind:
        return self._result._record(node, self._eval_inner(node, env))

    def _eval_inner(
        self, node: ast.expr, env: dict[str, ArrayKind]
    ) -> ArrayKind:
        if isinstance(node, ast.Name):
            return env.get(node.id, ArrayKind.UNKNOWN)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return ArrayKind.UNKNOWN
            if isinstance(node.value, float):
                return ArrayKind.FLOAT_SCALAR
            if isinstance(node.value, int):
                return ArrayKind.INT_SCALAR
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand, env)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                return inner
            if isinstance(node.op, ast.Invert):
                return (
                    ArrayKind.BOOL_ARRAY
                    if inner is ArrayKind.BOOL_ARRAY
                    else ArrayKind.UNKNOWN
                )
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            return _combine_array_binop(node.op, left, right)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value, env)
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.Compare):
            kinds = [self.eval(node.left, env)]
            kinds.extend(self.eval(c, env) for c in node.comparators)
            if any(kind.is_array for kind in kinds):
                return ArrayKind.BOOL_ARRAY
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            value_kind = self.eval(node.value, env)
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and node.attr in _NP_FLOAT_CONSTANTS
            ):
                return ArrayKind.FLOAT_SCALAR
            if node.attr == "T" and value_kind.is_array:
                return value_kind
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return _join_flow(
                self.eval(node.body, env), self.eval(node.orelse, env)
            )
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.eval(elt, env)
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self.eval(value, env)
            return ArrayKind.UNKNOWN
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            for gen in node.generators:
                self.eval(gen.iter, comp_env)
                for name in _target_names(gen.target):
                    comp_env[name] = ArrayKind.UNKNOWN
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            self.eval(node.elt, comp_env)
            return ArrayKind.UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, env)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = value
            return value
        if isinstance(node, (ast.Starred, ast.Await)):
            return self.eval(node.value, env)
        return ArrayKind.UNKNOWN

    def _eval_subscript(
        self, node: ast.Subscript, env: dict[str, ArrayKind]
    ) -> ArrayKind:
        base = self.eval(node.value, env)
        index_parts = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        index_kinds = [
            self.eval(part, env)
            for part in index_parts
            if not isinstance(part, ast.Slice)
        ]
        for part in index_parts:
            if isinstance(part, ast.Slice):
                for bound in (part.lower, part.upper, part.step):
                    if bound is not None:
                        self.eval(bound, env)
        if not base.is_array:
            return ArrayKind.UNKNOWN
        # Slicing or fancy indexing (index arrays / boolean masks) keeps
        # the arrayness; plain integer indexing may produce an element
        # *or* a sub-array depending on rank, so it stays UNKNOWN.
        if any(isinstance(part, ast.Slice) for part in index_parts):
            return base
        if index_kinds and all(kind.is_array for kind in index_kinds):
            return base
        return ArrayKind.UNKNOWN

    def _eval_call(
        self, node: ast.Call, env: dict[str, ArrayKind]
    ) -> ArrayKind:
        func = node.func
        arg_kinds = [self.eval(arg, env) for arg in node.args]
        kw_kinds = {
            kw.arg: self.eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:
            if kw.arg is None:
                self.eval(kw.value, env)

        if isinstance(func, ast.Name):
            if func.id == "float":
                return ArrayKind.FLOAT_SCALAR
            if func.id in ("int", "len"):
                return ArrayKind.INT_SCALAR
            if func.id in ("abs", "min", "max", "round"):
                kinds = set(arg_kinds)
                if len(kinds) == 1:
                    return kinds.pop()
                return ArrayKind.UNKNOWN
            return self._functions.get(func.id, ArrayKind.UNKNOWN)

        if not isinstance(func, ast.Attribute):
            self.eval(func, env)
            return ArrayKind.UNKNOWN

        receiver_kind = self.eval(func.value, env)
        attr = func.attr
        if isinstance(func.value, ast.Name) and func.value.id in (
            "np", "numpy"
        ):
            return self._eval_np_call(attr, node, arg_kinds, kw_kinds)
        if isinstance(func.value, ast.Name) and func.value.id == "math":
            if attr in _MATH_INT_RETURNS:
                return ArrayKind.INT_SCALAR
            return ArrayKind.FLOAT_SCALAR
        # Method calls on a facet-known receiver.
        if attr == "astype" and (node.args or "dtype" in kw_kinds):
            dtype_node = node.args[0] if node.args else None
            if dtype_node is None:
                for kw in node.keywords:
                    if kw.arg == "dtype":
                        dtype_node = kw.value
            if dtype_node is not None:
                return _dtype_kind(dtype_node)
            return ArrayKind.UNKNOWN
        if receiver_kind.is_array:
            if attr in _PRESERVING_METHODS:
                return receiver_kind
            if attr == "argsort":
                return ArrayKind.INT_ARRAY
            if attr in ("item", "max", "min"):
                base = receiver_kind.base or "int"
                return _kind_from(
                    "int" if base == "bool" else base, array=False
                )
        # A call into a locally defined helper via attribute access
        # (e.g. ``self._helper()``) keeps its annotated return kind.
        return self._functions.get(attr, ArrayKind.UNKNOWN)

    def _eval_np_call(
        self,
        attr: str,
        node: ast.Call,
        arg_kinds: list[ArrayKind],
        kw_kinds: dict[str, ArrayKind],
    ) -> ArrayKind:
        dtype_node = None
        for kw in node.keywords:
            if kw.arg == "dtype":
                dtype_node = kw.value
        if attr in _NP_FLOAT_CONSTRUCTORS:
            if dtype_node is not None:
                return _dtype_kind(dtype_node)
            return ArrayKind.FLOAT_ARRAY
        if attr in ("full", "full_like"):
            if dtype_node is not None:
                return _dtype_kind(dtype_node)
            if len(arg_kinds) >= 2 and arg_kinds[1] is not ArrayKind.UNKNOWN:
                base = arg_kinds[1].base
                if base is not None:
                    return _kind_from(base, array=True)
            return ArrayKind.UNKNOWN
        if attr in ("array", "asarray", "ascontiguousarray"):
            if dtype_node is not None:
                return _dtype_kind(dtype_node)
            if arg_kinds and arg_kinds[0].is_array:
                return arg_kinds[0]
            return ArrayKind.UNKNOWN
        if attr == "arange":
            if dtype_node is not None:
                return _dtype_kind(dtype_node)
            if any(kind is ArrayKind.FLOAT_SCALAR for kind in arg_kinds):
                return ArrayKind.FLOAT_ARRAY
            if arg_kinds and all(
                kind is ArrayKind.INT_SCALAR for kind in arg_kinds
            ):
                return ArrayKind.INT_ARRAY
            return ArrayKind.UNKNOWN
        if attr in _NP_INT_RETURNS:
            return ArrayKind.INT_ARRAY
        if attr in _NP_BOOL_RETURNS:
            return ArrayKind.BOOL_ARRAY
        if attr == "where":
            if len(arg_kinds) == 3:
                return _join_value(arg_kinds[1], arg_kinds[2])
            return ArrayKind.INT_ARRAY if len(arg_kinds) == 1 else (
                ArrayKind.UNKNOWN
            )
        if attr in ("cumsum", "cumprod"):
            if arg_kinds and arg_kinds[0] is not ArrayKind.UNKNOWN:
                base = arg_kinds[0].base
                if base is not None:
                    return _kind_from(
                        "int" if base == "bool" else base, array=True
                    )
            return ArrayKind.UNKNOWN
        if attr in ("concatenate", "stack", "hstack", "vstack"):
            parts = node.args[0] if node.args else None
            if isinstance(parts, (ast.Tuple, ast.List)):
                kinds = {self._result.kind_of(elt) for elt in parts.elts}
                if len(kinds) == 1:
                    return kinds.pop()
            return ArrayKind.UNKNOWN
        if attr in _NP_ELEMENTWISE:
            known = [k for k in arg_kinds if k is not ArrayKind.UNKNOWN]
            if known and len(known) == len(arg_kinds):
                result = known[0]
                for kind in known[1:]:
                    result = _join_value(result, kind)
                return result
            return ArrayKind.UNKNOWN
        return ArrayKind.UNKNOWN

    # -- statements --------------------------------------------------------

    def run_body(
        self, body: Sequence[ast.stmt], env: dict[str, ArrayKind]
    ) -> None:
        for stmt in body:
            self._run_stmt(stmt, env)

    def _assign(
        self, target: ast.expr, value: ArrayKind, env: dict[str, ArrayKind]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
            for name in _target_names(target):
                env[name] = ArrayKind.UNKNOWN
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target, env)

    def _run_stmt(self, stmt: ast.stmt, env: dict[str, ArrayKind]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._run_function(stmt, env)
        elif isinstance(stmt, ast.ClassDef):
            class_env: dict[str, ArrayKind] = {}
            self.run_body(stmt.body, class_env)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            declared = annotation_array_kind(stmt.annotation)
            value = (
                self.eval(stmt.value, env)
                if stmt.value is not None
                else ArrayKind.UNKNOWN
            )
            if isinstance(stmt.target, ast.Name):
                env[stmt.target.id] = (
                    declared if declared is not ArrayKind.UNKNOWN else value
                )
            else:
                self._assign(stmt.target, value, env)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                current = env.get(stmt.target.id, ArrayKind.UNKNOWN)
                self._result._record(stmt.target, current)
                env[stmt.target.id] = _combine_array_binop(
                    stmt.op, current, value
                )
            else:
                self.eval(stmt.target, env)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self.eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test, env)
            then_env = dict(env)
            else_env = dict(env)
            self.run_body(stmt.body, then_env)
            self.run_body(stmt.orelse, else_env)
            _join_array_envs(env, then_env, else_env)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            loop_env = dict(env)
            target_kind = ArrayKind.UNKNOWN
            if (
                isinstance(stmt.iter, ast.Call)
                and isinstance(stmt.iter.func, ast.Name)
                and stmt.iter.func.id == "range"
            ):
                target_kind = ArrayKind.INT_SCALAR
            for name in _target_names(stmt.target):
                loop_env[name] = target_kind
            self.run_body(stmt.body, loop_env)
            else_env = dict(env)
            self.run_body(stmt.orelse, else_env)
            _join_array_envs(env, loop_env, else_env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            loop_env = dict(env)
            self.run_body(stmt.body, loop_env)
            else_env = dict(env)
            self.run_body(stmt.orelse, else_env)
            _join_array_envs(env, loop_env, else_env)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self.run_body(stmt.body, body_env)
            self.run_body(stmt.orelse, body_env)
            branch_envs = [body_env]
            for handler in stmt.handlers:
                handler_env = dict(env)
                if handler.name:
                    handler_env[handler.name] = ArrayKind.UNKNOWN
                self.run_body(handler.body, handler_env)
                branch_envs.append(handler_env)
            _join_array_envs(env, *branch_envs)
            self.run_body(stmt.finalbody, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    for name in _target_names(item.optional_vars):
                        env[name] = ArrayKind.UNKNOWN
            self.run_body(stmt.body, env)
        elif isinstance(stmt, ast.Match):
            self.eval(stmt.subject, env)
            case_envs = []
            for case in stmt.cases:
                case_env = dict(env)
                if case.guard is not None:
                    self.eval(case.guard, case_env)
                self.run_body(case.body, case_env)
                case_envs.append(case_env)
            if case_envs:
                _join_array_envs(env, *case_envs)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
        # Raise / Pass / Break / Continue / Import: no facet flow.

    def _run_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        outer_env: dict[str, ArrayKind],
    ) -> None:
        args = node.args
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None:
                self.eval(default, outer_env)
        env: dict[str, ArrayKind] = {}
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            env[arg.arg] = annotation_array_kind(arg.annotation)
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                env[vararg.arg] = ArrayKind.UNKNOWN
        self.run_body(node.body, env)


def _join_array_envs(
    env: dict[str, ArrayKind], *branches: dict[str, ArrayKind]
) -> None:
    keys = set(env)
    for branch in branches:
        keys |= set(branch)
    for key in keys:
        kinds = {
            branch.get(key, env.get(key, ArrayKind.UNKNOWN))
            for branch in branches
        }
        env[key] = kinds.pop() if len(kinds) == 1 else ArrayKind.UNKNOWN


def analyze_arrays(tree: ast.Module) -> ModuleArrays:
    """Run the float-semantics facet over one module."""
    result = ModuleArrays()
    functions: dict[str, ArrayKind] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kind = annotation_array_kind(node.returns)
            if kind is not ArrayKind.UNKNOWN:
                functions[node.name] = kind
    interpreter = _ArrayInterpreter(result, functions)
    interpreter.run_body(tree.body, env={})
    return result
