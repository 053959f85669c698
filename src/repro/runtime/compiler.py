"""Compile-once execution engine: AST lowering and the program cache.

Running a Go statement or expression means deciding *what the node is*,
*what its constants mean* and *where its names point*.  Those decisions
depend only on the AST, so this module makes them once, in a **lowering
pass**: every statement and expression is compiled into a pre-bound Python
closure ``(interp, goroutine, env) -> generator`` that performs only the
run-time work: the scheduling-point yields, the detector callbacks and the
``Cell`` allocations.

Three layers:

* :func:`compile_expr` / :func:`compile_stmt` / :func:`compile_block` — the
  lowering pass, the one implementation of the Go subset's semantics.  Every
  node kind lowers here, builtins included: each call of a builtin lowers to
  code that runs its precompiled arguments.  Hot kinds are specialised
  (identifier reads inline the cell-read fast path, binary operators are
  pre-bound to their operator implementation, literals — and package members
  that whole-program analysis proves can never be shadowed — fold to
  constants at compile time).  One right-hand-side lowering
  (:func:`compile_rhs`) serves ``=``, ``:=`` and local and package-level
  ``var``.  The closures call the
  :class:`~repro.runtime.interpreter.Interpreter` only for runtime services
  (memory accesses, calls, goroutines, channels, sync, conversions, zero
  values), never to evaluate an AST.
* :class:`CompiledProgram` — the parsed files, the whole-program facts
  (:class:`_ProgramMeta`: declarations, bound and imported names, the
  slicer's verdict) and the shared code cache.  A program is built once and
  reused by every run: each run constructs a fresh
  :class:`~repro.runtime.interpreter.Interpreter` (fresh
  detector/scheduler/heap) over the same compiled code.  Each function body
  lowers on its first call and each global initializer on its first
  evaluation, so code no run reaches is never lowered and never joins the
  long-lived heap.
* :class:`ProgramCache` — a process-wide cache keyed by a source fingerprint,
  so repeated harness invocations over the same package (the validator runs
  thousands of them) skip parsing *and* lowering.  Parse failures are cached
  too: rebuilding a broken candidate is a dictionary hit.  It keeps the 16
  most recently requested builds.

A program lowers in one of two modes.  The slice-aware one, which every
user-facing run uses, drops the schedule point and detector hook on accesses
the slicer proves single-goroutine; the fully instrumented one
(``slicing=False``) keeps every access and is the slicer's soundness oracle
in the tests.  ``tests/runtime/detection_golden.json`` pins both modes'
observables.  Lowering reads the AST and never writes to it, so the shared,
read-only trees of :func:`~repro.golang.parser.parse_file` stay read-only.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading
from collections import OrderedDict
from typing import AbstractSet, Any, Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.errors import GoPanic, GoRuntimeError, GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang.parser import clear_parse_cache, parse_cache_info, parse_file
from repro.golang.printer import print_node
from repro.golang.slicing import slice_function, package_scope_bindings
from repro.runtime import stdlib
from repro.runtime.goroutine import Goroutine, STEP, blocked
from repro.runtime.interpreter import (
    _NUMERIC_TYPES,
    _copy_struct,
    _map_key,
    _sync_zero,
    _type_display,
    BoundMethod,
    BreakSignal,
    ContinueSignal,
    FallthroughSignal,
    Interpreter,
    PackageRef,
    ReturnSignal,
    Signal,
)
from repro.runtime.memory import Cell, Environment
from repro.runtime.channels import Channel
from repro.runtime.sync_primitives import Mutex, Once, RWMutex, SyncMap, WaitGroup
from repro.runtime.values import (
    BuiltinFunc,
    ErrorValue,
    FuncValue,
    MapValue,
    PointerValue,
    SliceValue,
    StructValue,
    TupleValue,
    TypeValue,
    format_value,
    is_truthy,
    zero_value,
)

#: A compiled expression/statement: ``(interp, goroutine, env) -> generator``.
Code = Callable[..., Generator]
#: The shared per-program code cache: ``id(node) -> (node, closure)``.  The
#: node itself is retained so a cached id can never dangle onto a recycled
#: object identity.
CodeCache = Dict[int, Tuple[Any, Code]]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _const(value: Any) -> Code:
    def run(interp: Interpreter, goroutine: Goroutine, env: Environment) -> Generator:
        if False:  # pragma: no cover - keeps this a generator
            yield STEP
        return value

    return run


def _fail(message: str) -> Code:
    """Code that raises ``GoRuntimeError(message)`` when it runs."""

    def run(interp, goroutine, env):
        if False:  # pragma: no cover - keeps this a generator
            yield STEP
        raise GoRuntimeError(message)

    return run


def _leaf_line(node: ast.Node) -> Optional[int]:
    """The line recorded for a memory access at ``node`` (see ``_record_access``)."""
    line = node.pos.line
    return line if line else None


def _literal_value(lit: ast.BasicLit) -> Any:
    if lit.kind == "INT":
        text = lit.value.replace("_", "")
        if text.lower().startswith("0x"):
            return int(text, 16)
        return int(text)
    if lit.kind == "FLOAT":
        return float(lit.value)
    return lit.value


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, (StructValue, MapValue, SliceValue)) or isinstance(
        right, (StructValue, MapValue, SliceValue)
    ):
        return left is right
    return left == right


def _as_struct(value: Any) -> Optional[StructValue]:
    if isinstance(value, StructValue):
        return value
    if isinstance(value, PointerValue):
        return value.target_struct()
    return None


def _element(container: SliceValue, key: Any) -> Cell:
    """The cell of ``container[key]``, or Go's index-out-of-range panic."""
    index = int(key)
    elements = container.elements
    if index < 0 or index >= len(elements):
        raise GoPanic(
            f"runtime error: index out of range [{index}] with length {len(elements)}")
    return elements[index]


def _receiver_type_name(recv: ast.Field) -> str:
    type_expr = recv.type_
    if isinstance(type_expr, ast.StarExpr):
        type_expr = type_expr.x
    return _type_display(type_expr)


def _struct_field_names(type_expr: ast.Expr | None) -> List[str]:
    if isinstance(type_expr, ast.StructType):
        names: List[str] = []
        for field_decl in type_expr.fields:
            names.extend(field_decl.names)
        return names
    return []


# The one operator table: Go's binary operators (``&&``/``||`` short-circuit
# and lower apart).  ``==``/``!=`` compare composites by identity, ``+`` also
# concatenates strings, and the numeric operators coerce ``None`` (a zero
# value) to 0.


def _op_add(left: Any, right: Any) -> Any:
    if isinstance(left, str) or isinstance(right, str):
        return ("" if left is None else str(left)) + ("" if right is None else str(right))
    return (left or 0) + (right or 0)


def _op_div(left: Any, right: Any) -> Any:
    left_num = left or 0
    right_num = right or 0
    if right_num == 0:
        raise GoPanic("runtime error: integer divide by zero")
    if isinstance(left_num, int) and isinstance(right_num, int):
        return int(math.trunc(left_num / right_num))
    return left_num / right_num


def _op_mod(left: Any, right: Any) -> Any:
    left_num = left or 0
    right_num = right or 0
    if right_num == 0:
        raise GoPanic("runtime error: integer divide by zero")
    return int(math.fmod(left_num, right_num))


_OP_IMPLS: Dict[str, Callable[[Any, Any], Any]] = {
    "==": _values_equal,
    "!=": lambda l, r: not _values_equal(l, r),
    "+": _op_add,
    "-": lambda l, r: (l or 0) - (r or 0),
    "*": lambda l, r: (l or 0) * (r or 0),
    "/": _op_div,
    "%": _op_mod,
    "<": lambda l, r: (l or 0) < (r or 0),
    "<=": lambda l, r: (l or 0) <= (r or 0),
    ">": lambda l, r: (l or 0) > (r or 0),
    ">=": lambda l, r: (l or 0) >= (r or 0),
    "&": lambda l, r: int(l or 0) & int(r or 0),
    "|": lambda l, r: int(l or 0) | int(r or 0),
    "^": lambda l, r: int(l or 0) ^ int(r or 0),
    "<<": lambda l, r: int(l or 0) << int(r or 0),
    ">>": lambda l, r: int(l or 0) >> int(r or 0),
    "&^": lambda l, r: int(l or 0) & ~int(r or 0),
}


def _const_value_of(node: ast.Expr) -> Tuple[bool, Any]:
    """Compile-time constant evaluation (literals and pure operators on them).

    Folding never changes observable behaviour: constants are primitives, so
    no :class:`Cell` is allocated either way, and a fold is only kept when the
    operator evaluates without raising (a ``1/0`` still panics at runtime, at
    the same point as an unfolded one)."""
    if isinstance(node, ast.BasicLit):
        return True, _literal_value(node)
    if isinstance(node, ast.ParenExpr):
        return _const_value_of(node.x)
    if isinstance(node, ast.Ident):
        if node.name == "true":
            return True, True
        if node.name == "false":
            return True, False
        if node.name == "nil":
            return True, None
        if node.name == "_":
            return True, None
        return False, None
    if isinstance(node, ast.UnaryExpr) and node.op in ("-", "+", "!", "^"):
        ok, value = _const_value_of(node.x)
        if not ok:
            return False, None
        try:
            if node.op == "-":
                return True, -(value or 0)
            if node.op == "+":
                return True, value
            if node.op == "!":
                return True, not is_truthy(value)
            return True, ~(value or 0)
        except Exception:
            return False, None
    if isinstance(node, ast.BinaryExpr):
        impl = _OP_IMPLS.get(node.op)
        if impl is None:
            return False, None
        left_ok, left = _const_value_of(node.x)
        right_ok, right = _const_value_of(node.y)
        if not (left_ok and right_ok):
            return False, None
        try:
            return True, impl(left, right)
        except Exception:
            return False, None
    return False, None


#: Key under which a program's static analysis lives in its code cache (a
#: string can never collide with the integer ``id()`` keys).
_META_KEY = "__program_meta__"

#: Deepest AST level (a file is level 0) that a program may lower lazily.
#: Lowering recurses once per level, so a deeper program lowers eagerly at
#: build time, where running out of stack fails the build (``nesting too
#: deep``) instead of the run that first calls the deep function.  The
#: corpora nest at most 14 levels; lowering overflows near 250.
_LAZY_MAX_DEPTH = 64


class _ProgramMeta:
    """Whole-program facts the lowering pass and every run rely on.

    ``bound_names`` is every identifier the program can *ever* bind into an
    environment (``:=`` targets, var/const names, range variables,
    parameters/results/receivers).  A name outside this set provably never
    shadows a builtin or package, so its lookup chain walk folds away at
    compile time.  ``imported_names`` is every name an import binds.

    The declaration tables are collected once here and read by every run:
    ``funcs`` (top-level functions by name), ``methods`` (by receiver type
    and name, each with the function that makes its receiver from the
    struct it is called on; see :func:`_receiver_maker`), ``types`` (each
    run copies it, since local ``type`` declarations add to it),
    ``func_files`` (``id()`` of each function declaration to its file name)
    and ``global_specs`` (package-level var/const specs with their file
    names, in source order).

    ``elidable`` is the slicer's verdict (``id()`` of identifier nodes whose
    binding is provably single-goroutine, see :mod:`repro.golang.slicing`);
    the lowering pass drops the schedule point and detector hook on those
    accesses.  It grows as declarations lower: each declaration's slice is
    added when :meth:`CompiledProgram.callable_entry` first lowers it, before
    any of its nodes, and its nodes are the only ones its verdict names.
    Empty when slicing is off.

    ``depth`` is the deepest AST level in the program (see
    :data:`_LAZY_MAX_DEPTH`).
    """

    __slots__ = ("bound_names", "imported_names", "elidable", "depth", "funcs",
                 "methods", "types", "func_files", "global_specs")

    def __init__(self, files: List[ast.File]):
        self.elidable: Set[int] = set()
        self.bound_names, self.depth = _bound_names_in(files)
        self.imported_names = frozenset(
            spec.name or spec.path.split("/")[-1]
            for file in files
            for spec in file.imports
        )
        self.funcs: Dict[str, ast.FuncDecl] = {}
        self.methods: Dict[Tuple[str, str], Tuple[ast.FuncDecl, Callable]] = {}
        self.types: Dict[str, ast.TypeSpec] = {}
        self.func_files: Dict[int, str] = {}
        self.global_specs: List[Tuple[ast.ValueSpec, str]] = []
        for file in files:
            for decl in file.decls:
                if isinstance(decl, ast.FuncDecl):
                    self.func_files[id(decl)] = file.name
                    if decl.recv is not None:
                        self.methods[(_receiver_type_name(decl.recv), decl.name)] = (
                            decl, _receiver_maker(decl))
                    else:
                        self.funcs[decl.name] = decl
                elif isinstance(decl, ast.GenDecl):
                    for spec in decl.specs:
                        if isinstance(spec, ast.TypeSpec):
                            self.types[spec.name] = spec
                        elif isinstance(spec, ast.ValueSpec) and decl.tok in ("var", "const"):
                            self.global_specs.append((spec, file.name))


def _bound_names_in(roots) -> Tuple[frozenset, int]:
    """Every name the subtree(s) can ever bind into an environment, and the
    deepest level below the roots (which are level 0).

    Level by level, dispatching on each node's exact type: a receiver's
    names are those of its ``Field``, which is visited like any other."""
    bound: set = set()
    deepest = -1
    level = list(roots)
    while level:
        deepest += 1
        below: List[ast.Node] = []
        for node in level:
            kind = type(node)
            if kind in _NAMED_DECLS:
                bound.update(node.names)
            elif kind is ast.AssignStmt:
                if node.tok == ":=":
                    bound.update(t.name for t in node.lhs if type(t) is ast.Ident)
            elif kind is ast.RangeStmt:
                if node.tok == ":=":
                    bound.update(t.name for t in (node.key, node.value)
                                 if type(t) is ast.Ident)
            below += node.children()
        level = below
    return frozenset(bound), max(deepest, 0)


#: Nodes that declare every name in their ``names``: var/const specs and
#: parameters, results, receivers and struct fields.
_NAMED_DECLS = frozenset({ast.ValueSpec, ast.Field})


def _meta_of(code: CodeCache) -> _ProgramMeta:
    """The facts of the program that owns ``code`` (installed before any
    lowering by :class:`CompiledProgram`)."""
    return code[_META_KEY]


def _declares_inline(stmt: ast.Stmt) -> bool:
    """Can ``stmt`` declare a name directly into the enclosing scope?

    Only ``:=`` assignments and ``var``/``const``/``type`` declarations do;
    every other statement kind confines its declarations to a scope of its
    own.  Blocks whose immediate statements declare nothing can skip their
    child-environment allocation: the empty environment is unobservable
    (lookups walk through it, and no cell is ever created in it)."""
    if isinstance(stmt, ast.AssignStmt):
        return stmt.tok == ":="
    if isinstance(stmt, ast.DeclStmt):
        return True
    if isinstance(stmt, ast.LabeledStmt):
        return _declares_inline(stmt.stmt)
    return False


_BOOL_OPS = frozenset(("==", "!=", "<", "<=", ">", ">=", "&&", "||"))


def _always_bool(expr: ast.Expr) -> bool:
    """Does ``expr`` always evaluate to a Python bool?

    For such conditions ``if value:`` is exactly ``if is_truthy(value):``
    (``is_truthy`` returns a bool argument unchanged), so the call can be
    skipped at compile time."""
    if isinstance(expr, ast.BinaryExpr):
        return expr.op in _BOOL_OPS
    if isinstance(expr, ast.UnaryExpr):
        return expr.op == "!"
    if isinstance(expr, ast.ParenExpr):
        return _always_bool(expr.x)
    if isinstance(expr, ast.Ident):
        return expr.name in ("true", "false")
    return False


# ---------------------------------------------------------------------------
# Expression lowering
# ---------------------------------------------------------------------------


def compile_expr(node: ast.Expr, code: CodeCache) -> Code:
    key = id(node)
    entry = code.get(key)
    if entry is not None and entry[0] is node:
        return entry[1]
    closure = _build_expr(node, code)
    code[key] = (node, closure)
    return closure


def _build_expr(node: ast.Expr, code: CodeCache) -> Code:
    folded, const = _const_value_of(node)
    if folded:
        return _const(const)

    if isinstance(node, ast.Ident):
        return _build_ident(node, code)
    if isinstance(node, ast.SelectorExpr):
        return _build_selector(node, code)
    if isinstance(node, ast.CallExpr):
        return _build_call(node, code)
    if isinstance(node, ast.BinaryExpr):
        return _build_binary(node, code)
    if isinstance(node, ast.UnaryExpr):
        return _build_unary(node, code)
    if isinstance(node, ast.StarExpr):
        return _build_deref(node, code)
    if isinstance(node, ast.ParenExpr):
        return compile_expr(node.x, code)
    if isinstance(node, ast.IndexExpr):
        return _build_index(node, code)
    if isinstance(node, ast.CompositeLit):
        return _build_composite(node, code)
    if isinstance(node, ast.SliceExpr):
        return _build_slice(node, code)
    if isinstance(node, ast.FuncLit):
        # The body lowers on the closure's first call (``call_function``).

        def run_funclit(interp, goroutine, env):
            if False:  # pragma: no cover - keeps this a generator
                yield STEP
            return interp._make_closure(goroutine, node, env)

        return run_funclit
    if isinstance(node, ast.TypeAssertExpr):
        inner_code = compile_expr(node.x, code)

        def run_assert(interp, goroutine, env):
            inner = yield from inner_code(interp, goroutine, env)
            return inner

        return run_assert
    if isinstance(node, (ast.ArrayType, ast.MapType, ast.ChanType, ast.StructType,
                         ast.InterfaceType, ast.FuncType, ast.Ellipsis)):
        return _const(TypeValue(expr=node))
    if isinstance(node, ast.KeyValueExpr):
        return compile_expr(node.value, code)
    return _fail(f"unsupported expression: {type(node).__name__}")


def _build_ident(node: ast.Ident, code: CodeCache) -> Code:
    name = node.name
    leaf = _leaf_line(node)
    is_static_type = name in _STATIC_TYPE_NAMES
    meta = _meta_of(code)
    # Imports are static, so whether the name is a package is known now.
    is_package = stdlib.is_package(name) or name in meta.imported_names
    if name not in meta.bound_names:
        # Provably never a variable: skip the environment walk entirely and
        # resolve through the funcs/types/package fallbacks, in the order
        # every identifier uses after a lookup miss.
        def run_unbound(interp, goroutine, env):
            if False:  # pragma: no cover - keeps this a generator
                yield STEP
            funcs = interp.funcs
            if name in funcs:
                return FuncValue(decl=funcs[name], name=name)
            if is_static_type or name in interp.types:
                return _type_value(name)
            if is_package:
                return PackageRef(name=name)
            raise GoRuntimeError(f"undefined: {name}")

        return run_unbound

    if id(node) in meta.elidable:
        # The slicer proved this binding single-goroutine (never captured,
        # never address-taken, not package-level): the cell read cannot race,
        # so the schedule point and detector hook are dropped.
        def run_local(interp, goroutine, env):
            if False:  # pragma: no cover - keeps this a generator
                yield STEP
            cell = None
            scope = env
            while scope is not None:
                cell = scope.cells.get(name)
                if cell is not None:
                    return cell.value
                scope = scope.parent
            funcs = interp.funcs
            if name in funcs:
                return FuncValue(decl=funcs[name], name=name)
            if is_static_type or name in interp.types:
                return _type_value(name)
            if is_package:
                return PackageRef(name=name)
            raise GoRuntimeError(f"undefined: {name}")

        return run_local

    def run(interp, goroutine, env):
        # Inlined ``Environment.lookup`` chain walk.
        cell = None
        scope = env
        while scope is not None:
            cell = scope.cells.get(name)
            if cell is not None:
                break
            scope = scope.parent
        if cell is not None:
            # Inlined ``read_cell``: schedule point, access record, value.
            yield STEP
            gid = goroutine.gid
            interp.detector.on_read(
                gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            return cell.value
        funcs = interp.funcs
        if name in funcs:
            return FuncValue(decl=funcs[name], name=name)
        if is_static_type or name in interp.types:
            return _type_value(name)
        if is_package:
            return PackageRef(name=name)
        raise GoRuntimeError(f"undefined: {name}")

    return run


@functools.lru_cache(maxsize=1024)
def _type_value(name: str) -> TypeValue:
    """The value of an identifier that names a type, shared per name.

    Only the not-a-variable fallback needs it, so no lowered identifier
    holds one."""
    return TypeValue(expr=ast.Ident(name=name), name=name)


def _const_handler(value: Any):
    """A :class:`BuiltinFunc` handler that returns ``value``."""

    def handler(interp, goroutine, args, node):
        if False:  # pragma: no cover - keeps this a generator
            yield STEP
        return value

    return handler


#: Predeclared type names an identifier can resolve to.
_STATIC_TYPE_NAMES = frozenset(_NUMERIC_TYPES) | frozenset(
    ("string", "bool", "error", "any", "float32", "float64"))


#: Runtime objects whose methods run natively (see
#: :meth:`~repro.runtime.interpreter.Interpreter.call_native_method`).
_SYNC_RECEIVERS = (Mutex, RWMutex, WaitGroup, SyncMap, Once, Channel)

#: :func:`_static_member`'s answer for a selector that is not a constant.
_NOT_STATIC = object()


def _names_package(x: ast.Expr, meta: _ProgramMeta) -> bool:
    """Is ``x`` an identifier that names a package (imports are static)?"""
    return isinstance(x, ast.Ident) and (
        stdlib.is_package(x.name) or x.name in meta.imported_names)


def _package_member(node: ast.SelectorExpr) -> Any:
    """The value of ``pkg.Member`` (``get_member`` is a pure table lookup)."""
    member = stdlib.get_member(node.x.name, node.sel)
    return member if member is not None else TypeValue(
        expr=node, name=f"{node.x.name}.{node.sel}")


def _static_member(node: ast.SelectorExpr, meta: _ProgramMeta) -> Any:
    """The value of ``pkg.Member`` when ``pkg`` is a package name the
    program provably never binds as a variable, or of a method expression
    (the whole selector folds to a constant at lowering time), else
    :data:`_NOT_STATIC`."""
    if _names_package(node.x, meta) and node.x.name not in meta.bound_names:
        return _package_member(node)
    return _method_expression(node, meta)


def _method_expression(node: ast.SelectorExpr, meta: _ProgramMeta) -> Any:
    """The function value of the method expression ``T.m`` or ``(*T).m``,
    whose first parameter is the receiver, else :data:`_NOT_STATIC`.

    ``T`` must be a declared type the program never binds as a variable.
    ``T.m`` needs a value receiver, as in Go; a form this leaves out reaches
    :func:`_select_value` at run time, which names it."""
    x = node.x
    through_pointer = type(x) is ast.ParenExpr and type(x.x) is ast.StarExpr
    if through_pointer:
        x = x.x.x
    if type(x) is not ast.Ident or x.name not in meta.types or x.name in meta.bound_names:
        return _NOT_STATIC
    entry = meta.methods.get((x.name, node.sel))
    if entry is None:
        return _NOT_STATIC
    method = entry[0]
    pointer_receiver = isinstance(method.recv.type_, ast.StarExpr)
    if pointer_receiver and not through_pointer:
        return _NOT_STATIC
    name = f"{x.name}.{node.sel}"

    def handler(interp, goroutine, args, call):
        if not args:
            raise GoRuntimeError(f"not enough arguments in call to {name}")
        receiver = args[0]
        if not pointer_receiver:
            # A value receiver is an ordinary argument: Go copies it.
            if through_pointer:
                receiver = _pointee(receiver)
            receiver = _copy_struct(receiver)
        return interp.call_method(goroutine, method, receiver, args[1:], call)

    return BuiltinFunc(name=name, handler=handler)


def _pointee(pointer: PointerValue) -> Any:
    """What a selector reaches through ``pointer``, or Go's nil panic."""
    target = pointer.target_struct()
    if target is None and pointer.cell is not None:
        target = pointer.cell.value
    if target is None:
        raise GoPanic("invalid memory address or nil pointer dereference")
    return target


def _pointer_receiver(struct: StructValue, interp, goroutine, leaf: Optional[int]) -> PointerValue:
    return PointerValue(struct=struct)


def _value_receiver(struct: StructValue, interp, goroutine, leaf: Optional[int]) -> StructValue:
    """A copy of ``struct``, as Go passes a value receiver.  Go's copy reads
    every field, so each of the caller's cells records a read here: the
    method body reads the copy's fresh cells, which no other goroutine sees."""
    _record_struct_read(interp, goroutine, struct, goroutine.stack_snapshot(leaf))
    return _copy_struct(struct)


def _record_struct_read(interp, goroutine, struct: StructValue, stack) -> None:
    for cell in struct.fields.values():
        interp.detector.on_read(goroutine.gid, cell, stack, goroutine.creation_stack)
        if isinstance(cell.value, StructValue):
            _record_struct_read(interp, goroutine, cell.value, stack)


def _receiver_maker(method: ast.FuncDecl) -> Callable[..., Any]:
    """What makes the receiver ``method`` binds when called on a struct: a
    pointer to it, or for a value receiver a copy, as Go passes one, made at
    the call or when the method value is evaluated.  Either takes the struct
    and the ``interp``, ``goroutine`` and source line of the access."""
    if isinstance(method.recv.type_, ast.StarExpr):
        return _pointer_receiver
    return _value_receiver


def _select_value(base: Any, node: ast.SelectorExpr) -> Any:
    """``base.sel`` for a ``base`` that is no struct: a package member, a
    method value of a runtime object or an error, or a panic."""
    sel = node.sel
    if isinstance(base, PackageRef):
        member = stdlib.get_member(base.name, sel)
        if member is not None:
            return member
        return TypeValue(expr=node, name=f"{base.name}.{sel}")
    if isinstance(base, _SYNC_RECEIVERS):
        return BoundMethod(receiver=base, name=sel)
    if isinstance(base, ErrorValue):
        if sel == "Error":
            return BuiltinFunc(name="Error", handler=_const_handler(base.message))
        return BoundMethod(receiver=base, name=sel)
    if hasattr(base, "go_call"):
        return BoundMethod(receiver=base, name=sel)
    if base is None:
        raise GoPanic(f"invalid memory address or nil pointer dereference (selecting .{sel})")
    if isinstance(base, TypeValue):
        raise GoRuntimeError(f"unsupported method expression {print_node(node)}")
    raise GoRuntimeError(f"cannot select .{sel} from {format_value(base)}")


def _build_selector(node: ast.SelectorExpr, code: CodeCache) -> Code:
    meta = _meta_of(code)
    static = _static_member(node, meta)
    if static is not _NOT_STATIC:
        return _const(static)
    sel = node.sel
    x_code = compile_expr(node.x, code)
    owner_static = ast.base_name(node)
    leaf = _leaf_line(node)
    # ``pkg.Member`` where the package name is also bound somewhere: the
    # package wins wherever no variable of that name is in scope.
    shadowable = _names_package(node.x, meta)
    if shadowable:
        x_name = node.x.name
        package_value = _package_member(node)

    def run(interp, goroutine, env):
        """Select ``sel``: pointer unwrap, the hot struct path (a field read
        or a method value), then everything else."""
        if shadowable:
            scope = env
            while scope is not None:
                if x_name in scope.cells:
                    break
                scope = scope.parent
            if scope is None:
                return package_value
        base = yield from x_code(interp, goroutine, env)
        if isinstance(base, PointerValue):
            base = _pointee(base)
        if isinstance(base, StructValue):
            entry = interp.methods.get((base.type_name, sel))
            if entry is not None and sel not in base.fields:
                method, make_receiver = entry
                return FuncValue(decl=method, name=f"{base.type_name}.{sel}",
                                 bound_receiver=make_receiver(base, interp, goroutine, leaf))
            cell = base.field_cell(sel, owner_name=owner_static or base.type_name)
            yield STEP
            interp.detector.on_read(
                goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            return cell.value
        return _select_value(base, node)

    return run


def _build_call(node: ast.CallExpr, code: CodeCache) -> Code:
    fun = node.fun
    fun_name = fun.name if isinstance(fun, ast.Ident) else ""
    builtin = None
    if fun_name in _BUILTINS:
        lower_builtin, min_args = _BUILTINS[fun_name]
        if len(node.args) >= min_args:
            builtin = lower_builtin(node, code)
        else:
            builtin = _fail(f"missing argument to {fun_name}")
    meta = _meta_of(code)
    if builtin is not None and fun_name not in meta.bound_names:
        # The program provably never binds this builtin's name, so the
        # shadowing lookup is statically None: the builtin always wins.
        return builtin
    arg_codes = tuple(compile_expr(arg, code) for arg in node.args)
    single_arg = len(node.args) == 1
    has_ellipsis = bool(node.ellipsis)
    static = _NOT_STATIC
    if isinstance(fun, ast.SelectorExpr):
        static = _static_member(fun, meta)
        if static is _NOT_STATIC and not _names_package(fun.x, meta):
            return _build_method_call(node, arg_codes, code)
    elif builtin is None and fun_name in meta.funcs and fun_name not in meta.bound_names:
        static = FuncValue(decl=meta.funcs[fun_name], name=fun_name)
    # A package member or top-level function that no variable can shadow is
    # a constant callee: the call builds no value and evaluates no callee.
    fun_code = compile_expr(fun, code) if static is _NOT_STATIC else None

    def run(interp, goroutine, env):
        if builtin is not None and env.lookup(fun_name) is None:
            result = yield from builtin(interp, goroutine, env)
            return result
        if fun_code is None:
            callee = static
        else:
            callee = yield from fun_code(interp, goroutine, env)
        args: List[Any] = []
        for arg_code in arg_codes:
            value = yield from arg_code(interp, goroutine, env)
            if isinstance(value, TupleValue) and single_arg:
                args.extend(value.values)
            else:
                args.append(value)
        if has_ellipsis and args and isinstance(args[-1], SliceValue):
            spread = args.pop()
            args.extend(cell.value for cell in spread.elements)
        # Inlined ``_invoke`` dispatch.
        if isinstance(callee, FuncValue):
            result = yield from interp.call_function(goroutine, callee, args, node)
            return result
        if isinstance(callee, BuiltinFunc):
            result = yield from callee.handler(interp, goroutine, args, node)
            return result
        if isinstance(callee, BoundMethod):
            result = yield from interp.call_native_method(
                goroutine, callee.receiver, callee.name, args, node)
            return result
        if isinstance(callee, TypeValue):
            return interp._convert(callee, args)
        raise GoRuntimeError(f"cannot call value of type {type(callee).__name__}")

    return run


def _build_method_call(node: ast.CallExpr, arg_codes: Tuple[Code, ...],
                       code: CodeCache) -> Code:
    """A call ``x.m(...)`` whose ``x`` is no package name: it dispatches at
    the call site, so neither a struct method nor a runtime object's method
    builds a method value.

    The receiver is selected before the arguments run, as the selector would
    be; a field holding a function, an error's ``Error`` and anything else
    go through the selector's ordinary value."""
    fun = node.fun
    sel = fun.sel
    x_code = compile_expr(fun.x, code)
    owner_static = ast.base_name(fun)
    leaf = _leaf_line(fun)
    single_arg = len(node.args) == 1
    has_ellipsis = bool(node.ellipsis)

    def run(interp, goroutine, env):
        base = yield from x_code(interp, goroutine, env)
        if isinstance(base, PointerValue):
            base = _pointee(base)
        method = native = None
        callee: Any = None
        if isinstance(base, StructValue):
            entry = interp.methods.get((base.type_name, sel))
            if entry is not None and sel not in base.fields:
                method, make_receiver = entry
                receiver = make_receiver(base, interp, goroutine, leaf)
            else:
                cell = base.field_cell(sel, owner_name=owner_static or base.type_name)
                yield STEP
                interp.detector.on_read(
                    goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
                callee = cell.value
        elif isinstance(base, _SYNC_RECEIVERS) or hasattr(base, "go_call"):
            native = base
        else:
            callee = _select_value(base, fun)
        args: List[Any] = []
        for arg_code in arg_codes:
            value = yield from arg_code(interp, goroutine, env)
            if isinstance(value, TupleValue) and single_arg:
                args.extend(value.values)
            else:
                args.append(value)
        if has_ellipsis and args and isinstance(args[-1], SliceValue):
            spread = args.pop()
            args.extend(cell.value for cell in spread.elements)
        if method is not None:
            result = yield from interp.call_method(goroutine, method, receiver, args, node)
            return result
        if native is None:
            result = yield from interp._invoke(goroutine, callee, args, node)
            return result
        # Monomorphic fast paths for the hottest sync-primitive methods, the
        # same steps as ``_mutex_call``/``_waitgroup_call``; everything else
        # goes through ``call_native_method``.
        kind = type(native)
        if kind is Mutex:
            if sel == "Lock":
                while not native.can_lock():
                    yield blocked(native.can_lock, "sync.Mutex.Lock")
                native.lock(goroutine.gid)
                interp.detector.on_acquire(goroutine.gid, native.sync)
                yield STEP
                return None
            if sel == "Unlock":
                interp.detector.on_release(goroutine.gid, native.sync)
                native.unlock()
                yield STEP
                return None
        elif kind is WaitGroup:
            if sel == "Add":
                native.add(int(args[0]) if args else 1)
                yield STEP
                return None
            if sel == "Done":
                interp.detector.on_release(goroutine.gid, native.sync)
                native.done()
                yield STEP
                return None
            if sel == "Wait":
                while not native.ready():
                    yield blocked(native.ready, "sync.WaitGroup.Wait")
                interp.detector.on_acquire(goroutine.gid, native.sync)
                yield STEP
                return None
        result = yield from interp.call_native_method(goroutine, native, sel, args, node)
        return result

    return run


# Built-in functions.  Each lowers one call, with at least as many arguments
# as ``_BUILTINS`` requires, to code that evaluates the arguments the
# builtin reads, in order.


def _lower_make(node: ast.CallExpr, code: CodeCache) -> Code:
    type_arg = node.args[0]
    size_code = compile_expr(node.args[1], code) if len(node.args) > 1 else None
    named = type_arg if isinstance(type_arg, (ast.ArrayType, ast.MapType, ast.ChanType,
                                              ast.Ident, ast.SelectorExpr)) else None
    display = _type_display(type_arg)

    def run(interp, goroutine, env):
        size = 0
        if size_code is not None:
            size_value = yield from size_code(interp, goroutine, env)
            size = int(size_value or 0)
        resolved = interp._resolve_type(named)
        target = resolved if resolved is not None else type_arg
        if isinstance(target, ast.ChanType):
            return Channel(capacity=size, name=display)
        if isinstance(target, ast.MapType):
            return MapValue(name=display, value_type=target.value)
        if isinstance(target, ast.ArrayType):
            elements = [Cell(value=zero_value(target.elt)) for _ in range(size)]
            return SliceValue(elements=elements, name=display)
        raise GoRuntimeError(f"cannot make {display}")

    return run


def _lower_new(node: ast.CallExpr, code: CodeCache) -> Code:
    type_arg = node.args[0] if node.args else None

    def run(interp, goroutine, env):
        if False:  # pragma: no cover - keeps this a generator
            yield STEP
        value = interp._zero_for_type(type_arg)
        if isinstance(value, StructValue):
            return PointerValue(struct=value)
        return PointerValue(cell=Cell(value=value, name="new"))

    return run


def _lower_len(node: ast.CallExpr, code: CodeCache) -> Code:
    value_code = compile_expr(node.args[0], code)

    def run(interp, goroutine, env):
        value = yield from value_code(interp, goroutine, env)
        if isinstance(value, SliceValue):
            return len(value.elements)
        if isinstance(value, MapValue):
            return len(value.entries)
        if isinstance(value, Channel):
            return len(value.buffer)
        if isinstance(value, str):
            return len(value)
        if value is None:
            return 0
        raise GoRuntimeError(f"invalid argument to len: {format_value(value)}")

    return run


def _lower_cap(node: ast.CallExpr, code: CodeCache) -> Code:
    value_code = compile_expr(node.args[0], code)

    def run(interp, goroutine, env):
        value = yield from value_code(interp, goroutine, env)
        if isinstance(value, SliceValue):
            return len(value.elements)
        if isinstance(value, Channel):
            return value.capacity
        if isinstance(value, int):
            return value
        return 0

    return run


def _lower_append(node: ast.CallExpr, code: CodeCache) -> Code:
    base_code = compile_expr(node.args[0], code)
    value_codes = tuple(compile_expr(arg, code) for arg in node.args[1:])
    spread_last = bool(node.ellipsis)
    last = len(value_codes) - 1

    def run(interp, goroutine, env):
        base = yield from base_code(interp, goroutine, env)
        if base is None:
            base = SliceValue()
        if not isinstance(base, SliceValue):
            raise GoRuntimeError("first argument to append must be a slice")
        new_elements = list(base.elements)
        for index, value_code in enumerate(value_codes):
            value = yield from value_code(interp, goroutine, env)
            if spread_last and index == last and isinstance(value, SliceValue):
                new_elements.extend(Cell(value=cell.value) for cell in value.elements)
            else:
                new_elements.append(Cell(value=interp._pass_value(value)))
        return SliceValue(elements=new_elements, name=base.name)

    return run


def _lower_delete(node: ast.CallExpr, code: CodeCache) -> Code:
    map_code = compile_expr(node.args[0], code)
    key_code = compile_expr(node.args[1], code)

    def run(interp, goroutine, env):
        container = yield from map_code(interp, goroutine, env)
        key = yield from key_code(interp, goroutine, env)
        if isinstance(container, MapValue):
            yield from interp.write_cell(goroutine, container.location,
                                         len(container.entries), node)
            container.entries.pop(_map_key(key), None)
            return None
        if isinstance(container, SyncMap):
            container.delete(_map_key(key))
            return None
        if container is None:
            return None
        raise GoRuntimeError("delete expects a map")

    return run


def _lower_close(node: ast.CallExpr, code: CodeCache) -> Code:
    chan_code = compile_expr(node.args[0], code)

    def run(interp, goroutine, env):
        channel = yield from chan_code(interp, goroutine, env)
        if not isinstance(channel, Channel):
            raise GoPanic("close of nil channel")
        interp.detector.on_release(goroutine.gid, channel.sync)
        channel.close()
        return None

    return run


def _lower_panic(node: ast.CallExpr, code: CodeCache) -> Code:
    value_code = compile_expr(node.args[0], code)

    def run(interp, goroutine, env):
        value = yield from value_code(interp, goroutine, env)
        raise GoPanic(f"panic: {format_value(value)}")

    return run


def _lower_copy(node: ast.CallExpr, code: CodeCache) -> Code:
    dst_code = compile_expr(node.args[0], code)
    src_code = compile_expr(node.args[1], code)

    def run(interp, goroutine, env):
        dst = yield from dst_code(interp, goroutine, env)
        src = yield from src_code(interp, goroutine, env)
        if not isinstance(dst, SliceValue) or not isinstance(src, SliceValue):
            return 0
        count = min(len(dst.elements), len(src.elements))
        for index in range(count):
            value = yield from interp.read_cell(goroutine, src.elements[index], node)
            yield from interp.write_cell(goroutine, dst.elements[index], value, node)
        return count

    return run


def _lower_println(node: ast.CallExpr, code: CodeCache) -> Code:
    arg_codes = tuple(compile_expr(arg, code) for arg in node.args)

    def run(interp, goroutine, env):
        parts = []
        for arg_code in arg_codes:
            value = yield from arg_code(interp, goroutine, env)
            parts.append(format_value(value))
        interp.output.append(" ".join(parts))
        return None

    return run


#: Builtin name -> (lowering, fewest arguments).  A call with fewer fails
#: with ``missing argument to <name>`` when it runs.
_BUILTINS: Dict[str, Tuple[Callable[[ast.CallExpr, CodeCache], Code], int]] = {
    "make": (_lower_make, 1),
    "new": (_lower_new, 0),
    "len": (_lower_len, 1),
    "cap": (_lower_cap, 1),
    "append": (_lower_append, 1),
    "delete": (_lower_delete, 2),
    "close": (_lower_close, 1),
    "panic": (_lower_panic, 1),
    "copy": (_lower_copy, 2),
    "recover": (lambda node, code: _const(None), 0),
    "println": (_lower_println, 0),
    "print": (_lower_println, 0),
}


def _build_binary(node: ast.BinaryExpr, code: CodeCache) -> Code:
    op = node.op
    left_code = compile_expr(node.x, code)
    right_code = compile_expr(node.y, code)
    if op == "&&":

        def run_and(interp, goroutine, env):
            left = yield from left_code(interp, goroutine, env)
            if not is_truthy(left):
                return False
            right = yield from right_code(interp, goroutine, env)
            return is_truthy(right)

        return run_and
    if op == "||":

        def run_or(interp, goroutine, env):
            left = yield from left_code(interp, goroutine, env)
            if is_truthy(left):
                return True
            right = yield from right_code(interp, goroutine, env)
            return is_truthy(right)

        return run_or
    impl = _OP_IMPLS.get(op)
    if impl is None:

        def run_unsupported(interp, goroutine, env):
            yield from left_code(interp, goroutine, env)
            yield from right_code(interp, goroutine, env)
            raise GoRuntimeError(f"unsupported binary operator {op}")

        return run_unsupported

    def run(interp, goroutine, env):
        left = yield from left_code(interp, goroutine, env)
        right = yield from right_code(interp, goroutine, env)
        return impl(left, right)

    return run


def _build_unary(node: ast.UnaryExpr, code: CodeCache) -> Code:
    op = node.op
    if op == "<-":
        chan_code = compile_expr(node.x, code)

        def run_recv(interp, goroutine, env):
            channel = yield from chan_code(interp, goroutine, env)
            # Inlined ``channel_recv`` (single-value form).
            if not isinstance(channel, Channel):
                if channel is None:
                    yield blocked(lambda: False, "receive on nil channel")
                    raise GoRuntimeError("receive on nil channel")
                raise GoRuntimeError("receive on non-channel value")
            while not channel.can_recv():
                yield blocked(channel.can_recv, f"receive on empty channel {channel.name}")
            value, _ok = channel.recv()
            interp.detector.on_acquire(goroutine.gid, channel.sync)
            yield STEP
            return value

        return run_recv
    if op == "&":
        return _build_address_of(node.x, code)
    operand_code = compile_expr(node.x, code)
    if op == "-":
        compute = lambda operand: -(operand or 0)
    elif op == "+":
        compute = lambda operand: operand
    elif op == "!":
        compute = lambda operand: not is_truthy(operand)
    elif op == "^":
        compute = lambda operand: ~(operand or 0)
    else:

        def run_unsupported(interp, goroutine, env):
            yield from operand_code(interp, goroutine, env)
            raise GoRuntimeError(f"unsupported unary operator {op}")

        return run_unsupported

    def run(interp, goroutine, env):
        operand = yield from operand_code(interp, goroutine, env)
        return compute(operand)

    return run


def _build_deref(node: ast.StarExpr, code: CodeCache) -> Code:
    x_code = compile_expr(node.x, code)
    leaf = _leaf_line(node)

    def run(interp, goroutine, env):
        pointer = yield from x_code(interp, goroutine, env)
        if isinstance(pointer, PointerValue):
            cell = pointer.cell
            if cell is not None:
                yield STEP
                interp.detector.on_read(
                    goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
                return cell.value
            if pointer.struct is not None:
                return pointer.struct
        if pointer is None:
            raise GoPanic("invalid memory address or nil pointer dereference")
        # Dereferencing a non-pointer (e.g. generic code) degrades to identity.
        return pointer

    return run


def _build_index(node: ast.IndexExpr, code: CodeCache, comma_ok: bool = False) -> Code:
    """``x[i]`` of a map, slice, ``sync.Map`` or string; with ``comma_ok``,
    ``v, ok := x[i]``, which returns ``[value, present]``."""
    x_code = compile_expr(node.x, code)
    index_code = compile_expr(node.index, code)
    leaf = _leaf_line(node)

    def run(interp, goroutine, env):
        container = yield from x_code(interp, goroutine, env)
        key = yield from index_code(interp, goroutine, env)
        if isinstance(container, MapValue):
            location = container.location
            yield STEP
            interp.detector.on_read(
                goroutine.gid, location, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            key = _map_key(key)
            entries = container.entries
            if key in entries:
                value = entries[key]
                return [value, True] if comma_ok else value
            value = interp._zero_for_type(container.value_type)
            return [value, False] if comma_ok else value
        if isinstance(container, SliceValue):
            cell = _element(container, key)
            yield STEP
            interp.detector.on_read(
                goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            return [cell.value, True] if comma_ok else cell.value
        # Uncommon containers.
        if isinstance(container, SyncMap):
            value, present = container.load(_map_key(key))
            return [value, present] if comma_ok else value
        if isinstance(container, str):
            value = container[int(key)]
            return [value, True] if comma_ok else value
        if container is None:
            # A nil map, whose value type is not known here, reads nil.
            return [None, False] if comma_ok else None
        raise GoRuntimeError(f"cannot index {format_value(container)}")

    return run


def _build_slice(node: ast.SliceExpr, code: CodeCache) -> Code:
    """``x[low:high]`` of a slice (sharing its elements) or a string; the
    high bound is evaluated only once ``x`` is known to be sliceable."""
    x_code = compile_expr(node.x, code)
    low_code = compile_expr(node.low, code) if node.low is not None else None
    high_code = compile_expr(node.high, code) if node.high is not None else None

    def run(interp, goroutine, env):
        container = yield from x_code(interp, goroutine, env)
        low = 0
        if low_code is not None:
            low_value = yield from low_code(interp, goroutine, env)
            low = int(low_value)
        is_slice = isinstance(container, SliceValue)
        if not is_slice and not isinstance(container, str):
            raise GoRuntimeError(f"cannot slice {format_value(container)}")
        high = len(container)
        if high_code is not None:
            high_value = yield from high_code(interp, goroutine, env)
            high = int(high_value)
        if is_slice:
            return SliceValue(elements=container.elements[low:high], name=container.name)
        return container[low:high]

    return run


def _build_address_of(target: ast.Expr, code: CodeCache) -> Code:
    """``&target``: a variable's own cell (after a schedule point), a
    field's or a slice element's cell, a composite literal's struct, or
    else a fresh cell holding the operand's value."""
    if isinstance(target, ast.Ident):
        name = target.name

        def run_var(interp, goroutine, env):
            cell = env.lookup(name)
            if cell is None:
                raise GoRuntimeError(f"undefined: {name}")
            yield STEP
            return PointerValue(cell=cell)

        return run_var
    if isinstance(target, ast.SelectorExpr):
        x_code = compile_expr(target.x, code)
        sel = target.sel
        owner_static = ast.base_name(target)

        def run_field(interp, goroutine, env):
            base = yield from x_code(interp, goroutine, env)
            struct = _as_struct(base)
            if struct is None:
                raise GoRuntimeError(f"cannot take address of field {sel}")
            owner = owner_static or struct.type_name
            return PointerValue(cell=struct.field_cell(sel, owner_name=owner))

        return run_field
    if isinstance(target, ast.IndexExpr):
        x_code = compile_expr(target.x, code)
        index_code = compile_expr(target.index, code)

        def run_element(interp, goroutine, env):
            container = yield from x_code(interp, goroutine, env)
            key = yield from index_code(interp, goroutine, env)
            if isinstance(container, SliceValue):
                return PointerValue(cell=_element(container, key))
            raise GoRuntimeError("cannot take address of map element")

        return run_element
    value_code = compile_expr(target, code)
    is_literal = isinstance(target, ast.CompositeLit)

    def run_value(interp, goroutine, env):
        value = yield from value_code(interp, goroutine, env)
        if is_literal:
            if isinstance(value, StructValue):
                return PointerValue(struct=value)
            return PointerValue(cell=Cell(value=value, name="composite"))
        return PointerValue(cell=Cell(value=value, name="temp"))

    return run_value


def _build_composite(node: ast.CompositeLit, code: CodeCache) -> Code:
    """Hand-lowered composite literal.

    The ``sync.*`` zero check on the literal's *written* type is a pure
    function of the node and folds at compile time; the resolved underlying
    type still comes from ``interp.types`` at run time (local ``type``
    declarations can add entries), so the array/map/struct branch is decided
    per evaluation — but with every element expression precompiled."""
    type_expr = node.type_
    static_sync = _sync_zero(type_expr)
    if static_sync is not None:
        # `sync.Mutex{}` etc.: the constructor is known statically; a fresh
        # primitive materializes per evaluation.
        ctor = type(static_sync)

        def run_sync(interp, goroutine, env):
            if False:  # pragma: no cover - keeps this a generator
                yield STEP
            return ctor()

        return run_sync

    display = _type_display(type_expr)
    # Per-element lowering: (key_name, value_code) — key_name is None for
    # positional elements; for map literals the key is an expression.
    elements = []
    for elt in node.elts:
        if isinstance(elt, ast.KeyValueExpr):
            key_name = elt.key.name if isinstance(elt.key, ast.Ident) else None
            elements.append((True, key_name, compile_expr(elt.key, code),
                             compile_expr(elt.value, code)))
        else:
            elements.append((False, None, None, compile_expr(elt, code)))

    def run(interp, goroutine, env):
        resolved = interp._resolve_type(type_expr)
        if resolved is not type_expr:
            sync_value = _sync_zero(resolved)
            if sync_value is not None:
                return sync_value
        if isinstance(resolved, ast.ArrayType):
            cells = []
            for _is_kv, _key_name, _key_code, value_code in elements:
                value = yield from value_code(interp, goroutine, env)
                cells.append(Cell(value=interp._pass_value(value)))
            return SliceValue(elements=cells, name=display)
        if isinstance(resolved, ast.MapType):
            result = MapValue(name=display, value_type=resolved.value)
            for is_kv, _key_name, key_code, value_code in elements:
                if is_kv:
                    key = yield from key_code(interp, goroutine, env)
                    value = yield from value_code(interp, goroutine, env)
                    result.entries[_map_key(key)] = interp._pass_value(value)
            return result
        # Struct literal (named, qualified, or anonymous).
        struct = interp._new_struct(type_expr)
        positional_index = 0
        declared_fields = _struct_field_names(resolved)
        for is_kv, key_name, _key_code, value_code in elements:
            if is_kv and key_name is not None:
                value = yield from value_code(interp, goroutine, env)
                struct.field_cell(key_name).value = interp._pass_value(value)
            else:
                value = yield from value_code(interp, goroutine, env)
                if positional_index < len(declared_fields):
                    struct.field_cell(declared_fields[positional_index]).value = \
                        interp._pass_value(value)
                positional_index += 1
        return struct

    return run


# ---------------------------------------------------------------------------
# Assignment-target lowering
# ---------------------------------------------------------------------------


def compile_assign_target(target: ast.Expr, define: bool, code: CodeCache) -> Code:
    """Lower an assignment target to ``(interp, goroutine, env, value) -> gen``.

    Every path starts with the ``_pass_value`` struct-copy (which allocates
    cells and therefore must happen even for discarded values, to keep
    addresses aligned), before any part of the target is evaluated.  The
    paths inline it, and the cell writes inline ``write_cell``."""
    return _lower_target(target, define, code, _meta_of(code).elidable)


def _lower_target(target: ast.Expr, define: bool, code: CodeCache,
                  elidable: AbstractSet[int]) -> Code:
    """:func:`compile_assign_target` with the set of identifier nodes whose
    writes may skip the detector (``select`` receives pass an empty one)."""
    if isinstance(target, ast.Ident):
        name = target.name
        leaf = _leaf_line(target)
        if name == "_":

            def run_blank(interp, goroutine, env, value):
                if False:  # pragma: no cover - keeps this a generator
                    yield STEP
                if isinstance(value, StructValue):
                    _copy_struct(value)
                return None

            return run_blank

        if id(target) in elidable:
            # Single-goroutine binding (see ``_build_ident``): the write keeps
            # its value semantics (``_pass_value`` still allocates struct-copy
            # cells in the same order) but drops the schedule point and
            # detector hook.
            def run_local(interp, goroutine, env, value):
                if False:  # pragma: no cover - keeps this a generator
                    yield STEP
                if isinstance(value, StructValue):
                    value = _copy_struct(value)
                if define:
                    cell = env.cells.get(name)
                    if cell is None:
                        cell = env.cells[name] = Cell(None, name)
                else:
                    cell = env.lookup(name)
                    if cell is None:
                        raise GoRuntimeError(f"undefined: {name}")
                cell.value = value
                return None

            return run_local

        def run_ident(interp, goroutine, env, value):
            if isinstance(value, StructValue):
                value = _copy_struct(value)
            if define:
                cell = env.cells.get(name)
                if cell is None:
                    cell = env.cells[name] = Cell(None, name)
            else:
                cell = env.lookup(name)
                if cell is None:
                    raise GoRuntimeError(f"undefined: {name}")
            yield STEP
            interp.detector.on_write(
                goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            cell.value = value
            return None

        return run_ident

    if isinstance(target, ast.ParenExpr):
        inner_code = _lower_target(target.x, define, code, elidable)

        def run_paren(interp, goroutine, env, value):
            # ``_pass_value`` applies at both levels, so struct-copy
            # allocations happen once per level.
            if isinstance(value, StructValue):
                value = _copy_struct(value)
            yield from inner_code(interp, goroutine, env, value)
            return None

        return run_paren

    if isinstance(target, ast.SelectorExpr):
        x_code = compile_expr(target.x, code)
        sel = target.sel
        owner_static = ast.base_name(target)
        leaf = _leaf_line(target)

        def run_field(interp, goroutine, env, value):
            if isinstance(value, StructValue):
                value = _copy_struct(value)
            base = yield from x_code(interp, goroutine, env)
            struct = _as_struct(base)
            if struct is None:
                raise GoRuntimeError(
                    f"cannot assign to field {sel} of {format_value(base)}")
            cell = struct.field_cell(sel, owner_name=owner_static or struct.type_name)
            yield STEP
            interp.detector.on_write(
                goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            cell.value = value
            return None

        return run_field

    if isinstance(target, ast.IndexExpr):
        x_code = compile_expr(target.x, code)
        index_code = compile_expr(target.index, code)
        leaf = _leaf_line(target)

        def run_element(interp, goroutine, env, value):
            if isinstance(value, StructValue):
                value = _copy_struct(value)
            container = yield from x_code(interp, goroutine, env)
            key = yield from index_code(interp, goroutine, env)
            if isinstance(container, MapValue):
                cell = container.location
                size = len(container.entries)
                yield STEP
                interp.detector.on_write(
                    goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
                cell.value = size
                container.entries[_map_key(key)] = value
                return None
            if isinstance(container, SyncMap):
                container.store(_map_key(key), value)
                return None
            if isinstance(container, SliceValue):
                cell = _element(container, key)
                yield STEP
                interp.detector.on_write(
                    goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
                cell.value = value
                return None
            if container is None:
                raise GoPanic("assignment to entry in nil map")
            raise GoRuntimeError(f"cannot index into {format_value(container)}")

        return run_element

    if isinstance(target, ast.StarExpr):
        x_code = compile_expr(target.x, code)

        leaf = _leaf_line(target)

        def run_deref(interp, goroutine, env, value):
            if isinstance(value, StructValue):
                value = _copy_struct(value)
            pointer = yield from x_code(interp, goroutine, env)
            if not isinstance(pointer, PointerValue) or pointer.cell is None:
                raise GoPanic("invalid memory address or nil pointer dereference")
            cell = pointer.cell
            yield STEP
            interp.detector.on_write(
                goroutine.gid, cell, goroutine.stack_snapshot(leaf), goroutine.creation_stack)
            cell.value = value
            return None

        return run_deref

    message = f"cannot assign to {type(target).__name__}"

    def run_unassignable(interp, goroutine, env, value):
        if False:  # pragma: no cover - keeps this a generator
            yield STEP
        if isinstance(value, StructValue):
            _copy_struct(value)
        raise GoRuntimeError(message)

    return run_unassignable


# ---------------------------------------------------------------------------
# Statement lowering
# ---------------------------------------------------------------------------


def compile_stmt(node: ast.Stmt, code: CodeCache) -> Code:
    key = id(node)
    entry = code.get(key)
    if entry is not None and entry[0] is node:
        return entry[1]
    closure = _build_stmt(node, code)
    code[key] = (node, closure)
    return closure


def _block_parts(block: ast.BlockStmt, code: CodeCache) -> Tuple[Tuple[Code, ...], bool]:
    """A block's statement codes, and whether it needs a scope of its own."""
    return (tuple(compile_stmt(stmt, code) for stmt in block.stmts),
            any(_declares_inline(stmt) for stmt in block.stmts))


def compile_block(block: ast.BlockStmt, code: CodeCache) -> Code:
    key = id(block)
    entry = code.get(key)
    if entry is not None and entry[0] is block:
        return entry[1]
    stmt_codes, needs_scope = _block_parts(block, code)

    if needs_scope:

        def run(interp, goroutine, env):
            child = Environment(parent=env)
            for stmt_code in stmt_codes:
                signal = yield from stmt_code(interp, goroutine, child)
                if signal is not None:
                    return signal
            return None

    else:

        def run(interp, goroutine, env):
            for stmt_code in stmt_codes:
                signal = yield from stmt_code(interp, goroutine, env)
                if signal is not None:
                    return signal
            return None

    code[key] = (block, run)
    return run


def _build_stmt(node: ast.Stmt, code: CodeCache) -> Code:
    line = node.pos.line

    if isinstance(node, ast.ExprStmt):
        expr_code = compile_expr(node.x, code)

        def run_expr(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            yield from expr_code(interp, goroutine, env)
            return None

        return run_expr

    if isinstance(node, ast.AssignStmt):
        return _build_assign(node, code, line)

    if isinstance(node, ast.IncDecStmt):
        expr_code = compile_expr(node.x, code)
        target_code = compile_assign_target(node.x, False, code)
        delta = 1 if node.op == "++" else -1

        def run_incdec(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            current = yield from expr_code(interp, goroutine, env)
            yield from target_code(interp, goroutine, env, (current or 0) + delta)
            return None

        return run_incdec

    if isinstance(node, ast.ReturnStmt):
        result_codes = tuple(compile_expr(expr, code) for expr in node.results)
        single_result = len(node.results) == 1

        def run_return(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            values: List[Any] = []
            for result_code in result_codes:
                value = yield from result_code(interp, goroutine, env)
                if isinstance(value, TupleValue) and single_result:
                    values.extend(value.values)
                else:
                    values.append(value)
            return ReturnSignal(values=values)

        return run_return

    if isinstance(node, ast.BranchStmt):
        tok = node.tok
        if tok == "break":
            signal: Optional[Signal] = BreakSignal(label=node.label)
        elif tok == "continue":
            signal = ContinueSignal(label=node.label)
        elif tok == "fallthrough":
            signal = FallthroughSignal()
        else:

            def run_bad_branch(interp, goroutine, env):
                if False:  # pragma: no cover - keeps this a generator
                    yield STEP
                raise GoRuntimeError(f"unsupported branch statement: {tok}")

            return run_bad_branch

        def run_branch(interp, goroutine, env):
            if False:  # pragma: no cover - keeps this a generator
                yield STEP
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            return signal

        return run_branch

    if isinstance(node, ast.BlockStmt):
        block_code = compile_block(node, code)

        def run_block(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            signal = yield from block_code(interp, goroutine, env)
            return signal

        return run_block

    if isinstance(node, ast.IfStmt):
        init_code = compile_stmt(node.init, code) if node.init is not None else None
        cond_code = compile_expr(node.cond, code)
        body_code = compile_block(node.body, code)
        else_code = compile_stmt(node.else_, code) if node.else_ is not None else None
        # The if-scope only ever receives declarations from the init
        # statement; without one it is pure pass-through.
        needs_scope = node.init is not None
        cond_is_bool = _always_bool(node.cond)

        def run_if(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            scope = Environment(parent=env) if needs_scope else env
            if init_code is not None:
                yield from init_code(interp, goroutine, scope)
            cond = yield from cond_code(interp, goroutine, scope)
            if cond if cond_is_bool else is_truthy(cond):
                signal = yield from body_code(interp, goroutine, scope)
                return signal
            if else_code is not None:
                signal = yield from else_code(interp, goroutine, scope)
                return signal
            return None

        return run_if

    if isinstance(node, ast.ForStmt):
        init_code = compile_stmt(node.init, code) if node.init is not None else None
        cond_code = compile_expr(node.cond, code) if node.cond is not None else None
        body_code = compile_block(node.body, code)
        post_code = compile_stmt(node.post, code) if node.post is not None else None
        # The loop scope receives declarations only from init/post.
        needs_scope = node.init is not None or (
            node.post is not None and _declares_inline(node.post))
        cond_is_bool = _always_bool(node.cond) if node.cond is not None else True
        label = node.label

        def run_for(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            scope = Environment(parent=env) if needs_scope else env
            if init_code is not None:
                yield from init_code(interp, goroutine, scope)
            while True:
                if cond_code is not None:
                    cond = yield from cond_code(interp, goroutine, scope)
                    if not (cond if cond_is_bool else is_truthy(cond)):
                        return None
                signal = yield from body_code(interp, goroutine, scope)
                if isinstance(signal, BreakSignal):
                    if signal.label is None or signal.label == label:
                        return None
                    return signal
                if isinstance(signal, ContinueSignal):
                    if signal.label is not None and signal.label != label:
                        return signal
                elif isinstance(signal, Signal):
                    return signal
                if post_code is not None:
                    yield from post_code(interp, goroutine, scope)
                yield STEP

        return run_for

    if isinstance(node, ast.GoStmt):
        fun_code = compile_expr(node.call.fun, code)
        arg_codes = tuple(compile_expr(arg, code) for arg in node.call.args)

        def run_go(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            callee = yield from fun_code(interp, goroutine, env)
            args: List[Any] = []
            for arg_code in arg_codes:
                value = yield from arg_code(interp, goroutine, env)
                args.append(interp._pass_value(value))
            interp.spawn(goroutine, callee, args, node)
            yield STEP
            return None

        return run_go

    if isinstance(node, ast.DeferStmt):
        fun_code = compile_expr(node.call.fun, code)
        arg_codes = tuple(compile_expr(arg, code) for arg in node.call.args)

        def run_defer(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            callee = yield from fun_code(interp, goroutine, env)
            args: List[Any] = []
            for arg_code in arg_codes:
                value = yield from arg_code(interp, goroutine, env)
                args.append(interp._pass_value(value))
            goroutine.stack[-1].push_deferred((callee, args))
            return None

        return run_defer

    if isinstance(node, ast.SendStmt):
        chan_code = compile_expr(node.chan, code)
        value_code = compile_expr(node.value, code)

        def run_send(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            channel = yield from chan_code(interp, goroutine, env)
            value = yield from value_code(interp, goroutine, env)
            # Inlined ``channel_send``.
            if not isinstance(channel, Channel):
                raise GoPanic("send on nil channel" if channel is None
                              else "send on non-channel value")
            while not channel.can_send():
                yield blocked(channel.can_send, f"send on full channel {channel.name}")
            interp.detector.on_release(goroutine.gid, channel.sync)
            channel.send(_copy_struct(value) if isinstance(value, StructValue) else value)
            yield STEP
            return None

        return run_send

    if isinstance(node, ast.LabeledStmt):
        label = node.label
        inner_code = compile_stmt(node.stmt, code)

        def run_labeled(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            signal = yield from inner_code(interp, goroutine, env)
            if isinstance(signal, BreakSignal) and signal.label == label:
                return None
            return signal

        return run_labeled

    if isinstance(node, ast.EmptyStmt):

        def run_empty(interp, goroutine, env):
            if False:  # pragma: no cover - keeps this a generator
                yield STEP
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            return None

        return run_empty

    if isinstance(node, ast.RangeStmt):
        return _build_range(node, code, line)

    if isinstance(node, ast.DeclStmt):
        return _build_decl(node, code, line)
    if isinstance(node, ast.SwitchStmt):
        return _build_switch(node, code, line)
    if isinstance(node, ast.SelectStmt):
        return _build_select(node, code, line)
    return _fail(f"unsupported statement: {type(node).__name__}")


def _build_decl(node: ast.DeclStmt, code: CodeCache, line: int) -> Code:
    """A local declaration.  ``type`` specs join the run's type table;
    ``var``/``const`` specs declare one cell per name, holding the
    right-hand side's value (struct-copied) or else the type's zero."""
    type_specs = tuple(spec for spec in node.decl.specs if isinstance(spec, ast.TypeSpec))
    value_specs = tuple(
        (spec.names, spec.type_,
         compile_rhs(spec.values, len(spec.names), code) if spec.values else None)
        for spec in node.decl.specs if isinstance(spec, ast.ValueSpec))

    def run(interp, goroutine, env):
        stack = goroutine.stack
        if stack and line:
            stack[-1].line = line
        for spec in type_specs:
            interp.types[spec.name] = spec
        for names, type_, rhs_code in value_specs:
            if rhs_code is not None:
                values = yield from rhs_code(interp, goroutine, env)
                for name, value in zip(names, values):
                    cell = env.declare(name, interp._pass_value(value))
                    cell.name = name
            else:
                for name in names:
                    cell = env.declare(name, interp._zero_for_type(type_))
                    cell.name = name
        return None

    return run


def _run_clause(interp, goroutine, scope, stmt_codes) -> Generator:
    """Run a ``switch`` or ``select`` clause body; an unlabeled ``break``
    ends the statement, and any other signal (``fallthrough`` included) is
    returned."""
    for stmt_code in stmt_codes:
        signal = yield from stmt_code(interp, goroutine, scope)
        if isinstance(signal, BreakSignal) and signal.label is None:
            return None
        if isinstance(signal, Signal):
            return signal
    return None


def _build_switch(node: ast.SwitchStmt, code: CodeCache, line: int) -> Code:
    """An expression ``switch``: the cases' expressions are evaluated in
    order until one equals the tag (or, tagless, is true); the chosen body,
    or the ``default`` one, runs in the switch's own scope.  A ``fallthrough``
    runs the next clause's body in source order, ``default`` included,
    without testing that clause's expressions."""
    init_code = compile_stmt(node.init, code) if node.init is not None else None
    tagged = node.tag is not None
    tag_code = compile_expr(node.tag, code) if tagged else None
    # (case expressions, or None for ``default``; body), in source order.
    clauses = tuple(
        (tuple(compile_expr(expr, code) for expr in case.exprs) if case.exprs else None,
         tuple(compile_stmt(stmt, code) for stmt in case.body))
        for case in node.cases)
    default_index = next((index for index, (exprs, _body) in enumerate(clauses)
                          if exprs is None), None)

    def run(interp, goroutine, env):
        stack = goroutine.stack
        if stack and line:
            stack[-1].line = line
        scope = Environment(parent=env)
        if init_code is not None:
            yield from init_code(interp, goroutine, scope)
        tag: Any = True
        if tagged:
            tag = yield from tag_code(interp, goroutine, scope)
        chosen = default_index
        for index, (expr_codes, _body) in enumerate(clauses):
            matched = False
            for expr_code in expr_codes or ():
                value = yield from expr_code(interp, goroutine, scope)
                matched = _values_equal(tag, value) if tagged else is_truthy(value)
                if matched:
                    break
            if matched:
                chosen = index
                break
        if chosen is None:
            return None
        for _exprs, body in clauses[chosen:]:
            signal = yield from _run_clause(interp, goroutine, scope, body)
            if not isinstance(signal, FallthroughSignal):
                return signal
        return None

    return run


def _select_comm_parts(comm: ast.Stmt) -> Optional[Tuple[bool, ast.Expr, Optional[ast.Expr]]]:
    """Decompose a select case's communication statement into
    ``(is_receive, channel_expr, sent_value_expr)``, or ``None`` if it is
    not one."""
    if isinstance(comm, ast.SendStmt):
        return False, comm.chan, comm.value
    if isinstance(comm, ast.ExprStmt) and isinstance(comm.x, ast.UnaryExpr) and comm.x.op == "<-":
        return True, comm.x.x, None
    if isinstance(comm, ast.AssignStmt) and comm.rhs:
        rhs = comm.rhs[0]
        if isinstance(rhs, ast.UnaryExpr) and rhs.op == "<-":
            return True, rhs.x, None
        if isinstance(rhs, ast.CallExpr):
            # `case <-func() chan struct{} { ... }():` — evaluate the call to get the channel.
            return True, rhs, None
    if isinstance(comm, ast.ExprStmt) and isinstance(comm.x, ast.CallExpr):
        return True, comm.x, None
    return None


def _build_select(node: ast.SelectStmt, code: CodeCache, line: int) -> Code:
    """``select``: every case's channel is evaluated once, in order; then a
    ready case is picked at random (the scheduler's generator), else
    ``default`` runs, else the goroutine blocks until a case is ready.  A
    receive binds ``v[, ok]`` with detector-visible writes, and a send
    evaluates its value only once its case is chosen."""
    comms = []  # (is_receive, channel code, sent value code, bind targets, body)
    default_body = None
    for case in node.cases:
        body = tuple(compile_stmt(stmt, code) for stmt in case.body)
        comm = case.comm
        if comm is None:
            default_body = body
            continue
        parts = _select_comm_parts(comm)
        if parts is None:
            comms.append((True, _fail(f"unsupported select case: {type(comm).__name__}"),
                          None, (), body))
            continue
        is_receive, chan_expr, value_expr = parts
        targets = ()
        if is_receive and isinstance(comm, ast.AssignStmt):
            define = comm.tok == ":="
            targets = tuple(_lower_target(target, define, code, frozenset())
                            for target in comm.lhs)
        comms.append((is_receive, compile_expr(chan_expr, code),
                      compile_expr(value_expr, code) if value_expr is not None else None,
                      targets, body))

    def run(interp, goroutine, env):
        stack = goroutine.stack
        if stack and line:
            stack[-1].line = line
        scope = Environment(parent=env)
        channels = []
        for _is_receive, chan_code, _value_code, _targets, _body in comms:
            channel = yield from chan_code(interp, goroutine, scope)
            channels.append(channel)

        def ready_cases() -> List[int]:
            ready = []
            for index, channel in enumerate(channels):
                if not isinstance(channel, Channel):
                    continue
                if channel.can_recv() if comms[index][0] else channel.can_send():
                    ready.append(index)
            return ready

        while True:
            ready = ready_cases()
            if ready:
                choice = ready[interp.scheduler.random.randrange(len(ready))]
                is_receive, _chan_code, value_code, targets, body = comms[choice]
                channel = channels[choice]
                if is_receive:
                    value, ok = yield from interp.channel_recv(goroutine, channel)
                    for target_code, bound in zip(targets, (value, ok)):
                        yield from target_code(interp, goroutine, scope, bound)
                else:
                    sent = yield from value_code(interp, goroutine, scope)
                    yield from interp.channel_send(goroutine, channel, sent)
                break
            if default_body is not None:
                body = default_body
                break
            yield blocked(lambda: bool(ready_cases()), "select with no ready case")
        signal = yield from _run_clause(interp, goroutine, scope, body)
        return signal

    return run


def _build_range(node: ast.RangeStmt, code: CodeCache, line: int) -> Code:
    """Hand-lowered ``for ... range``: per-loop variable cells, iteration
    through ``Interpreter._range_items``, key then value write, signal
    handling, and a trailing schedule point per iteration."""
    x_code = compile_expr(node.x, code)
    body_code = compile_block(node.body, code)
    is_define = node.tok == ":="
    key_name = None
    value_name = None
    if is_define:
        if isinstance(node.key, ast.Ident) and node.key.name != "_":
            key_name = node.key.name
        if isinstance(node.value, ast.Ident) and node.value.name != "_":
            value_name = node.value.name
    key_leaf = _leaf_line(node.key) if node.key is not None else None
    value_leaf = _leaf_line(node.value) if node.value is not None else None
    elidable = _meta_of(code).elidable
    key_elided = key_name is not None and id(node.key) in elidable
    value_elided = value_name is not None and id(node.value) in elidable
    label = node.label
    key_target = None
    value_target = None
    if not is_define:
        if node.key is not None:
            key_target = compile_assign_target(node.key, False, code)
        if node.value is not None:
            value_target = compile_assign_target(node.value, False, code)

    def run(interp, goroutine, env):
        stack = goroutine.stack
        if stack and line:
            stack[-1].line = line
        scope = Environment(parent=env)
        container = yield from x_code(interp, goroutine, env)
        # Loop variables have per-loop scope (Go <= 1.21); see the
        # interpreter module docstring.
        key_cell = scope.declare(key_name) if key_name is not None else None
        value_cell = scope.declare(value_name) if value_name is not None else None
        items = yield from interp._range_items(goroutine, container, node)
        detector = interp.detector
        gid = goroutine.gid
        for key, value in items:
            if is_define:
                if key_cell is not None:
                    if key_elided:
                        key_cell.value = key
                    else:
                        # Inlined ``write_cell`` on the per-loop key cell.
                        yield STEP
                        detector.on_write(
                            gid, key_cell, goroutine.stack_snapshot(key_leaf),
                            goroutine.creation_stack)
                        key_cell.value = key
                if value_cell is not None:
                    passed = interp._pass_value(value)
                    if value_elided:
                        value_cell.value = passed
                    else:
                        yield STEP
                        detector.on_write(
                            gid, value_cell, goroutine.stack_snapshot(value_leaf),
                            goroutine.creation_stack)
                        value_cell.value = passed
            else:
                if key_target is not None:
                    yield from key_target(interp, goroutine, scope, key)
                if value_target is not None:
                    yield from value_target(interp, goroutine, scope, value)
            signal = yield from body_code(interp, goroutine, scope)
            if isinstance(signal, BreakSignal):
                if signal.label is None or signal.label == label:
                    return None
                return signal
            if isinstance(signal, ContinueSignal):
                if signal.label is not None and signal.label != label:
                    return signal
            elif isinstance(signal, Signal):
                return signal
            yield STEP
        return None

    return run


def _build_assign(node: ast.AssignStmt, code: CodeCache, line: int) -> Code:
    tok = node.tok
    if tok not in ("=", ":="):
        # Augmented assignment: x op= y.
        op = tok[:-1]
        impl = _OP_IMPLS.get(op)
        lhs_code = compile_expr(node.lhs[0], code)
        rhs_code = compile_expr(node.rhs[0], code)
        target_code = compile_assign_target(node.lhs[0], False, code)

        def run_augmented(interp, goroutine, env):
            stack = goroutine.stack
            if stack and line:
                stack[-1].line = line
            current = yield from lhs_code(interp, goroutine, env)
            operand = yield from rhs_code(interp, goroutine, env)
            if impl is None:
                raise GoRuntimeError(f"unsupported binary operator {op}")
            yield from target_code(interp, goroutine, env, impl(current, operand))
            return None

        return run_augmented

    define = tok == ":="
    target_codes = tuple(compile_assign_target(t, define, code) for t in node.lhs)
    rhs_code = compile_rhs(node.rhs, len(node.lhs), code)

    def run(interp, goroutine, env):
        stack = goroutine.stack
        if stack and line:
            stack[-1].line = line
        values = yield from rhs_code(interp, goroutine, env)
        for target_code, value in zip(target_codes, values):
            yield from target_code(interp, goroutine, env, value)
        return None

    return run


def compile_rhs(exprs: List[ast.Expr], n_targets: int, code: CodeCache) -> Code:
    """Lower the right-hand side of an ``n_targets``-target ``=``, ``:=`` or
    ``var`` (local or package-level) to code returning a list of at least
    ``n_targets`` values, padded with ``None``.

    Several expressions give one value each (a call's first result).  One
    expression for several targets is spread: the comma-ok forms (map,
    slice or string index, receive, type assertion) give a value and a flag,
    and anything else gives its tuple's values, or itself."""
    if len(exprs) == 1 and n_targets > 1:
        spread_code = _build_spread(exprs[0], code)

        def run_spread(interp, goroutine, env):
            values = yield from spread_code(interp, goroutine, env)
            while len(values) < n_targets:
                values.append(None)
            return values

        return run_spread
    value_codes = tuple(compile_expr(expr, code) for expr in exprs)

    def run(interp, goroutine, env):
        values = []
        for value_code in value_codes:
            value = yield from value_code(interp, goroutine, env)
            if isinstance(value, TupleValue):
                value = value.values[0] if value.values else None
            values.append(value)
        while len(values) < n_targets:
            values.append(None)
        return values

    return run


def _build_spread(expr: ast.Expr, code: CodeCache) -> Code:
    """One right-hand side spread over several targets (see
    :func:`compile_rhs`), as code returning a fresh list."""
    while isinstance(expr, ast.ParenExpr):
        expr = expr.x
    if isinstance(expr, ast.IndexExpr):
        return _build_index(expr, code, comma_ok=True)
    if isinstance(expr, ast.UnaryExpr) and expr.op == "<-":
        chan_code = compile_expr(expr.x, code)

        def run_recv(interp, goroutine, env):
            channel = yield from chan_code(interp, goroutine, env)
            value, ok = yield from interp.channel_recv(goroutine, channel)
            return [value, ok]

        return run_recv
    if isinstance(expr, ast.TypeAssertExpr):
        inner_code = compile_expr(expr.x, code)

        def run_assert(interp, goroutine, env):
            inner = yield from inner_code(interp, goroutine, env)
            return [inner, inner is not None]

        return run_assert
    value_code = compile_expr(expr, code)

    def run_values(interp, goroutine, env):
        value = yield from value_code(interp, goroutine, env)
        if isinstance(value, TupleValue):
            return list(value.values)
        return [value]

    return run_values


def _build_call_plan(func_type: ast.FuncType):
    """Flatten a function type's parameter/result fields into binding lists.

    Unnamed params bind as ``"_"``, and the variadic flag attaches to the
    last parameter *name* by equality."""
    params: List[Tuple[str, bool, Optional[ast.Expr]]] = []
    for param in func_type.params:
        names = param.names or ["_"]
        last = names[-1]
        for name in names:
            params.append((name, bool(param.variadic) and name == last, param.type_))
    results: List[Tuple[str, Optional[ast.Expr]]] = [
        (result_name, result_field.type_)
        for result_field in func_type.results
        for result_name in result_field.names
    ]
    flat_params = sum(len(f.names) or 1 for f in func_type.params)
    return params, results, flat_params


# ---------------------------------------------------------------------------
# Compiled program
# ---------------------------------------------------------------------------


class CompiledProgram:
    """Parsed files, their whole-program facts and the shared code cache,
    reused across runs.

    ``slicing`` selects the lowering mode: with it on, each function
    declaration is sliced when it first lowers, its slice feeds the meta's
    elidable set, and pure-local accesses lower without schedule points or
    detector hooks.  A declaration that is never called is never sliced.

    Construction computes the whole-program facts (:class:`_ProgramMeta`,
    also ``meta``) and lowers nothing else: a function body lowers on its
    first call and a global initializer on its first evaluation, when an
    :class:`~repro.runtime.interpreter.Interpreter` misses in the code cache
    and asks for it here.  A program nested deeper than
    :data:`_LAZY_MAX_DEPTH` lowers everything at construction instead, so a
    nest too deep to lower raises ``RecursionError`` at build time.

    The code cache is therefore written at run time, possibly by several
    threads running the same program.  That is safe: every lowering of a
    node yields an equivalent closure, so a racing thread that lowers a node
    again and overwrites the entry changes nothing observable."""

    __slots__ = ("files", "code", "slicing", "meta", "_package_scope")

    def __init__(self, files: List[ast.File], slicing: bool = False):
        self.files = list(files)
        self.slicing = slicing
        self.code: CodeCache = {}
        #: The package-level bindings every slice resolves against.
        self._package_scope = package_scope_bindings(self.files) if slicing else None
        # Static whole-program facts must be in place before lowering starts.
        meta = self.meta = self.code[_META_KEY] = _ProgramMeta(self.files)
        if meta.depth > _LAZY_MAX_DEPTH:
            self._lower_all()

    def _lower_all(self) -> None:
        """Lower every function body and global initializer."""
        for file in self.files:
            for decl in file.decls:
                if isinstance(decl, ast.FuncDecl):
                    if decl.body is not None:
                        self.callable_entry(decl)
                elif isinstance(decl, ast.GenDecl):
                    for spec in decl.specs:
                        if isinstance(spec, ast.ValueSpec) and spec.values:
                            self.values_code(spec)

    # -- lowering on a code-cache miss --------------------------------------------------

    def values_code(self, spec: ast.ValueSpec) -> Code:
        """The right-hand side of a package-level ``var``/``const`` spec
        (see :func:`compile_rhs`), cached under the spec."""
        entry = self.code.get(id(spec))
        if entry is not None and entry[0] is spec:
            return entry[1]
        rhs_code = compile_rhs(spec.values, len(spec.names), self.code)
        self.code[id(spec)] = (spec, rhs_code)
        return rhs_code

    def callable_entry(self, func: ast.FuncDecl | ast.FuncLit) -> tuple:
        """Everything a call of ``func`` needs that the AST fixes, built on
        its first call and cached under its body block:
        ``(body, needs scope, params, results, flat params, line, file, name,
        receiver names)``.

        A declaration's slice joins the elidable set here, before its body
        lowers (slicing on).

        ``body`` and ``needs scope`` are the body block's parts (see
        :func:`_block_parts`): the call runs the statements itself, one
        generator level fewer than running the block's code.
        ``params``/``results``/``flat params`` are the binding plan (see
        :func:`_build_call_plan`); ``line`` is the body's first line.  For a
        declaration, ``file`` is its file and ``name`` is ``T.m`` for a
        method of ``T``, else its own name; a literal's file and name come
        from its closure value.  A bodiless function gets ``None`` for
        ``body``, and its calls fail."""
        body = func.body
        params, results, flat_params = _build_call_plan(func.type_)
        file_name = name = None
        recv_names: Tuple[str, ...] = ()
        if isinstance(func, ast.FuncDecl):
            file_name = self.meta.func_files.get(id(func), "<source>")
            name = func.name
            if func.recv is not None:
                recv_names = tuple(func.recv.names)
                name = f"{_receiver_type_name(func.recv)}.{func.name}"
            if body is not None and self._package_scope is not None:
                # A racing thread may slice it again; the verdict is the same.
                self.meta.elidable.update(
                    slice_function(func, file_name, self._package_scope).elidable)
        stmt_codes, needs_scope = (_block_parts(body, self.code) if body is not None
                                   else (None, False))
        entry = (stmt_codes, needs_scope, params, results, flat_params,
                 body.pos.line if body is not None else 0, file_name, name, recv_names)
        if body is not None:
            self.code[id(body)] = (body, entry)
        return entry


# ---------------------------------------------------------------------------
# Program cache
# ---------------------------------------------------------------------------


class BuiltPackage:
    """One cached build: parse results plus (lazily) the compiled programs.

    A program is built when a run first asks for it, so a package that fails
    to build, or has nothing to run, never pays for it.  Programs are kept
    per slicing mode (the two lowerings differ)."""

    __slots__ = ("fingerprint", "files", "errors", "tests", "_programs", "_lock")

    def __init__(self, fingerprint: str, files: List[ast.File], errors: List[str]):
        self.fingerprint = fingerprint
        self.files = files
        self.errors = errors
        self.tests = discover_tests(files)
        self._programs: Dict[bool, CompiledProgram] = {}
        self._lock = threading.Lock()

    @property
    def program(self) -> Optional[CompiledProgram]:
        """A compiled program, if one has been built (or ``None``)."""
        return self._programs.get(True) or self._programs.get(False)

    def ensure_program(self, slicing: bool = True) -> Optional[CompiledProgram]:
        """Build the compiled program on first use (thread-safe).

        ``slicing`` picks the slice-aware lowering (the production one) or
        the fully instrumented one.  Nesting the parser accepts can
        still be too deep to lower; the build then fails with the parser's
        ``nesting too deep`` error and this returns ``None``."""
        if self.errors:
            return None
        program = self._programs.get(slicing)
        if program is None:
            with self._lock:
                program = self._programs.get(slicing)
                if program is None:
                    try:
                        program = CompiledProgram(self.files, slicing=slicing)
                    except RecursionError:
                        self.errors = [_nesting_error(self.files)]
                        return None
                    self._programs[slicing] = program
        return program


def discover_tests(files: List[ast.File]) -> List[ast.FuncDecl]:
    """The package's test functions, in declaration order: every top-level
    ``Test*`` function with a body."""
    return [
        decl
        for file in files
        for decl in file.func_decls()
        if decl.name.startswith("Test") and decl.recv is None and decl.body is not None
    ]


def _nesting_error(files: List[ast.File]) -> str:
    """The parser's ``nesting too deep`` error, at the most deeply nested node."""
    deepest, where = -1, None
    stack = [(file, file.name, 0) for file in files]
    while stack:  # iterative: the tree is too deep to recurse over
        node, file_name, depth = stack.pop()
        if depth > deepest:
            deepest, where = depth, (file_name, node.pos)
        stack.extend((child, file_name, depth + 1) for child in node.children())
    file_name, pos = where
    return str(GoSyntaxError("nesting too deep", file_name, pos.line, pos.column))


def package_fingerprint(package) -> str:
    """A stable digest of a package's name and file contents."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(package.name.encode("utf-8"))
    for file in package.files:
        digest.update(b"\x00")
        digest.update(file.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(file.source.encode("utf-8"))
    return digest.hexdigest()


class ProgramCache:
    """Process-wide LRU of :class:`BuiltPackage` keyed by source fingerprint.

    Shared by every harness in the process (and by every thread worker);
    process-pool workers each warm their own copy.  It holds the 16 most
    recently requested builds: a build that stays in the heap is over a
    thousand objects the cyclic collector walks on every full collection,
    and most builds are never requested again (a detection sweep builds
    hundreds of distinct packages once each).  The repeats that matter are a
    fix's candidates re-run by another table arm, and
    :class:`~repro.core.validator.FixValidator` answers those from its
    verdict memo before they reach the harness.

    The lock guards the entries and counters only; a build runs outside it,
    so two threads that miss on one fingerprint at once both build it and
    the later insert wins."""

    capacity = 16

    def __init__(self):
        self._lock = threading.Lock()
        #: Builds, least recently used first.
        self._builds: "OrderedDict[str, BuiltPackage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, package) -> BuiltPackage:
        fingerprint = package_fingerprint(package)
        with self._lock:
            entry = self._builds.get(fingerprint)
            if entry is not None:
                self._builds.move_to_end(fingerprint)
                self.hits += 1
                return entry
            self.misses += 1
        files: List[ast.File] = []
        errors: List[str] = []
        for file in package.files:
            try:
                files.append(parse_file(file.source, file.name))
            except GoSyntaxError as exc:
                errors.append(str(exc))
        entry = BuiltPackage(fingerprint, files, errors)
        with self._lock:
            self._builds[fingerprint] = entry
            self._builds.move_to_end(fingerprint)
            if len(self._builds) > self.capacity:
                self._builds.popitem(last=False)
                self.evictions += 1
        return entry

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of every cache counter (for observability)."""
        parse = parse_cache_info()
        with self._lock:
            return {
                "entries": len(self._builds),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                # The shared parse cache behind every ``parse_file`` call
                # (named apart from ``hits``/``misses``, which count builds).
                "parse_hits": parse.hits,
                "parse_misses": parse.misses,
                "parse_entries": parse.currsize,
            }

    def clear(self) -> None:
        """Cold-start reset: every build and shared parse is dropped."""
        clear_parse_cache()
        with self._lock:
            self._builds.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._builds)


#: The process-wide program cache used by the harness.
PROGRAM_CACHE = ProgramCache()
