"""Concurrency-oriented static analysis over the Go-subset AST.

The one home of the questions that the skeletonizer (Section 4.3), the
race-info extractor (Section 4.2), the race diagnoser and the fix strategies
ask of the same Go trees:

* find concurrency constructs (``go``, channels, ``sync.*``, ``atomic.*``,
  calls of a named method, goroutine closures);
* names: the identifiers under a node, the names a function declares,
  package-level variables;
* receivers and fields: the methods of a type, ``recv.field`` selectors and
  writes to them, nil checks, ``sync.*``-typed struct fields;
* collect the variable names referenced on given source lines (the racy
  variables of interest);
* locate the function declaration or closure that encloses a source line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.errors import GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file

#: Identifiers predeclared in Go's universe scope.
UNIVERSE_NAMES = {
    "true", "false", "nil", "iota",
    "append", "cap", "close", "copy", "delete", "len", "make", "new", "panic",
    "print", "println", "recover",
    "bool", "byte", "complex64", "complex128", "error", "float32", "float64",
    "int", "int8", "int16", "int32", "int64", "rune", "string",
    "uint", "uint8", "uint16", "uint32", "uint64", "uintptr", "any",
    "_",
}

#: Selector roots that indicate a synchronization package.
SYNC_PACKAGES = {"sync", "atomic"}

#: Method names that indicate synchronization when called on any receiver.
SYNC_METHOD_NAMES = {
    "Lock", "Unlock", "RLock", "RUnlock", "TryLock",
    "Add", "Done", "Wait",
    "Load", "Store", "Delete", "Range", "LoadOrStore", "CompareAndSwap",
    "AddInt32", "AddInt64", "LoadInt32", "LoadInt64", "StoreInt32", "StoreInt64",
    "CompareAndSwapInt32", "CompareAndSwapInt64",
    "Do",
}


# ---------------------------------------------------------------------------
# Concurrency construct detection
# ---------------------------------------------------------------------------


def _is_method_call(node: ast.Node, methods) -> bool:
    return isinstance(node, ast.CallExpr) and isinstance(node.fun, ast.SelectorExpr) \
        and node.fun.sel in methods


def calls_method(node: ast.Node, *methods: str) -> bool:
    """Return True if some call under ``node`` has the selector ``.M`` for
    one of ``methods`` (``mu.Lock()``, ``t.Run(...)``, ...)."""
    return any(_is_method_call(inner, methods) for inner in ast.walk(node))


def _is_concurrency_node(node: ast.Node, receives: bool) -> bool:
    if isinstance(node, (ast.GoStmt, ast.SendStmt, ast.SelectStmt, ast.ChanType)):
        return True
    if isinstance(node, ast.UnaryExpr):
        return receives and node.op == "<-"
    if isinstance(node, ast.SelectorExpr):
        return ast.base_name(node) in SYNC_PACKAGES
    return _is_method_call(node, SYNC_METHOD_NAMES)


def mentions_concurrency(node: ast.Node | None, receives: bool = True) -> bool:
    """Return True if ``node`` or a descendant is a concurrency construct: a
    ``go``, send or ``select`` statement (closures included), a channel type,
    a receive (unless ``receives`` is False), a selector on ``sync``/``atomic``,
    or a call of a synchronization method."""
    if node is None:
        return False
    return any(_is_concurrency_node(inner, receives) for inner in ast.walk(node))


def stmt_is_concurrency(stmt: ast.Stmt) -> bool:
    """Return True if the statement itself is a concurrency construct."""
    if isinstance(stmt, (ast.GoStmt, ast.SendStmt, ast.SelectStmt)):
        return True
    if isinstance(stmt, ast.DeferStmt):
        return mentions_concurrency(stmt.call)
    if isinstance(stmt, ast.ExprStmt):
        return mentions_concurrency(stmt.x)
    if isinstance(stmt, ast.AssignStmt):
        return any(mentions_concurrency(e) for e in stmt.lhs + stmt.rhs)
    if isinstance(stmt, ast.DeclStmt):
        for spec in stmt.decl.specs:
            if isinstance(spec, ast.ValueSpec):
                if mentions_concurrency(spec.type_):
                    return True
                if any(mentions_concurrency(v) for v in spec.values):
                    return True
    return False


def go_closures(node: ast.Node) -> List[Tuple[ast.GoStmt, ast.FuncLit]]:
    """(``go`` statement, closure) pairs for every ``go func() {...}()``
    under ``node``."""
    return [
        (inner, inner.call.fun)
        for inner in ast.walk(node)
        if isinstance(inner, ast.GoStmt) and isinstance(inner.call.fun, ast.FuncLit)
    ]


# ---------------------------------------------------------------------------
# Names and declarations
# ---------------------------------------------------------------------------


def ident_names(node: ast.Node | None) -> Set[str]:
    """The names of every identifier under ``node``."""
    if node is None:
        return set()
    return {inner.name for inner in ast.walk(node) if isinstance(inner, ast.Ident)}


def declared_names(func: ast.FuncDecl, ranges: bool = False) -> Set[str]:
    """The parameters of ``func`` and the names its body declares with
    ``:=`` or ``var``; with ``ranges``, also its range variables.  Empty for
    a declaration without a body."""
    if func.body is None:
        return set()
    names = {name for param in func.type_.params for name in param.names}
    for node in ast.walk(func.body):
        if isinstance(node, ast.AssignStmt) and node.tok == ":=":
            names.update(target.name for target in node.lhs if isinstance(target, ast.Ident))
        elif isinstance(node, ast.DeclStmt):
            for spec in node.decl.specs:
                if isinstance(spec, ast.ValueSpec):
                    names.update(spec.names)
        elif ranges and isinstance(node, ast.RangeStmt):
            names.update(expr.name for expr in (node.key, node.value)
                         if isinstance(expr, ast.Ident))
    return names


def package_level_var(file: ast.File, name: str) -> bool:
    """Return True if ``file`` declares ``name`` with a top-level ``var``."""
    for decl in file.decls:
        if isinstance(decl, ast.GenDecl) and decl.tok == "var":
            for spec in decl.specs:
                if isinstance(spec, ast.ValueSpec) and name in spec.names:
                    return True
    return False


# ---------------------------------------------------------------------------
# Receivers and fields
# ---------------------------------------------------------------------------


def methods_of(file: ast.File, type_name: str) -> List[ast.FuncDecl]:
    """The methods with a body whose receiver is ``type_name`` or
    ``*type_name``."""
    result = []
    for decl in file.func_decls():
        if decl.recv is None or decl.body is None:
            continue
        recv_type = decl.recv.type_
        if isinstance(recv_type, ast.StarExpr):
            recv_type = recv_type.x
        if isinstance(recv_type, ast.Ident) and recv_type.name == type_name:
            result.append(decl)
    return result


def receiver_name(decl: ast.FuncDecl) -> str:
    """The receiver's name; empty for functions and unnamed receivers."""
    if decl.recv is not None and decl.recv.names:
        return decl.recv.names[0]
    return ""


def is_field_selector(expr: ast.Expr, receiver: str, field_name: str) -> bool:
    """Return True if ``expr`` selects ``field_name`` on a value rooted at
    ``receiver`` (``recv.field``, ``recv.inner.field``, ...)."""
    return (
        isinstance(expr, ast.SelectorExpr)
        and expr.sel == field_name
        and ast.base_name(expr) == receiver
    )


def mentions_field(node: ast.Node, receiver: str, field_name: str) -> bool:
    """Return True if ``receiver.field`` appears under ``node``."""
    return any(is_field_selector(inner, receiver, field_name) for inner in ast.walk(node))


def writes_selector(body: ast.Node, base: str, field_name: Optional[str] = None) -> bool:
    """``base.field = ...`` (or ``++``/``--``) anywhere in ``body``; any field
    counts when ``field_name`` is None."""
    for node in ast.walk(body):
        targets: List[ast.Expr] = []
        if isinstance(node, ast.AssignStmt):
            targets = node.lhs
        elif isinstance(node, ast.IncDecStmt):
            targets = [node.x]
        for target in targets:
            if isinstance(target, ast.SelectorExpr) and ast.base_name(target) == base:
                if field_name is None or target.sel == field_name:
                    return True
    return False


def is_nil_check(cond: ast.Expr, receiver: str, field_name: str) -> bool:
    """Return True if ``cond`` is ``receiver.field == nil``."""
    return (
        isinstance(cond, ast.BinaryExpr)
        and cond.op == "=="
        and is_field_selector(cond.x, receiver, field_name)
        and isinstance(cond.y, ast.Ident)
        and cond.y.name == "nil"
    )


def is_sync_type(type_expr: ast.Expr | None, *kinds: str) -> bool:
    """Return True if ``type_expr`` is ``sync.K`` for one of ``kinds``."""
    return isinstance(type_expr, ast.SelectorExpr) and isinstance(type_expr.x, ast.Ident) \
        and type_expr.x.name == "sync" and type_expr.sel in kinds


def sync_field(spec: ast.TypeSpec, *kinds: str) -> Optional[str]:
    """Name of the struct's first named field of type ``sync.K`` for one of
    ``kinds`` (``sync_field(spec, "Mutex", "RWMutex")``), if any."""
    if not isinstance(spec.type_, ast.StructType):
        return None
    for struct_field in spec.type_.fields:
        if is_sync_type(struct_field.type_, *kinds) and struct_field.names:
            return struct_field.names[0]
    return None


# ---------------------------------------------------------------------------
# Package files
# ---------------------------------------------------------------------------


def parse_package_file(package, file_name: str) -> Optional[ast.File]:
    """The parsed tree of the file ``file_name`` of ``package`` (a
    :class:`~repro.runtime.harness.GoPackage`); None when the package has no
    such file or it does not parse."""
    file = package.file(file_name)
    if file is None:
        return None
    try:
        return parse_file(file.source, file_name)
    except GoSyntaxError:
        return None


# ---------------------------------------------------------------------------
# Line-oriented helpers
# ---------------------------------------------------------------------------


def node_line_span(node: ast.Node) -> Tuple[int, int]:
    """Return the (min, max) source line covered by ``node`` and its children."""
    lines = [n.pos.line for n in ast.walk(node) if n.pos.line > 0]
    if not lines:
        return (0, 0)
    return (min(lines), max(lines))


def names_on_lines(func: ast.FuncDecl | ast.FuncLit, lines: Iterable[int]) -> Set[str]:
    """Return the identifier names referenced by statements covering ``lines``."""
    wanted = set(lines)
    names: Set[str] = set()
    body = func.body
    if body is None:
        return names
    for node in ast.walk(body):
        if not isinstance(node, ast.Stmt):
            continue
        low, high = node_line_span(node)
        stmt_lines = set(range(low, high + 1)) if low else set()
        if not (stmt_lines & wanted):
            continue
        if isinstance(node, (ast.BlockStmt, ast.IfStmt, ast.ForStmt, ast.RangeStmt,
                             ast.SwitchStmt, ast.SelectStmt)):
            # Only leaf-ish statements contribute names; compound statements
            # would pull in their whole bodies.
            continue
        names |= ident_names(node)
    return names


# ---------------------------------------------------------------------------
# Function lookup by line
# ---------------------------------------------------------------------------


@dataclass
class EnclosingFunction:
    """A function declaration (and optionally the closure) covering a source line."""

    decl: ast.FuncDecl
    closure: Optional[ast.FuncLit] = None

    @property
    def name(self) -> str:
        return self.decl.name


def find_enclosing_function(file: ast.File, line: int) -> Optional[EnclosingFunction]:
    """Find the top-level function (and innermost closure) covering ``line``."""
    best: Optional[EnclosingFunction] = None
    for decl in file.func_decls():
        if decl.body is None:
            continue
        low, high = node_line_span(decl)
        if not (low <= line <= high):
            continue
        closure: Optional[ast.FuncLit] = None
        for node in ast.walk(decl.body):
            if isinstance(node, ast.FuncLit):
                clow, chigh = node_line_span(node)
                if clow <= line <= chigh:
                    closure = node
        best = EnclosingFunction(decl=decl, closure=closure)
    return best
