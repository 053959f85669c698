"""Concurrency-oriented static analysis over the Go-subset AST.

Helpers used by the skeletonizer (Section 4.3), the race-info extractor
(Section 4.2), and several fix strategies:

* find concurrency constructs (``go``, channels, ``sync.*``, ``atomic.*``);
* collect the variable names referenced on given source lines (the racy
  variables of interest);
* locate the function declaration or closure that encloses a source line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Set, Tuple

from repro.golang import ast_nodes as ast

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

#: Type names (right-hand side of a selector on ``sync``) considered concurrency types.
SYNC_TYPE_NAMES = {"Mutex", "RWMutex", "WaitGroup", "Map", "Once", "Cond", "Pool"}


# ---------------------------------------------------------------------------
# Concurrency construct detection
# ---------------------------------------------------------------------------


def expr_mentions_sync(expr: ast.Expr | None) -> bool:
    """Return True if the expression mentions a synchronization construct."""
    if expr is None:
        return False
    for node in ast.walk(expr):
        if isinstance(node, ast.SelectorExpr):
            root = ast.base_name(node)
            if root in SYNC_PACKAGES:
                return True
            if node.sel in SYNC_TYPE_NAMES and isinstance(node.x, ast.Ident) and node.x.name == "sync":
                return True
        if isinstance(node, ast.CallExpr):
            fun = node.fun
            if isinstance(fun, ast.SelectorExpr) and fun.sel in SYNC_METHOD_NAMES:
                return True
        if isinstance(node, (ast.ChanType,)):
            return True
        if isinstance(node, ast.UnaryExpr) and node.op == "<-":
            return True
        if isinstance(node, ast.FuncLit):
            if block_mentions_concurrency(node.body):
                return True
    return False


def stmt_is_concurrency(stmt: ast.Stmt) -> bool:
    """Return True if the statement itself is a concurrency construct."""
    if isinstance(stmt, (ast.GoStmt, ast.SendStmt, ast.SelectStmt)):
        return True
    if isinstance(stmt, ast.DeferStmt):
        return expr_mentions_sync(stmt.call)
    if isinstance(stmt, ast.ExprStmt):
        return expr_mentions_sync(stmt.x)
    if isinstance(stmt, ast.AssignStmt):
        return any(expr_mentions_sync(e) for e in stmt.lhs + stmt.rhs)
    if isinstance(stmt, ast.DeclStmt):
        for spec in stmt.decl.specs:
            if isinstance(spec, ast.ValueSpec):
                if spec.type_ is not None and expr_mentions_sync(spec.type_):
                    return True
                if any(expr_mentions_sync(v) for v in spec.values):
                    return True
    return False


def block_mentions_concurrency(block: ast.BlockStmt | None) -> bool:
    if block is None:
        return False
    for stmt in block.stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.GoStmt, ast.SendStmt, ast.SelectStmt, ast.ChanType)):
                return True
            if isinstance(node, ast.UnaryExpr) and node.op == "<-":
                return True
            if isinstance(node, ast.SelectorExpr) and ast.base_name(node) in SYNC_PACKAGES:
                return True
            if isinstance(node, ast.CallExpr) and isinstance(node.fun, ast.SelectorExpr) \
                    and node.fun.sel in SYNC_METHOD_NAMES:
                return True
    return False


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
        for inner in ast.walk(node):
            if isinstance(inner, ast.Ident):
                names.add(inner.name)
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
