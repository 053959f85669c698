"""Per-function binding analysis driving selective instrumentation.

The compile-once engine instruments *every* identifier read and write with a
schedule point and a detector callback, even though most accesses in a typical
package touch bindings that provably can never be shared between goroutines.
This module computes, once per build, which accesses those are.

Every identifier occurrence inside a function is resolved to the binding it
denotes (mirroring the interpreter's lexical environment chain).  A binding is
*pure-local* when it is declared inside its function unit (parameter,
receiver, ``:=``, ``var``, range variable), is never captured by a nested
closure, and never has its address taken.  The cell behind such a binding is
reachable by exactly one goroutine (Go closures capture by reference, and
pointers are the only other way out), so eliding its schedule point and
detector hook can never hide a race.

The compiler consumes :attr:`FunctionSlice.elidable` (identifier-node ids
whose access instrumentation may be dropped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.golang import ast_nodes as ast
from repro.golang.analysis import UNIVERSE_NAMES

#: Unit id used for package-scope bindings (no function declares them).
_PACKAGE_UNIT = 0


@dataclass(eq=False)
class Binding:
    """One declared variable and the facts that decide its shareability."""

    name: str
    #: ``id()`` of the declaring function unit (FuncDecl/FuncLit), or
    #: :data:`_PACKAGE_UNIT` for package-level variables.
    unit: int = _PACKAGE_UNIT
    #: Declared at package scope — shared state by definition.
    package_level: bool = False
    #: Referenced from inside a closure nested below the declaring unit
    #: (Go captures by reference: the cell escapes to the closure).
    captured: bool = False
    #: Operand of ``&`` somewhere (any pointer can carry the cell anywhere).
    addressed: bool = False

    @property
    def pure_local(self) -> bool:
        """Can the cell behind this binding ever be seen by a second goroutine?"""
        return not (self.package_level or self.captured or self.addressed)


class _Scope:
    """A lexical scope mapping names to :class:`Binding` objects."""

    __slots__ = ("parent", "bindings", "unit")

    def __init__(self, parent: Optional["_Scope"], unit: int):
        self.parent = parent
        self.bindings: Dict[str, Binding] = {}
        self.unit = unit

    def lookup(self, name: str) -> Optional[Binding]:
        scope: Optional[_Scope] = self
        while scope is not None:
            binding = scope.bindings.get(name)
            if binding is not None:
                return binding
            scope = scope.parent
        return None


# ---------------------------------------------------------------------------
# Binding / occurrence analysis
# ---------------------------------------------------------------------------


class _BindingWalker:
    """Resolve every identifier occurrence of one function to its binding.

    Mirrors the lexical scoping the interpreter's environment chain
    implements (``:=`` reuses a same-scope cell, shadows an outer one;
    if/for/switch/select introduce scopes; range variables are per-loop).
    Any name that does not resolve to a tracked binding simply produces no
    occurrence — unresolved means uninstrumentable means never elided.
    """

    def __init__(self, package_scope: _Scope):
        self.package_scope = package_scope
        #: Every resolved occurrence: ``id(Ident node) → Binding``.
        self.occurrences: Dict[int, Binding] = {}
        self.bindings: List[Binding] = []
        self._unit = _PACKAGE_UNIT

    # -- declaration helpers ------------------------------------------------------------

    def _declare(self, scope: _Scope, name: str) -> Optional[Binding]:
        if name == "_" or name in UNIVERSE_NAMES:
            return None
        existing = scope.bindings.get(name)
        if existing is not None:
            # ``x, err := ...`` twice in one scope reuses the cell, exactly
            # like ``compile_assign_target``'s define path.
            return existing
        binding = Binding(name=name, unit=self._unit)
        scope.bindings[name] = binding
        self.bindings.append(binding)
        return binding

    def _use(self, node: ast.Ident, scope: _Scope) -> None:
        name = node.name
        if name == "_" or name in UNIVERSE_NAMES:
            return
        binding = scope.lookup(name)
        if binding is None:
            return
        if binding.unit not in (self._unit, _PACKAGE_UNIT):
            # Resolution crossed a closure boundary: captured by reference.
            binding.captured = True
        self.occurrences[id(node)] = binding

    def _mark_addressed(self, operand: ast.Expr, scope: _Scope) -> None:
        base = ast.base_name(operand)
        if base:
            binding = scope.lookup(base)
            if binding is not None:
                binding.addressed = True

    # -- function entry -----------------------------------------------------------------

    def walk_function(self, decl: ast.FuncDecl) -> None:
        self._unit = id(decl)
        scope = _Scope(parent=self.package_scope, unit=self._unit)
        if decl.recv is not None:
            for name in decl.recv.names:
                self._declare(scope, name)
        self._declare_fields(scope, decl.type_)
        if decl.body is not None:
            self._walk_block(decl.body, scope)

    def _declare_fields(self, scope: _Scope, func_type: ast.FuncType) -> None:
        for group in (func_type.params, func_type.results):
            for fld in group:
                for name in fld.names:
                    self._declare(scope, name)

    # -- statements ---------------------------------------------------------------------

    def _walk_block(self, block: ast.BlockStmt, parent: _Scope) -> None:
        scope = _Scope(parent=parent, unit=self._unit)
        for stmt in block.stmts:
            self._walk_stmt(stmt, scope)

    def _walk_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.AssignStmt):
            for expr in stmt.rhs:
                self._walk_expr(expr, scope)
            if stmt.tok == ":=":
                for target in stmt.lhs:
                    if isinstance(target, ast.Ident):
                        self._declare(scope, target.name)
                        self._use(target, scope)
                    else:
                        self._walk_expr(target, scope)
            else:
                for target in stmt.lhs:
                    self._walk_expr(target, scope)
        elif isinstance(stmt, ast.DeclStmt):
            for spec in stmt.decl.specs:
                if isinstance(spec, ast.ValueSpec):
                    if spec.type_ is not None:
                        self._walk_expr(spec.type_, scope)
                    for value in spec.values:
                        self._walk_expr(value, scope)
                    for name in spec.names:
                        self._declare(scope, name)
        elif isinstance(stmt, ast.ExprStmt):
            self._walk_expr(stmt.x, scope)
        elif isinstance(stmt, (ast.GoStmt, ast.DeferStmt)):
            self._walk_expr(stmt.call, scope)
        elif isinstance(stmt, ast.SendStmt):
            self._walk_expr(stmt.chan, scope)
            self._walk_expr(stmt.value, scope)
        elif isinstance(stmt, ast.IncDecStmt):
            self._walk_expr(stmt.x, scope)
        elif isinstance(stmt, ast.ReturnStmt):
            for expr in stmt.results:
                self._walk_expr(expr, scope)
        elif isinstance(stmt, ast.BlockStmt):
            self._walk_block(stmt, scope)
        elif isinstance(stmt, ast.IfStmt):
            inner = _Scope(parent=scope, unit=self._unit)
            if stmt.init is not None:
                self._walk_stmt(stmt.init, inner)
            self._walk_expr(stmt.cond, inner)
            self._walk_block(stmt.body, inner)
            if stmt.else_ is not None:
                self._walk_stmt(stmt.else_, inner)
        elif isinstance(stmt, ast.ForStmt):
            inner = _Scope(parent=scope, unit=self._unit)
            if stmt.init is not None:
                self._walk_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._walk_expr(stmt.cond, inner)
            if stmt.post is not None:
                self._walk_stmt(stmt.post, inner)
            self._walk_block(stmt.body, inner)
        elif isinstance(stmt, ast.RangeStmt):
            inner = _Scope(parent=scope, unit=self._unit)
            self._walk_expr(stmt.x, inner)
            for var in (stmt.key, stmt.value):
                if var is None:
                    continue
                if stmt.tok == ":=" and isinstance(var, ast.Ident):
                    self._declare(inner, var.name)
                    self._use(var, inner)
                else:
                    self._walk_expr(var, inner)
            self._walk_block(stmt.body, inner)
        elif isinstance(stmt, ast.SwitchStmt):
            inner = _Scope(parent=scope, unit=self._unit)
            if stmt.init is not None:
                self._walk_stmt(stmt.init, inner)
            if stmt.tag is not None:
                self._walk_expr(stmt.tag, inner)
            for case in stmt.cases:
                case_scope = _Scope(parent=inner, unit=self._unit)
                for expr in case.exprs:
                    self._walk_expr(expr, case_scope)
                for body_stmt in case.body:
                    self._walk_stmt(body_stmt, case_scope)
        elif isinstance(stmt, ast.SelectStmt):
            for case in stmt.cases:
                case_scope = _Scope(parent=scope, unit=self._unit)
                if case.comm is not None:
                    self._walk_stmt(case.comm, case_scope)
                for body_stmt in case.body:
                    self._walk_stmt(body_stmt, case_scope)
        elif isinstance(stmt, ast.LabeledStmt):
            self._walk_stmt(stmt.stmt, scope)
        # Branch/Empty statements carry no expressions.

    # -- expressions --------------------------------------------------------------------

    def _walk_expr(self, expr: Optional[ast.Expr], scope: _Scope) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Ident):
            self._use(expr, scope)
        elif isinstance(expr, ast.FuncLit):
            outer_unit = self._unit
            self._unit = id(expr)
            lit_scope = _Scope(parent=scope, unit=self._unit)
            self._declare_fields(lit_scope, expr.type_)
            self._walk_block(expr.body, lit_scope)
            self._unit = outer_unit
        elif isinstance(expr, ast.UnaryExpr):
            if expr.op == "&":
                self._mark_addressed(expr.x, scope)
            self._walk_expr(expr.x, scope)
        elif isinstance(expr, ast.SelectorExpr):
            self._walk_expr(expr.x, scope)
        elif isinstance(expr, ast.IndexExpr):
            self._walk_expr(expr.x, scope)
            self._walk_expr(expr.index, scope)
        elif isinstance(expr, ast.SliceExpr):
            self._walk_expr(expr.x, scope)
            self._walk_expr(expr.low, scope)
            self._walk_expr(expr.high, scope)
        elif isinstance(expr, ast.CallExpr):
            self._walk_expr(expr.fun, scope)
            for arg in expr.args:
                self._walk_expr(arg, scope)
        elif isinstance(expr, (ast.StarExpr, ast.ParenExpr)):
            self._walk_expr(expr.x, scope)
        elif isinstance(expr, ast.BinaryExpr):
            self._walk_expr(expr.x, scope)
            self._walk_expr(expr.y, scope)
        elif isinstance(expr, ast.TypeAssertExpr):
            self._walk_expr(expr.x, scope)
        elif isinstance(expr, ast.KeyValueExpr):
            self._walk_expr(expr.value, scope)
        elif isinstance(expr, ast.CompositeLit):
            for elt in expr.elts:
                self._walk_expr(elt, scope)
        # Type expressions carry no runtime value references.


# ---------------------------------------------------------------------------
# Slice results
# ---------------------------------------------------------------------------


@dataclass
class FunctionSlice:
    """The slice verdict for one top-level function declaration."""

    name: str
    file: str
    #: ``id()`` of every identifier node whose access instrumentation
    #: (schedule point + detector hook) may be elided.
    elidable: frozenset
    #: Total resolved identifier occurrences.
    total_sites: int = 0
    elidable_sites: int = 0
    #: Sorted names of this unit's pure-local / shared bindings (diagnostics).
    pure_bindings: Tuple[str, ...] = ()
    shared_bindings: Tuple[str, ...] = ()


def package_scope_bindings(files: Iterable[ast.File]) -> _Scope:
    """Package-level ``var``/``const`` names as shared :class:`Binding`\\ s.

    Function, type, and import names deliberately create no bindings: an
    occurrence resolving to none of our bindings is simply never elided.
    """
    scope = _Scope(parent=None, unit=_PACKAGE_UNIT)
    for file in files:
        for decl in file.decls:
            if isinstance(decl, ast.GenDecl) and decl.tok in ("var", "const"):
                for spec in decl.specs:
                    if isinstance(spec, ast.ValueSpec):
                        for name in spec.names:
                            if name != "_" and name not in scope.bindings:
                                scope.bindings[name] = Binding(
                                    name=name, unit=_PACKAGE_UNIT, package_level=True)
    return scope


def slice_function(decl: ast.FuncDecl, file_name: str,
                   package_scope: _Scope) -> FunctionSlice:
    """Analyze one top-level function: resolve its bindings and occurrences."""
    walker = _BindingWalker(package_scope)
    walker.walk_function(decl)

    elidable = frozenset(
        node_id for node_id, binding in walker.occurrences.items()
        if binding.pure_local
    )
    touched = set(walker.occurrences.values()) | set(walker.bindings)
    return FunctionSlice(
        name=decl.name,
        file=file_name,
        elidable=elidable,
        total_sites=len(walker.occurrences),
        elidable_sites=len(elidable),
        pure_bindings=tuple(sorted({b.name for b in touched if b.pure_local})),
        shared_bindings=tuple(sorted({b.name for b in touched if not b.pure_local})),
    )


__all__ = [
    "Binding",
    "FunctionSlice",
    "package_scope_bindings",
    "slice_function",
]
