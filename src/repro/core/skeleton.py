"""Concurrency skeleton creation via AST-based program slicing (Section 4.3).

Given a Go source file and the line numbers (or variable names) involved in a
data race, the skeletonizer:

1. parses the file and locates the function(s) containing the race;
2. treats the variables referenced on the racy lines as *variables of
   interest*;
3. marks statements containing concurrency constructs (``go``, ``WaitGroup``,
   ``sync``, ``Lock``/``Unlock``, ``atomic``, channel operations) as relevant;
4. prunes every statement that neither is relevant nor (for control
   structures) transitively contains a relevant statement, also keeping the
   declarations of any variable a kept statement still references;
5. renames variables of interest to ``racyVarN`` and all other program-specific
   identifiers to ``vN`` / ``typeN`` / ``funcN``, preserving concurrency
   vocabulary (``sync``, ``atomic``, ``Lock``, ``Wait``, channel syntax, ...).

The result mirrors Listing 3 → Listing 4 of the paper: a distilled version of
the racy function(s) highlighting the core concurrency interactions, which is
then embedded and used as the retrieval key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.golang import ast_nodes as ast
from repro.golang.analysis import (
    SYNC_METHOD_NAMES,
    SYNC_PACKAGES,
    UNIVERSE_NAMES,
    find_enclosing_function,
    ident_names,
    mentions_concurrency,
    names_on_lines,
    node_line_span,
    stmt_is_concurrency,
)
from repro.golang.parser import parse_file
from repro.golang.printer import print_node

#: Identifier names never renamed: Go universe names, concurrency packages and
#: methods, and the handful of stdlib packages whose identity carries signal.
_PRESERVED_NAMES: Set[str] = (
    set(UNIVERSE_NAMES)
    | SYNC_PACKAGES
    | SYNC_METHOD_NAMES
    | {
        "sync", "atomic", "chan", "select", "go",
        "Go", "Wait", "Add", "Done", "Lock", "Unlock", "RLock", "RUnlock",
        "Parallel", "Run",
        "context", "Context", "testing", "T",
        "WaitGroup", "Mutex", "RWMutex", "Map", "Once",
    }
)


@dataclass
class SkeletonResult:
    """The outcome of skeletonizing one code item."""

    text: str
    racy_variables: List[str] = field(default_factory=list)
    kept_functions: List[str] = field(default_factory=list)
    rename_map: Dict[str, str] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


class Skeletonizer:
    """Produce concurrency skeletons of functions, files, and code snippets."""

    def __init__(self, preserve_names: Optional[Iterable[str]] = None):
        self.preserve_names = set(_PRESERVED_NAMES)
        if preserve_names:
            self.preserve_names.update(preserve_names)

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def skeletonize_file(
        self,
        file: ast.File,
        racy_lines: Sequence[int] = (),
        racy_variables: Sequence[str] = (),
    ) -> SkeletonResult:
        """Skeletonize the functions of ``file`` that contain the racy lines.

        When no function contains a racy line (or no lines are given), every
        function that mentions a concurrency construct is included, so that a
        whole-file query still produces a useful retrieval key.
        """
        racy_vars = set(racy_variables)
        target_decls: List[ast.FuncDecl] = []
        for line in racy_lines:
            enclosing = find_enclosing_function(file, line)
            if enclosing is not None and enclosing.decl not in target_decls:
                target_decls.append(enclosing.decl)
        if not racy_vars and racy_lines:
            for decl in target_decls:
                racy_vars.update(self.infer_racy_variables(decl, racy_lines))
        if not target_decls:
            for decl in file.func_decls():
                if decl.body is not None and mentions_concurrency(decl.body, receives=False):
                    target_decls.append(decl)
        if not target_decls:
            target_decls = [d for d in file.func_decls() if d.body is not None]
        return self._skeletonize_decls(target_decls, racy_vars)

    def skeletonize_function(
        self,
        decl: ast.FuncDecl,
        racy_lines: Sequence[int] = (),
        racy_variables: Sequence[str] = (),
    ) -> SkeletonResult:
        """Skeletonize a single function declaration."""
        racy_vars = set(racy_variables)
        if not racy_vars and racy_lines:
            racy_vars.update(self.infer_racy_variables(decl, racy_lines))
        return self._skeletonize_decls([decl], racy_vars)

    def skeletonize_source(
        self,
        source: str,
        racy_lines: Sequence[int] = (),
        racy_variables: Sequence[str] = (),
        filename: str = "<source>",
    ) -> SkeletonResult:
        """Parse ``source`` (a file or a bare function) and skeletonize it."""
        text = source
        if "package " not in source.split("\n", 3)[0] and "package" not in source[:200]:
            text = "package p\n\n" + source
        file = parse_file(text, filename)
        return self.skeletonize_file(file, racy_lines=racy_lines, racy_variables=racy_variables)

    # ------------------------------------------------------------------
    # Racy-variable inference
    # ------------------------------------------------------------------

    def infer_racy_variables(self, decl: ast.FuncDecl, racy_lines: Sequence[int]) -> Set[str]:
        """Infer the shared variables of interest from the racy source lines.

        A data race involves at least one write, so the primary signal is a
        variable *assigned* on a racy line that also *appears* on the other
        racy line(s).  Fallbacks widen the net when the intersection is empty
        (e.g. the two accesses live in different functions).
        """
        per_line_names: List[Set[str]] = []
        assigned: Set[str] = set()
        for line in racy_lines:
            names = {
                name
                for name in names_on_lines(decl, [line])
                if name not in self.preserve_names
            }
            per_line_names.append(names)
            assigned.update(self._assigned_on_line(decl, line))
        appearing_everywhere: Set[str] = set()
        if per_line_names:
            appearing_everywhere = set.intersection(*per_line_names) if len(per_line_names) > 1 \
                else set(per_line_names[0])
        candidates = assigned & appearing_everywhere
        if not candidates:
            candidates = assigned or appearing_everywhere
        if not candidates:
            candidates = set().union(*per_line_names) if per_line_names else set()
        return {name for name in candidates if name not in self.preserve_names}

    def _assigned_on_line(self, decl: ast.FuncDecl, line: int) -> Set[str]:
        assigned: Set[str] = set()
        if decl.body is None:
            return assigned
        for node in ast.walk(decl.body):
            if not isinstance(node, (ast.AssignStmt, ast.IncDecStmt)):
                continue
            low, high = node_line_span(node)
            if not (low <= line <= high):
                continue
            targets = node.lhs if isinstance(node, ast.AssignStmt) else [node.x]
            for target in targets:
                name = ast.base_name(target)
                if name and name not in self.preserve_names:
                    assigned.add(name)
        return assigned

    # ------------------------------------------------------------------
    # Implementation
    # ------------------------------------------------------------------

    def _skeletonize_decls(self, decls: Sequence[ast.FuncDecl],
                           racy_vars: Set[str]) -> SkeletonResult:
        renamer = _Renamer(racy_vars, self.preserve_names)
        pieces: List[str] = []
        kept_functions: List[str] = []
        for decl in decls:
            clone = ast.clone(decl)
            if clone.body is not None:
                self._prune_block(clone.body, racy_vars)
            renamer.rename_decl(clone)
            pieces.append(print_node(clone))
            kept_functions.append(decl.name)
        return SkeletonResult(
            text="\n\n".join(pieces) + ("\n" if pieces else ""),
            racy_variables=sorted(racy_vars),
            kept_functions=kept_functions,
            rename_map=dict(renamer.mapping),
        )

    # -- statement pruning ----------------------------------------------------------------

    def _prune_block(self, block: ast.BlockStmt, racy_vars: Set[str]) -> bool:
        """Prune ``block`` in place; return True if anything relevant remains."""
        kept: List[ast.Stmt] = []
        for stmt in block.stmts:
            if self._prune_stmt(stmt, racy_vars):
                kept.append(stmt)
        referenced = set()
        for stmt in kept:
            referenced.update(ident_names(stmt))
        # Second pass: keep declarations of variables referenced by kept statements.
        final: List[ast.Stmt] = []
        for stmt in block.stmts:
            if stmt in kept:
                final.append(stmt)
                continue
            declared = _declared_by(stmt)
            if declared and declared & referenced:
                final.append(stmt)
        block.stmts = final
        return bool(final)

    def _prune_stmt(self, stmt: ast.Stmt, racy_vars: Set[str]) -> bool:
        """Return True when ``stmt`` should be kept (pruning nested blocks in place)."""
        relevant = stmt_is_concurrency(stmt) or bool(ident_names(stmt) & racy_vars)
        if isinstance(stmt, ast.BlockStmt):
            inner = self._prune_block(stmt, racy_vars)
            return inner or relevant
        if isinstance(stmt, ast.IfStmt):
            cond_relevant = bool(ident_names(stmt.cond) & racy_vars) or (
                stmt.init is not None and bool(ident_names(stmt.init) & racy_vars)
            )
            body_kept = self._prune_block(stmt.body, racy_vars) if stmt.body else False
            else_kept = False
            if stmt.else_ is not None:
                else_kept = self._prune_stmt(stmt.else_, racy_vars)
                if not else_kept:
                    stmt.else_ = None
            if cond_relevant and not body_kept:
                # The condition touches a racy variable; keep the guard even if
                # the body was pruned (Listing 4 keeps `if racyVar1 != nil`).
                return True
            return body_kept or else_kept or cond_relevant or stmt_is_concurrency(stmt)
        if isinstance(stmt, (ast.ForStmt, ast.RangeStmt)):
            body_kept = self._prune_block(stmt.body, racy_vars) if stmt.body else False
            header_relevant = bool(ident_names(stmt) & racy_vars) or stmt_is_concurrency(stmt)
            return body_kept or header_relevant
        if isinstance(stmt, ast.SwitchStmt):
            any_kept = False
            for case in stmt.cases:
                case_kept = []
                for inner in case.body:
                    if self._prune_stmt(inner, racy_vars):
                        case_kept.append(inner)
                case.body = case_kept
                any_kept = any_kept or bool(case_kept)
            tag_relevant = stmt.tag is not None and bool(ident_names(stmt.tag) & racy_vars)
            return any_kept or tag_relevant
        if isinstance(stmt, ast.SelectStmt):
            return True  # select is inherently a concurrency construct
        if isinstance(stmt, (ast.GoStmt, ast.DeferStmt)):
            call = stmt.call
            if isinstance(call.fun, ast.FuncLit):
                self._prune_block(call.fun.body, racy_vars)
            return True
        if isinstance(stmt, ast.LabeledStmt):
            return self._prune_stmt(stmt.stmt, racy_vars)
        if isinstance(stmt, (ast.AssignStmt, ast.ExprStmt, ast.DeferStmt)):
            # Closures passed to calls (`group.Go(func(){...})`) or assigned to
            # variables get their bodies pruned in place; the statement itself
            # is kept when it is relevant or when its closure retained content.
            closure_kept = False
            for node in ast.walk(stmt):
                if isinstance(node, ast.FuncLit):
                    closure_kept = self._prune_block(node.body, racy_vars) or closure_kept
            return relevant or closure_kept
        if isinstance(stmt, ast.ReturnStmt):
            return bool(ident_names(stmt) & racy_vars)
        return relevant


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------


class _Renamer:
    """Consistent renaming of identifiers into racyVarN / vN / typeN / funcN."""

    def __init__(self, racy_vars: Set[str], preserve: Set[str]):
        self.racy_vars = set(racy_vars)
        self.preserve = preserve
        self.mapping: Dict[str, str] = {}
        self._counters = {"racyVar": 0, "v": 0, "type": 0, "func": 0}

    def _fresh(self, kind: str) -> str:
        self._counters[kind] += 1
        return f"{kind}{self._counters[kind]}"

    def rename(self, name: str, kind: str) -> str:
        if name in self.preserve or name.startswith("racyVar"):
            return name
        if name in self.racy_vars:
            kind = "racyVar"
        existing = self.mapping.get(name)
        if existing is not None:
            return existing
        fresh = self._fresh(kind)
        self.mapping[name] = fresh
        return fresh

    # -- traversal ------------------------------------------------------------------------

    def rename_decl(self, decl: ast.FuncDecl) -> None:
        decl.name = self.rename(decl.name, "func")
        if decl.recv is not None:
            self._rename_field(decl.recv)
        self._rename_func_type(decl.type_)
        if decl.body is not None:
            self._rename_stmt(decl.body)

    def _rename_field(self, field_node: ast.Field) -> None:
        field_node.names = [self.rename(n, "v") for n in field_node.names]
        if field_node.type_ is not None:
            self._rename_type(field_node.type_)

    def _rename_func_type(self, func_type: ast.FuncType) -> None:
        for param in func_type.params:
            self._rename_field(param)
        for result in func_type.results:
            self._rename_field(result)

    def _rename_type(self, type_expr: ast.Expr) -> None:
        if isinstance(type_expr, ast.Ident):
            type_expr.name = self.rename(type_expr.name, "type")
        elif isinstance(type_expr, ast.SelectorExpr):
            # Qualified types: preserve concurrency packages whole, otherwise
            # collapse `pkg.Type` into a single fresh type name.
            root = ast.base_name(type_expr)
            if root in self.preserve:
                return
            type_expr.sel = self.rename(type_expr.sel, "type")
            if isinstance(type_expr.x, ast.Ident):
                type_expr.x.name = self.rename(type_expr.x.name, "v")
        elif isinstance(type_expr, (ast.StarExpr, ast.ParenExpr)):
            self._rename_type(type_expr.x)
        elif isinstance(type_expr, ast.ArrayType):
            self._rename_type(type_expr.elt)
        elif isinstance(type_expr, ast.MapType):
            self._rename_type(type_expr.key)
            self._rename_type(type_expr.value)
        elif isinstance(type_expr, ast.ChanType):
            self._rename_type(type_expr.value)
        elif isinstance(type_expr, ast.FuncType):
            self._rename_func_type(type_expr)
        elif isinstance(type_expr, ast.StructType):
            for field_node in type_expr.fields:
                self._rename_field(field_node)
        elif isinstance(type_expr, ast.Ellipsis) and type_expr.elt is not None:
            self._rename_type(type_expr.elt)

    def _rename_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            for inner in stmt.stmts:
                self._rename_stmt(inner)
        elif isinstance(stmt, ast.DeclStmt):
            for spec in stmt.decl.specs:
                if isinstance(spec, ast.ValueSpec):
                    spec.names = [self.rename(n, "v") for n in spec.names]
                    if spec.type_ is not None:
                        self._rename_type(spec.type_)
                    for value in spec.values:
                        self._rename_expr(value)
                elif isinstance(spec, ast.TypeSpec):
                    spec.name = self.rename(spec.name, "type")
                    self._rename_type(spec.type_)
        elif isinstance(stmt, ast.AssignStmt):
            for expr in stmt.lhs + stmt.rhs:
                self._rename_expr(expr)
        elif isinstance(stmt, (ast.ExprStmt,)):
            self._rename_expr(stmt.x)
        elif isinstance(stmt, (ast.GoStmt, ast.DeferStmt)):
            self._rename_expr(stmt.call)
        elif isinstance(stmt, ast.SendStmt):
            self._rename_expr(stmt.chan)
            self._rename_expr(stmt.value)
        elif isinstance(stmt, ast.IncDecStmt):
            self._rename_expr(stmt.x)
        elif isinstance(stmt, ast.ReturnStmt):
            for expr in stmt.results:
                self._rename_expr(expr)
        elif isinstance(stmt, ast.IfStmt):
            if stmt.init is not None:
                self._rename_stmt(stmt.init)
            self._rename_expr(stmt.cond)
            self._rename_stmt(stmt.body)
            if stmt.else_ is not None:
                self._rename_stmt(stmt.else_)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._rename_stmt(stmt.init)
            if stmt.cond is not None:
                self._rename_expr(stmt.cond)
            if stmt.post is not None:
                self._rename_stmt(stmt.post)
            self._rename_stmt(stmt.body)
        elif isinstance(stmt, ast.RangeStmt):
            if stmt.key is not None:
                self._rename_expr(stmt.key)
            if stmt.value is not None:
                self._rename_expr(stmt.value)
            self._rename_expr(stmt.x)
            self._rename_stmt(stmt.body)
        elif isinstance(stmt, ast.SwitchStmt):
            if stmt.init is not None:
                self._rename_stmt(stmt.init)
            if stmt.tag is not None:
                self._rename_expr(stmt.tag)
            for case in stmt.cases:
                for expr in case.exprs:
                    self._rename_expr(expr)
                for inner in case.body:
                    self._rename_stmt(inner)
        elif isinstance(stmt, ast.SelectStmt):
            for case in stmt.cases:
                if case.comm is not None:
                    self._rename_stmt(case.comm)
                for inner in case.body:
                    self._rename_stmt(inner)
        elif isinstance(stmt, ast.LabeledStmt):
            self._rename_stmt(stmt.stmt)

    def _rename_expr(self, expr: ast.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.Ident):
            expr.name = self.rename(expr.name, "v")
        elif isinstance(expr, ast.SelectorExpr):
            self._rename_expr(expr.x)
            if expr.sel not in self.preserve:
                kind = "func"
                expr.sel = self.rename(expr.sel, kind)
        elif isinstance(expr, ast.CallExpr):
            # Rename the callee as a function, the arguments as values.
            if isinstance(expr.fun, ast.Ident):
                expr.fun.name = self.rename(expr.fun.name, "func")
            else:
                self._rename_expr(expr.fun)
            for arg in expr.args:
                self._rename_expr(arg)
        elif isinstance(expr, (ast.UnaryExpr, ast.StarExpr, ast.ParenExpr)):
            self._rename_expr(expr.x)
        elif isinstance(expr, ast.BinaryExpr):
            self._rename_expr(expr.x)
            self._rename_expr(expr.y)
        elif isinstance(expr, ast.IndexExpr):
            self._rename_expr(expr.x)
            self._rename_expr(expr.index)
        elif isinstance(expr, ast.SliceExpr):
            self._rename_expr(expr.x)
            self._rename_expr(expr.low)
            self._rename_expr(expr.high)
        elif isinstance(expr, ast.KeyValueExpr):
            self._rename_expr(expr.key)
            self._rename_expr(expr.value)
        elif isinstance(expr, ast.CompositeLit):
            if expr.type_ is not None:
                self._rename_type(expr.type_)
            for elt in expr.elts:
                self._rename_expr(elt)
        elif isinstance(expr, ast.FuncLit):
            self._rename_func_type(expr.type_)
            self._rename_stmt(expr.body)
        elif isinstance(expr, ast.TypeAssertExpr):
            self._rename_expr(expr.x)
            if expr.type_ is not None:
                self._rename_type(expr.type_)
        elif isinstance(expr, (ast.ArrayType, ast.MapType, ast.ChanType, ast.StructType,
                               ast.FuncType, ast.InterfaceType)):
            self._rename_type(expr)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _declared_by(stmt: ast.Stmt) -> Set[str]:
    declared: Set[str] = set()
    if isinstance(stmt, ast.AssignStmt) and stmt.tok == ":=":
        for expr in stmt.lhs:
            if isinstance(expr, ast.Ident):
                declared.add(expr.name)
    elif isinstance(stmt, ast.DeclStmt):
        for spec in stmt.decl.specs:
            if isinstance(spec, ast.ValueSpec):
                declared.update(spec.names)
    return declared


def skeletonize_source(source: str, racy_lines: Sequence[int] = (),
                       racy_variables: Sequence[str] = ()) -> str:
    """Module-level convenience wrapper returning the skeleton text."""
    return Skeletonizer().skeletonize_source(
        source, racy_lines=racy_lines, racy_variables=racy_variables
    ).text
