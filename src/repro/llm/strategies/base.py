"""Strategy framework and shared AST helpers.

A *fix strategy* is one concurrency-repair recipe (privatize the shared value,
move ``wg.Add``, convert a map to ``sync.Map``, ...).  Each strategy knows how
to *detect* whether it applies to a :class:`~repro.llm.prompt_parser.FixTask`
and how to *apply* itself as a genuine AST transformation that returns the
entire revised code — the response format Dr.Fix's prompt demands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from repro.golang.printer import print_file
from repro.llm.prompt_parser import FixTask

_WRAPPER_PACKAGE = "drfixscope"


@dataclass
class ScopeCode:
    """Parsed representation of the code handed to the model."""

    file: ast.File
    wrapped: bool

    def render(self) -> str:
        text = print_file(self.file)
        if not self.wrapped:
            return text
        lines = text.splitlines()
        # Drop the synthetic "package drfixscope" line (and the blank after it).
        while lines and (lines[0].startswith("package ") or lines[0] == ""):
            lines.pop(0)
        return "\n".join(lines) + "\n"


def parse_scope(code: str) -> Optional[ScopeCode]:
    """Parse a function- or file-scoped code item; returns None on syntax errors."""
    stripped = code.lstrip()
    wrapped = not stripped.startswith("package ")
    source = code if not wrapped else f"package {_WRAPPER_PACKAGE}\n\n" + code
    try:
        file = parse_file(source, "<scope>")
    except Exception:  # noqa: BLE001 - the model simply fails to parse odd scopes
        return None
    return ScopeCode(file=file, wrapped=wrapped)


@dataclass
class StrategyPlan:
    """What a strategy decided to do (opaque payload interpreted by apply)."""

    strategy: str
    confidence: float = 1.0
    data: Dict[str, Any] = field(default_factory=dict)


class FixStrategy:
    """Base class for fix strategies."""

    #: Unique strategy name (referenced by model profiles and ground truth).
    name: str = "abstract"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        raise NotImplementedError

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------

    @staticmethod
    def clone_scope(scope: ScopeCode) -> ScopeCode:
        return ScopeCode(file=ast.clone(scope.file), wrapped=scope.wrapped)

    @staticmethod
    def functions(scope: ScopeCode) -> List[ast.FuncDecl]:
        return [d for d in scope.file.func_decls() if d.body is not None]

    @staticmethod
    def expr_names(node: ast.Node) -> set[str]:
        return {n.name for n in ast.walk(node) if isinstance(n, ast.Ident)}

    @staticmethod
    def references_name(node: ast.Node, name: str) -> bool:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Ident) and inner.name == name:
                return True
            if isinstance(inner, ast.SelectorExpr) and inner.sel == name:
                return True
        return False

    @staticmethod
    def go_closures(func: ast.FuncDecl) -> List[Tuple[ast.GoStmt, ast.FuncLit]]:
        """(go statement, closure) pairs inside ``func``."""
        result = []
        if func.body is None:
            return result
        for node in ast.walk(func.body):
            if isinstance(node, ast.GoStmt) and isinstance(node.call.fun, ast.FuncLit):
                result.append((node, node.call.fun))
        return result

    @staticmethod
    def closure_assigns(closure: ast.FuncLit, name: str) -> List[ast.AssignStmt]:
        """Assignments (with ``=``) to ``name`` or ``name.field`` inside the closure."""
        matches = []
        for node in ast.walk(closure.body):
            if isinstance(node, ast.AssignStmt) and node.tok != ":=":
                for target in node.lhs:
                    if ast.base_name(target) == name:
                        matches.append(node)
                        break
        return matches

    @staticmethod
    def declared_in_function(func: ast.FuncDecl, name: str) -> bool:
        if func.body is None:
            return False
        for node in ast.walk(func.body):
            if isinstance(node, ast.AssignStmt) and node.tok == ":=":
                for target in node.lhs:
                    if isinstance(target, ast.Ident) and target.name == name:
                        return True
            if isinstance(node, ast.DeclStmt):
                for spec in node.decl.specs:
                    if isinstance(spec, ast.ValueSpec) and name in spec.names:
                        return True
        for param in func.type_.params:
            if name in param.names:
                return True
        return False

    @staticmethod
    def rename_in_node(node: ast.Node, old: str, new: str) -> int:
        """Rename identifier ``old`` to ``new`` everywhere under ``node``."""
        count = 0
        for inner in ast.walk(node):
            if isinstance(inner, ast.Ident) and inner.name == old:
                inner.name = new
                count += 1
        return count

    @staticmethod
    def find_struct(scope: ScopeCode, field_name: str) -> Optional[ast.TypeSpec]:
        """The struct type spec declaring a field named ``field_name``."""
        for spec in scope.file.type_decls():
            if isinstance(spec.type_, ast.StructType):
                for struct_field in spec.type_.fields:
                    if field_name in struct_field.names:
                        return spec
        return None

    @staticmethod
    def methods_of(scope: ScopeCode, type_name: str) -> List[ast.FuncDecl]:
        result = []
        for decl in scope.file.func_decls():
            if decl.recv is None or decl.body is None:
                continue
            recv_type = decl.recv.type_
            if isinstance(recv_type, ast.StarExpr):
                recv_type = recv_type.x
            if isinstance(recv_type, ast.Ident) and recv_type.name == type_name:
                result.append(decl)
        return result

    @staticmethod
    def receiver_name(decl: ast.FuncDecl) -> str:
        if decl.recv is not None and decl.recv.names:
            return decl.recv.names[0]
        return ""

    @staticmethod
    def has_mutex_field(spec: ast.TypeSpec) -> Optional[str]:
        """Name of a ``sync.Mutex``/``sync.RWMutex`` field, if any."""
        if not isinstance(spec.type_, ast.StructType):
            return None
        for struct_field in spec.type_.fields:
            type_expr = struct_field.type_
            if isinstance(type_expr, ast.SelectorExpr) and isinstance(type_expr.x, ast.Ident) \
                    and type_expr.x.name == "sync" and type_expr.sel in ("Mutex", "RWMutex"):
                if struct_field.names:
                    return struct_field.names[0]
        return None

    @staticmethod
    def make_lock_pair(receiver: str, mutex_field: str) -> Tuple[ast.ExprStmt, ast.ExprStmt]:
        lock = ast.ExprStmt(x=ast.call(f"{receiver}.{mutex_field}.Lock"))
        unlock = ast.ExprStmt(x=ast.call(f"{receiver}.{mutex_field}.Unlock"))
        return lock, unlock

    @staticmethod
    def ensure_import(scope: ScopeCode, path: str) -> None:
        if scope.wrapped:
            return  # Function-scoped code has no import block to extend.
        for spec in scope.file.imports:
            if spec.path == path:
                return
        scope.file.imports.append(ast.ImportSpec(path=path))

    @staticmethod
    def stmt_contains_call(stmt: ast.Stmt, method: str) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, ast.CallExpr) and isinstance(node.fun, ast.SelectorExpr) \
                    and node.fun.sel == method:
                return True
        return False
