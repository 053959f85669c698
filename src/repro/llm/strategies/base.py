"""Strategy framework and the AST helpers only strategies use.

A *fix strategy* is one concurrency-repair recipe (privatize the shared value,
move ``wg.Add``, convert a map to ``sync.Map``, ...).  Each strategy knows how
to *detect* whether it applies to a :class:`~repro.llm.prompt_parser.FixTask`
and how to *apply* itself as a genuine AST transformation that returns the
entire revised code — the response format Dr.Fix's prompt demands.  The
Go-AST queries strategies share with the diagnoser and the skeletonizer live
in :mod:`repro.golang.analysis`.
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


def replace_stmt(root: ast.Node, target: ast.Stmt, replacement: List[ast.Stmt]) -> bool:
    """Splice ``replacement`` in place of ``target`` in whichever block (or
    select/switch clause body) under ``root`` holds it."""
    for container in ast.walk(root):
        stmts = None
        if isinstance(container, ast.BlockStmt):
            stmts = container.stmts
        elif isinstance(container, (ast.CaseClause, ast.CommClause)):
            stmts = container.body
        if stmts is not None and target in stmts:
            index = stmts.index(target)
            stmts[index:index + 1] = replacement
            return True
    return False


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
    def references_name(node: ast.Node, name: str) -> bool:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Ident) and inner.name == name:
                return True
            if isinstance(inner, ast.SelectorExpr) and inner.sel == name:
                return True
        return False

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
