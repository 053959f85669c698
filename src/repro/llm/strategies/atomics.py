"""Lock-free and initialization repair patterns: ``sync/atomic`` counter
rewrites, ``sync.RWMutex`` read-path locking, and ``sync.Once`` lazy-init.

These three strategies ship as the proof of the fix-pattern registry's
extensibility: each is one ``@fix_pattern``-decorated class (plus a corpus
template), and detection ordering, example inference, prompt hints, CLI
introspection, and per-category evaluation follow from the registration.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.diagnosis import examples
from repro.diagnosis.categories import RaceCategory
from repro.diagnosis.registry import fix_pattern
from repro.golang import ast_nodes as ast
from repro.golang.analysis import (
    calls_method,
    is_field_selector,
    mentions_field,
    methods_of,
    package_level_var,
    receiver_name,
    sync_field,
    writes_selector,
)
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies.base import FixStrategy, ScopeCode, StrategyPlan


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=80,
    example_rank=10,
    description="Rewriting an unguarded counter to sync/atomic Add/Load operations",
    signature=examples.added_atomic_calls,
)
class AtomicCounterStrategy(FixStrategy):
    """Rewrite a plain counter field to ``sync/atomic``: increments become
    ``atomic.AddInt64(&recv.field, n)`` and bare reads become
    ``atomic.LoadInt64(&recv.field)`` in every method of the type."""

    name = "atomic_counter"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        if not target:
            return None
        spec = self.find_struct(scope, target)
        if spec is None or sync_field(spec, "Mutex", "RWMutex") is not None:
            return None
        # atomic.AddInt64/LoadInt64 take *int64: a counter of any other
        # declared type would produce a patch that real Go rejects.
        if not _field_is_int64(spec, target):
            return None
        methods = []
        incrementers = 0
        for decl in methods_of(scope.file, spec.name):
            receiver = receiver_name(decl)
            increments = _find_increments(decl.body, receiver, target)
            reads = _reads_field(decl.body, receiver, target)
            if increments:
                incrementers += 1
            if increments or reads:
                methods.append(decl.name)
        if not incrementers:
            return None
        return StrategyPlan(
            strategy=self.name,
            data={"type": spec.name, "field": target, "methods": methods},
        )

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        field_name = plan.data["field"]
        changed = False
        for decl in methods_of(clone.file, plan.data["type"]):
            if decl.name not in plan.data["methods"]:
                continue
            receiver = receiver_name(decl)
            if _rewrite_atomic_block(decl.body, receiver, field_name):
                changed = True
        if not changed:
            return None
        self.ensure_import(clone, "sync/atomic")
        return clone.render()


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=82,
    example_rank=20,
    description="Guarding bare read paths of an RWMutex-protected type with RLock/RUnlock",
    signature=examples.added_read_locking,
)
class RWMutexReadLockStrategy(FixStrategy):
    """The type already owns a ``sync.RWMutex`` and its write path locks, but
    read-only methods access the shared field bare: take the read lock
    (``RLock``/deferred ``RUnlock``) in every unguarded read-only method."""

    name = "rwmutex_read_lock"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        if not target:
            return None
        spec = self.find_struct(scope, target)
        if spec is None:
            return None
        rw_field = sync_field(spec, "RWMutex")
        if rw_field is None:
            return None
        readers: List[str] = []
        for decl in methods_of(scope.file, spec.name):
            receiver = receiver_name(decl)
            if not _reads_field(decl.body, receiver, target):
                continue
            if writes_selector(decl.body, receiver, target):
                continue
            if calls_method(decl.body, "Lock", "RLock"):
                continue
            readers.append(decl.name)
        if not readers:
            return None
        return StrategyPlan(
            strategy=self.name,
            data={"type": spec.name, "field": target, "mutex": rw_field, "methods": readers},
        )

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        mutex_field = plan.data["mutex"]
        changed = False
        for decl in methods_of(clone.file, plan.data["type"]):
            if decl.name not in plan.data["methods"]:
                continue
            receiver = receiver_name(decl)
            rlock = ast.ExprStmt(x=ast.call(f"{receiver}.{mutex_field}.RLock"))
            runlock = ast.DeferStmt(call=ast.call(f"{receiver}.{mutex_field}.RUnlock"))
            decl.body.stmts.insert(0, runlock)
            decl.body.stmts.insert(0, rlock)
            changed = True
        return clone.render() if changed else None


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=78,
    example_rank=30,
    description="Replacing a racy nil-checked lazy initialization with sync.Once",
    signature=examples.added_once_guard,
)
class OnceLazyInitStrategy(FixStrategy):
    """A package-level value is lazily initialized behind a bare nil check
    (``if x == nil { x = ... }``) reached from several goroutines: introduce a
    ``sync.Once`` and run the initialization under ``once.Do``."""

    name = "once_lazy_init"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        if scope.wrapped:
            return None  # The package-level declarations are not in scope.
        target = task.racy_variable
        for func in self.functions(scope):
            for stmt in ast.walk(func.body):
                if not isinstance(stmt, ast.IfStmt) or stmt.else_ is not None:
                    continue
                variable = _nil_checked_var(stmt.cond)
                if variable is None:
                    continue
                if target and variable != target:
                    continue
                if not package_level_var(scope.file, variable):
                    continue
                if not _assigns_var(stmt.body, variable):
                    continue
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "variable": variable},
                )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        variable = plan.data["variable"]
        once_name = variable + "Once"
        if not _declare_once_var(clone.file, variable, once_name):
            return None
        changed = False
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            changed = _wrap_in_once(func.body, variable, once_name)
        if not changed:
            return None
        self.ensure_import(clone, "sync")
        return clone.render()


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------


def _field_is_int64(spec: ast.TypeSpec, field_name: str) -> bool:
    if not isinstance(spec.type_, ast.StructType):
        return False
    for struct_field in spec.type_.fields:
        if field_name in struct_field.names:
            return isinstance(struct_field.type_, ast.Ident) \
                and struct_field.type_.name == "int64"
    return False


def _find_increments(body: ast.BlockStmt, receiver: str,
                     field_name: str) -> List[ast.Stmt]:
    """Increment/decrement statements of ``receiver.field`` under ``body``."""
    found: List[ast.Stmt] = []
    for node in ast.walk(body):
        if isinstance(node, ast.IncDecStmt) and is_field_selector(node.x, receiver, field_name):
            found.append(node)
        elif isinstance(node, ast.AssignStmt) and len(node.lhs) == 1 \
                and is_field_selector(node.lhs[0], receiver, field_name):
            if node.tok in ("+=", "-="):
                found.append(node)
            elif node.tok == "=" and _self_add_delta(node, receiver, field_name) is not None:
                found.append(node)
    return found


def _self_add_delta(stmt: ast.AssignStmt, receiver: str,
                    field_name: str) -> Optional[Tuple[ast.Expr, str]]:
    """For ``recv.f = recv.f + d`` (or ``d + recv.f`` / ``recv.f - d``),
    return ``(d, op)``; otherwise None."""
    if len(stmt.rhs) != 1 or not isinstance(stmt.rhs[0], ast.BinaryExpr):
        return None
    expr = stmt.rhs[0]
    if expr.op not in ("+", "-"):
        return None
    if is_field_selector(expr.x, receiver, field_name):
        return expr.y, expr.op
    if expr.op == "+" and is_field_selector(expr.y, receiver, field_name):
        return expr.x, expr.op
    return None


def _reads_field(body: ast.BlockStmt, receiver: str, field_name: str) -> bool:
    """Does ``body`` read ``receiver.field`` outside of increment statements?"""
    increments = set(map(id, _find_increments(body, receiver, field_name)))
    for node in ast.walk(body):
        if id(node) in increments:
            continue
        if isinstance(node, (ast.ReturnStmt, ast.IfStmt, ast.BinaryExpr, ast.CallExpr)) \
                and mentions_field(node, receiver, field_name):
            return True
    return False


def _atomic_add_call(receiver: str, field_name: str, delta: ast.Expr,
                     op: str) -> ast.ExprStmt:
    address = ast.UnaryExpr(op="&", x=ast.SelectorExpr(x=ast.ident(receiver), sel=field_name))
    if op == "-":
        delta = ast.UnaryExpr(op="-", x=delta)
    return ast.ExprStmt(x=ast.call("atomic.AddInt64", address, delta))


def _atomic_load_call(receiver: str, field_name: str) -> ast.CallExpr:
    address = ast.UnaryExpr(op="&", x=ast.SelectorExpr(x=ast.ident(receiver), sel=field_name))
    return ast.call("atomic.LoadInt64", address)


def _rewrite_atomic_block(block: ast.BlockStmt, receiver: str, field_name: str) -> bool:
    """Rewrite increments and reads of ``receiver.field`` under ``block``."""
    changed = False
    for container in ast.walk(block):
        if not isinstance(container, ast.BlockStmt):
            continue
        new_stmts: List[ast.Stmt] = []
        for stmt in container.stmts:
            replacement = _atomic_increment_for(stmt, receiver, field_name)
            if replacement is not None:
                new_stmts.append(replacement)
                changed = True
                continue
            if _rewrite_reads_in_stmt(stmt, receiver, field_name):
                changed = True
            new_stmts.append(stmt)
        container.stmts = new_stmts
    return changed


def _atomic_increment_for(stmt: ast.Stmt, receiver: str,
                          field_name: str) -> Optional[ast.Stmt]:
    if isinstance(stmt, ast.IncDecStmt) and is_field_selector(stmt.x, receiver, field_name):
        delta: ast.Expr = ast.int_lit(1)
        return _atomic_add_call(receiver, field_name, delta,
                                "-" if stmt.op == "--" else "+")
    if isinstance(stmt, ast.AssignStmt) and len(stmt.lhs) == 1 \
            and is_field_selector(stmt.lhs[0], receiver, field_name):
        if stmt.tok in ("+=", "-=") and len(stmt.rhs) == 1:
            return _atomic_add_call(receiver, field_name, stmt.rhs[0],
                                    "-" if stmt.tok == "-=" else "+")
        if stmt.tok == "=":
            delta_op = _self_add_delta(stmt, receiver, field_name)
            if delta_op is not None:
                delta, op = delta_op
                return _atomic_add_call(receiver, field_name, delta, op)
    return None


def _rewrite_reads_in_stmt(stmt: ast.Stmt, receiver: str, field_name: str) -> bool:
    """Replace value reads of the field inside ``stmt`` with atomic loads."""

    def replace(expr: ast.Expr) -> Tuple[ast.Expr, bool]:
        if is_field_selector(expr, receiver, field_name):
            return _atomic_load_call(receiver, field_name), True
        changed = False
        for attr in ("x", "y"):
            child = getattr(expr, attr, None)
            if isinstance(child, ast.Expr):
                new_child, child_changed = replace(child)
                if child_changed:
                    setattr(expr, attr, new_child)
                    changed = True
        if isinstance(expr, ast.CallExpr):
            for index, arg in enumerate(expr.args):
                new_arg, arg_changed = replace(arg)
                if arg_changed:
                    expr.args[index] = new_arg
                    changed = True
        return expr, changed

    changed = False
    if isinstance(stmt, ast.ReturnStmt):
        for index, result in enumerate(stmt.results):
            new_result, result_changed = replace(result)
            if result_changed:
                stmt.results[index] = new_result
                changed = True
    elif isinstance(stmt, ast.AssignStmt):
        for index, value in enumerate(stmt.rhs):
            new_value, value_changed = replace(value)
            if value_changed:
                stmt.rhs[index] = new_value
                changed = True
    elif isinstance(stmt, ast.IfStmt):
        new_cond, cond_changed = replace(stmt.cond)
        if cond_changed:
            stmt.cond = new_cond
            changed = True
    elif isinstance(stmt, ast.ExprStmt):
        new_expr, expr_changed = replace(stmt.x)
        if expr_changed:
            stmt.x = new_expr
            changed = True
    return changed


def _nil_checked_var(cond: ast.Expr) -> Optional[str]:
    if not isinstance(cond, ast.BinaryExpr) or cond.op != "==":
        return None
    left, right = cond.x, cond.y
    if isinstance(left, ast.Ident) and isinstance(right, ast.Ident):
        if right.name == "nil" and left.name != "nil":
            return left.name
        if left.name == "nil" and right.name != "nil":
            return right.name
    return None


def _assigns_var(body: ast.BlockStmt, variable: str) -> bool:
    for node in ast.walk(body):
        if isinstance(node, ast.AssignStmt) and node.tok != ":=":
            for target in node.lhs:
                if isinstance(target, ast.Ident) and target.name == variable:
                    return True
    return False


def _declare_once_var(file: ast.File, variable: str, once_name: str) -> bool:
    """Insert ``var <once_name> sync.Once`` after ``variable``'s declaration."""
    if package_level_var(file, once_name):
        return True  # Already declared (idempotent re-application).
    once_decl = ast.GenDecl(
        tok="var",
        specs=[ast.ValueSpec(names=[once_name], type_=ast.selector("sync.Once"))],
    )
    for index, decl in enumerate(file.decls):
        if isinstance(decl, ast.GenDecl) and decl.tok == "var":
            for spec in decl.specs:
                if isinstance(spec, ast.ValueSpec) and variable in spec.names:
                    file.decls.insert(index + 1, once_decl)
                    return True
    file.decls.insert(0, once_decl)
    return True


def _wrap_in_once(block: ast.BlockStmt, variable: str, once_name: str) -> bool:
    """Replace the ``if variable == nil { ... }`` guard with ``once.Do``."""
    for container in ast.walk(block):
        if not isinstance(container, ast.BlockStmt):
            continue
        for index, stmt in enumerate(container.stmts):
            if not isinstance(stmt, ast.IfStmt) or stmt.else_ is not None:
                continue
            if _nil_checked_var(stmt.cond) != variable or not _assigns_var(stmt.body, variable):
                continue
            closure = ast.FuncLit(type_=ast.FuncType(), body=stmt.body)
            do_call = ast.CallExpr(
                fun=ast.SelectorExpr(x=ast.ident(once_name), sel="Do"), args=[closure]
            )
            container.stmts[index] = ast.ExprStmt(x=do_call)
            return True
    return False
