"""Fix strategies for the PR-6 race families: double-checked locking,
channel-close completion signalling, bulk ``wg.Add`` accounting, and
``sync.Map`` value-level locking.

Each strategy mirrors one template in
``repro.corpus.templates.new_families`` and registers itself in the
fix-pattern registry, which makes it guided-capable for every frontier
model profile automatically.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.diagnosis import examples
from repro.diagnosis.categories import RaceCategory
from repro.diagnosis.registry import fix_pattern
from repro.golang import ast_nodes as ast
from repro.golang.analysis import (
    calls_method,
    go_closures,
    is_nil_check,
    receiver_name,
    sync_field,
    writes_selector,
)
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies.base import FixStrategy, ScopeCode, StrategyPlan, replace_stmt


def _is_true_literal(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Ident):
        return expr.name == "true"
    return isinstance(expr, ast.BasicLit) and expr.value == "true"


def _is_false_literal(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Ident):
        return expr.name == "false"
    return isinstance(expr, ast.BasicLit) and expr.value == "false"


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=84,
    example_rank=40,
    description="Hoisting a double-checked nil check under the lock that guards it",
    signature=examples.hoisted_nil_check_under_lock,
)
class DoubleCheckedLockingStrategy(FixStrategy):
    """Double-checked locking: drop the unsynchronized outer nil check and
    always take the slow path (lock, check, initialize, unlock)."""

    name = "double_checked_locking"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            found = self._find_outer_check(func)
            if found is not None:
                _, field_name = found
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "field": field_name},
                )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            found = self._find_outer_check(func)
            if found is None:
                continue
            outer, _ = found
            # The outer body is the complete locked slow path; executing it
            # unconditionally removes the unsynchronized check.
            if replace_stmt(func.body, outer, list(outer.body.stmts)):
                return clone.render()
        return None

    def _find_outer_check(
        self, func: ast.FuncDecl
    ) -> Optional[Tuple[ast.IfStmt, str]]:
        if func.recv is None or func.body is None:
            return None
        receiver = receiver_name(func)
        for node in ast.walk(func.body):
            if not isinstance(node, ast.IfStmt):
                continue
            cond = node.cond
            if not isinstance(cond, ast.BinaryExpr) or not isinstance(cond.x, ast.SelectorExpr):
                continue
            field_name = cond.x.sel
            if not is_nil_check(cond, receiver, field_name):
                continue
            if calls_method(node.body, "Lock") and calls_method(node.body, "Unlock") \
                    and writes_selector(node.body, receiver, field_name):
                return node, field_name
        return None


@fix_pattern(
    categories=(RaceCategory.CAPTURE_BY_REFERENCE,),
    specificity=83,
    example_rank=50,
    description="Replacing a shared completion flag with a close()-signalled channel",
    signature=examples.closed_channel_signal,
)
class ChannelCloseSignalStrategy(FixStrategy):
    """A producer goroutine sets a captured boolean flag that the parent polls
    bare; the fix turns the flag into a channel closed on completion and reads
    it through a non-blocking ``select``."""

    name = "channel_close_signal"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            shape = self._find_shape(func, task.racy_variable)
            if shape is not None:
                flag, reader = shape
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "flag": flag, "reader": reader},
                )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        flag = plan.data["flag"]
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            parts = self._collect_parts(func, flag)
            if parts is None:
                continue
            decl, setter, closure, reader = parts
            # 1. ``flag := false``  →  ``flag := make(chan bool)``
            decl.rhs = [ast.call("make", ast.ChanType(value=ast.ident("bool")))]
            # 2. ``flag = true`` inside the goroutine  →  ``close(flag)``
            close_stmt = ast.ExprStmt(x=ast.call("close", ast.ident(flag)))
            if not replace_stmt(closure.body, setter, [close_stmt]):
                return None
            # 3. ``x := flag``  →  ``x := false`` + non-blocking select.
            reader_name = plan.data["reader"]
            init = ast.AssignStmt(
                lhs=[ast.ident(reader_name)], tok=":=", rhs=[ast.ident("false")]
            )
            recv = ast.ExprStmt(x=ast.UnaryExpr(op="<-", x=ast.ident(flag)))
            mark = ast.AssignStmt(
                lhs=[ast.ident(reader_name)], tok="=", rhs=[ast.ident("true")]
            )
            select = ast.SelectStmt(cases=[
                ast.CommClause(comm=recv, body=[mark]),
                ast.CommClause(comm=None, body=[]),
            ])
            if not replace_stmt(func.body, reader, [init, select]):
                return None
            return clone.render()
        return None

    def _find_shape(self, func: ast.FuncDecl, target: str) -> Optional[Tuple[str, str]]:
        if func.body is None:
            return None
        for _, closure in go_closures(func.body):
            for stmt in closure.body.stmts:
                if not (isinstance(stmt, ast.AssignStmt) and stmt.tok == "="
                        and len(stmt.lhs) == 1 and isinstance(stmt.lhs[0], ast.Ident)
                        and len(stmt.rhs) == 1 and _is_true_literal(stmt.rhs[0])):
                    continue
                flag = stmt.lhs[0].name
                if target and flag != target:
                    continue
                parts = self._collect_parts(func, flag)
                if parts is not None:
                    reader = parts[3]
                    return flag, reader.lhs[0].name
        return None

    def _collect_parts(self, func: ast.FuncDecl, flag: str):
        """(flag declaration, in-closure setter, that closure, bare reader)."""
        decl = setter = closure_found = reader = None
        closures = go_closures(func.body)
        closure_nodes = [c for _, c in closures]
        for _, closure in closures:
            for stmt in closure.body.stmts:
                if isinstance(stmt, ast.AssignStmt) and stmt.tok == "=" \
                        and len(stmt.lhs) == 1 and isinstance(stmt.lhs[0], ast.Ident) \
                        and stmt.lhs[0].name == flag \
                        and len(stmt.rhs) == 1 and _is_true_literal(stmt.rhs[0]):
                    setter, closure_found = stmt, closure
        in_closures = set()
        for closure in closure_nodes:
            for node in ast.walk(closure):
                in_closures.add(id(node))
        for node in ast.walk(func.body):
            if id(node) in in_closures or not isinstance(node, ast.AssignStmt):
                continue
            if node.tok == ":=" and len(node.lhs) == 1 and len(node.rhs) == 1:
                if isinstance(node.lhs[0], ast.Ident) and node.lhs[0].name == flag \
                        and _is_false_literal(node.rhs[0]):
                    decl = node
                elif isinstance(node.rhs[0], ast.Ident) and node.rhs[0].name == flag \
                        and isinstance(node.lhs[0], ast.Ident):
                    reader = node
        if decl is None or setter is None or reader is None:
            return None
        return decl, setter, closure_found, reader


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=112,
    example_rank=35,
    description="Accounting for the whole goroutine batch with one wg.Add(n) before the loop",
    signature=examples.added_bulk_wg_add,
)
class BulkWaitGroupAddStrategy(FixStrategy):
    """``wg.Add(1)`` inside each spawned goroutine of a counted loop; the fix
    hoists the accounting to a single ``wg.Add(n)`` before the loop."""

    name = "bulk_wg_add"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            found = self._find_loop(func)
            if found is not None:
                _, _, _, wg_name, bound = found
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "wg": wg_name, "bound": bound},
                )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            found = self._find_loop(func)
            if found is None:
                continue
            loop, closure, add_stmt, wg_name, bound = found
            closure.body.stmts = [s for s in closure.body.stmts if s is not add_stmt]
            bulk = ast.ExprStmt(x=ast.call(f"{wg_name}.Add", ast.ident(bound)))
            if replace_stmt(func.body, loop, [bulk, loop]):
                return clone.render()
        return None

    def _find_loop(self, func: ast.FuncDecl):
        if func.body is None:
            return None
        for node in ast.walk(func.body):
            if not isinstance(node, ast.ForStmt):
                continue
            bound = self._counted_bound(node)
            if bound is None:
                continue
            for _, closure in go_closures(node.body):
                for stmt in closure.body.stmts:
                    if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.x, ast.CallExpr):
                        fun = stmt.x.fun
                        if isinstance(fun, ast.SelectorExpr) and fun.sel == "Add" \
                                and isinstance(fun.x, ast.Ident) \
                                and len(stmt.x.args) == 1 \
                                and isinstance(stmt.x.args[0], ast.BasicLit) \
                                and stmt.x.args[0].value == "1":
                            return node, closure, stmt, fun.x.name, bound
        return None

    @staticmethod
    def _counted_bound(loop: ast.ForStmt) -> Optional[str]:
        """``for i := 0; i < n; i++`` — returns ``n`` (the bound must equal
        the iteration count, so the init has to start at zero)."""
        init, cond = loop.init, loop.cond
        if not (isinstance(init, ast.AssignStmt) and init.tok == ":="
                and len(init.rhs) == 1 and isinstance(init.rhs[0], ast.BasicLit)
                and init.rhs[0].value == "0"):
            return None
        if isinstance(cond, ast.BinaryExpr) and cond.op == "<" \
                and isinstance(cond.y, ast.Ident):
            return cond.y.name
        return None


@fix_pattern(
    categories=(RaceCategory.CONCURRENT_MAP_ACCESS,),
    specificity=92,
    example_rank=45,
    description="Guarding mutations of values held in a sync.Map with a value-level mutex",
    signature=examples.locked_syncmap_value,
)
class SyncMapValueLockStrategy(FixStrategy):
    """``sync.Map`` misuse: the map operations are safe but the mutable entry
    they return is not; the fix adds a mutex to the entry type and locks it
    around the mutation."""

    name = "syncmap_value_lock"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            found = self._find_entry(func)
            if found is None:
                continue
            _, var, type_name = found
            spec = self._struct_named(scope, type_name)
            if spec is None or sync_field(spec, "Mutex", "RWMutex") is not None:
                continue
            return StrategyPlan(
                strategy=self.name,
                data={"function": func.name, "var": var, "type": type_name},
            )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        spec = self._struct_named(clone, plan.data["type"])
        if spec is None:
            return None
        spec.type_.fields.insert(
            0, ast.Field(names=["mu"], type_=ast.selector("sync.Mutex"))
        )
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            found = self._find_entry(func)
            if found is None:
                continue
            decl, var, _ = found
            lock, unlock = self.make_lock_pair(var, "mu")
            deferred = ast.DeferStmt(call=unlock.x)
            if replace_stmt(func.body, decl, [decl, lock, deferred]):
                self.ensure_import(clone, "sync")
                return clone.render()
        return None

    def _find_entry(self, func: ast.FuncDecl):
        """The ``entry := value.(*T)`` declaration whose value flows out of a
        ``Load``/``LoadOrStore`` call and whose fields the function writes."""
        if func.body is None:
            return None
        loaded: set = set()
        for node in ast.walk(func.body):
            if not (isinstance(node, ast.AssignStmt) and node.tok == ":="):
                continue
            if any(calls_method(value, "Load", "LoadOrStore") for value in node.rhs):
                for target in node.lhs:
                    if isinstance(target, ast.Ident) and target.name != "_":
                        loaded.add(target.name)
                continue
            if len(node.rhs) == 1 and isinstance(node.rhs[0], ast.TypeAssertExpr) \
                    and len(node.lhs) == 1 and isinstance(node.lhs[0], ast.Ident):
                assertion = node.rhs[0]
                if isinstance(assertion.x, ast.Ident) and assertion.x.name in loaded \
                        and isinstance(assertion.type_, ast.StarExpr) \
                        and isinstance(assertion.type_.x, ast.Ident):
                    var = node.lhs[0].name
                    if writes_selector(func.body, var):
                        return node, var, assertion.type_.x.name
        return None

    @staticmethod
    def _struct_named(scope: ScopeCode, type_name: str) -> Optional[ast.TypeSpec]:
        for spec in scope.file.type_decls():
            if spec.name == type_name and isinstance(spec.type_, ast.StructType):
                return spec
        return None
