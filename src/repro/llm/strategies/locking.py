"""Lock-introducing strategies: adding a mutex to a type or a function, and
completing partial locking disciplines (Table 4 items 5 and 6)."""

from __future__ import annotations

from typing import List, Optional

from repro.diagnosis import examples
from repro.diagnosis.categories import RaceCategory
from repro.diagnosis.registry import fix_pattern
from repro.golang import ast_nodes as ast
from repro.golang.analysis import (
    calls_method,
    declared_names,
    go_closures,
    is_field_selector,
    mentions_field,
    methods_of,
    receiver_name,
    sync_field,
)
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies.base import FixStrategy, ScopeCode, StrategyPlan


@fix_pattern(
    categories=(
        RaceCategory.MISSING_SYNCHRONIZATION,
        RaceCategory.CONCURRENT_MAP_ACCESS,
        RaceCategory.CONCURRENT_SLICE_ACCESS,
    ),
    specificity=50,
    example_rank=140,
    description="Introducing a new mutex into a larger aggregate type and guarding all usage points",
    signature=examples.added_mutex_decl,
)
class MutexGuardStrategy(FixStrategy):
    """Introduce a mutex and guard every access to the shared datum.

    Two shapes are supported:

    * **struct field** — the racy variable is a field of a struct declared in
      scope: add a ``mu sync.Mutex`` field and lock/unlock in every method that
      touches the field (requires the type declaration, i.e. file scope);
    * **local variable** — the racy variable is local to a function whose
      goroutines access it: declare a local ``sync.Mutex`` and guard the
      accesses inside the goroutine closures.
    """

    name = "mutex_guard"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        if target:
            spec = self.find_struct(scope, target)
            if spec is not None and sync_field(spec, "Mutex", "RWMutex") is None:
                methods = [
                    decl.name
                    for decl in methods_of(scope.file, spec.name)
                    if self._method_touches_field(decl, target)
                ]
                if methods:
                    return StrategyPlan(
                        strategy=self.name,
                        data={"shape": "field", "type": spec.name, "field": target,
                              "methods": methods},
                    )
        local = self._find_local_candidate(scope, target)
        if local is not None:
            return local
        return None

    # -- detection helpers ---------------------------------------------------------------

    def _method_touches_field(self, decl: ast.FuncDecl, field_name: str) -> bool:
        receiver = receiver_name(decl)
        if not receiver or decl.body is None:
            return False
        return mentions_field(decl.body, receiver, field_name)

    def _find_local_candidate(self, scope: ScopeCode, target: str) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            closures = go_closures(func.body)
            if not closures:
                continue
            declared = declared_names(func)
            names: List[str] = []
            if target and target in declared:
                names.append(target)
            for _, closure in closures:
                for node in ast.walk(closure.body):
                    if isinstance(node, (ast.AssignStmt, ast.IncDecStmt)):
                        targets = node.lhs if isinstance(node, ast.AssignStmt) else [node.x]
                        for expr in targets:
                            base = ast.base_name(expr)
                            if base and base in declared and base not in names:
                                # Only guard container/variable writes, not
                                # writes the closure owns outright.
                                if isinstance(expr, (ast.IndexExpr, ast.Ident)):
                                    names.append(base)
            if names:
                return StrategyPlan(
                    strategy=self.name,
                    data={"shape": "local", "function": func.name, "variable": names[0]},
                )
        return None

    # -- application ----------------------------------------------------------------------

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        if plan.data.get("shape") == "field":
            return self._apply_field(scope, plan)
        return self._apply_local(scope, plan)

    def _apply_field(self, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        type_name = plan.data["type"]
        field_name = plan.data["field"]
        spec = None
        for candidate in clone.file.type_decls():
            if candidate.name == type_name:
                spec = candidate
                break
        if spec is None or not isinstance(spec.type_, ast.StructType):
            return None
        mutex_name = "mu"
        existing = {name for f in spec.type_.fields for name in f.names}
        while mutex_name in existing:
            mutex_name = "_" + mutex_name
        spec.type_.fields.insert(
            0, ast.Field(names=[mutex_name], type_=ast.selector("sync.Mutex"))
        )
        for decl in methods_of(clone.file, type_name):
            if not self._method_touches_field(decl, field_name):
                continue
            receiver = receiver_name(decl)
            lock, _ = self.make_lock_pair(receiver, mutex_name)
            unlock_defer = ast.DeferStmt(call=ast.call(f"{receiver}.{mutex_name}.Unlock"))
            decl.body.stmts.insert(0, unlock_defer)
            decl.body.stmts.insert(0, lock)
        self.ensure_import(clone, "sync")
        return clone.render()

    def _apply_local(self, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        variable = plan.data["variable"]
        mutex_name = "mu"
        changed = False
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            if mutex_name in declared_names(func):
                mutex_name = variable + "Mu"
            declared = self._insert_mutex_decl(func, variable, mutex_name)
            if not declared:
                continue
            for _, closure in go_closures(func.body):
                new_stmts: List[ast.Stmt] = []
                for stmt in closure.body.stmts:
                    if isinstance(stmt, ast.DeferStmt) or not self.references_name(stmt, variable) \
                            or calls_method(stmt, "Lock"):
                        new_stmts.append(stmt)
                        continue
                    lock = ast.ExprStmt(x=ast.call(f"{mutex_name}.Lock"))
                    unlock = ast.ExprStmt(x=ast.call(f"{mutex_name}.Unlock"))
                    new_stmts.extend([lock, stmt, unlock])
                    changed = True
                closure.body.stmts = new_stmts
        self.ensure_import(clone, "sync")
        return clone.render() if changed else None

    def _insert_mutex_decl(self, func: ast.FuncDecl, after_variable: str,
                           mutex_name: str) -> bool:
        decl_stmt = ast.DeclStmt(
            decl=ast.GenDecl(
                tok="var",
                specs=[ast.ValueSpec(names=[mutex_name], type_=ast.selector("sync.Mutex"))],
            )
        )
        for index, stmt in enumerate(func.body.stmts):
            declares = False
            if isinstance(stmt, ast.AssignStmt) and stmt.tok == ":=":
                declares = any(
                    isinstance(t, ast.Ident) and t.name == after_variable for t in stmt.lhs
                )
            elif isinstance(stmt, ast.DeclStmt):
                declares = any(
                    isinstance(spec, ast.ValueSpec) and after_variable in spec.names
                    for spec in stmt.decl.specs
                )
            if declares:
                func.body.stmts.insert(index + 1, decl_stmt)
                return True
        func.body.stmts.insert(0, decl_stmt)
        return True


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=75,
    example_rank=150,
    description="Managing locks consistently across multiple code regions",
    signature=examples.added_lock_calls,
)
class CompleteLockingStrategy(FixStrategy):
    """Listings 30-32: the type already has a mutex, but some accesses to the
    shared field bypass it; hoist the unguarded reads under the lock."""

    name = "complete_locking"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        if not target:
            return None
        spec = self.find_struct(scope, target)
        if spec is None:
            return None
        mutex_field = sync_field(spec, "Mutex", "RWMutex")
        if mutex_field is None:
            return None
        unguarded = []
        for decl in methods_of(scope.file, spec.name):
            if self._touches_unguarded(decl, target, mutex_field):
                unguarded.append(decl.name)
        if not unguarded:
            return None
        return StrategyPlan(
            strategy=self.name,
            data={"type": spec.name, "field": target, "mutex": mutex_field,
                  "methods": unguarded},
        )

    def _touches_unguarded(self, decl: ast.FuncDecl, field_name: str, mutex_field: str) -> bool:
        receiver = receiver_name(decl)
        if not receiver or decl.body is None:
            return False
        return bool(self._unguarded_statements(decl, field_name, mutex_field))

    def _unguarded_statements(self, decl: ast.FuncDecl, field_name: str,
                              mutex_field: str) -> List[ast.Stmt]:
        """Top-level statements of ``decl`` that touch the field while the
        method's mutex is not held (tracked linearly through Lock/Unlock calls)."""
        receiver = receiver_name(decl)
        unguarded: List[ast.Stmt] = []
        lock_held = False
        for stmt in decl.body.stmts:
            if self._is_lock_call(stmt, receiver, mutex_field, "Lock"):
                lock_held = True
                continue
            if self._is_lock_call(stmt, receiver, mutex_field, "Unlock"):
                lock_held = False
                continue
            if isinstance(stmt, ast.DeferStmt) and calls_method(stmt, "Unlock"):
                continue
            if lock_held or not mentions_field(stmt, receiver, field_name):
                continue
            if isinstance(stmt, ast.IfStmt):
                cond_touch = any(
                    isinstance(node, ast.SelectorExpr) and node.sel == field_name
                    for node in ast.walk(stmt.cond)
                )
                if cond_touch:
                    unguarded.append(stmt)
                continue
            if calls_method(stmt, "Lock"):
                continue
            unguarded.append(stmt)
        return unguarded

    @staticmethod
    def _is_lock_call(stmt: ast.Stmt, receiver: str, mutex_field: str, method: str) -> bool:
        if not isinstance(stmt, ast.ExprStmt) or not isinstance(stmt.x, ast.CallExpr):
            return False
        fun = stmt.x.fun
        return isinstance(fun, ast.SelectorExpr) and fun.sel == method \
            and is_field_selector(fun.x, receiver, mutex_field)

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        field_name = plan.data["field"]
        mutex_field = plan.data["mutex"]
        changed = False
        for decl in methods_of(clone.file, plan.data["type"]):
            if decl.name not in plan.data["methods"]:
                continue
            receiver = receiver_name(decl)
            targets = set(map(id, self._unguarded_statements(decl, field_name, mutex_field)))
            new_stmts: List[ast.Stmt] = []
            for stmt in decl.body.stmts:
                if id(stmt) not in targets:
                    new_stmts.append(stmt)
                    continue
                if isinstance(stmt, ast.IfStmt) and mentions_field(stmt.cond, receiver, field_name):
                    local_name = field_name + "Snapshot"
                    lock, unlock = self.make_lock_pair(receiver, mutex_field)
                    snapshot = ast.AssignStmt(
                        lhs=[ast.ident(local_name)],
                        tok=":=",
                        rhs=[ast.SelectorExpr(x=ast.ident(receiver), sel=field_name)],
                    )
                    self._replace_cond_field(stmt, receiver, field_name, local_name)
                    new_stmts.extend([lock, snapshot, unlock, stmt])
                    changed = True
                    continue
                lock, unlock = self.make_lock_pair(receiver, mutex_field)
                new_stmts.extend([lock, stmt, unlock])
                changed = True
            decl.body.stmts = new_stmts
        return clone.render() if changed else None

    def _replace_cond_field(self, stmt: ast.IfStmt, receiver: str, field_name: str,
                            local_name: str) -> None:
        cond = stmt.cond
        if isinstance(cond, ast.SelectorExpr):
            if is_field_selector(cond, receiver, field_name):
                stmt.cond = ast.ident(local_name)
            return
        for node in ast.walk(cond):
            for attr in ("x", "y"):
                if is_field_selector(getattr(node, attr, None), receiver, field_name):
                    setattr(node, attr, ast.ident(local_name))
