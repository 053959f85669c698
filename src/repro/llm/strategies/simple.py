"""Single-function fix strategies: redeclaration, privatization, loop-variable
copies, ``wg.Add`` placement, and per-request ``rand.Source`` creation."""

from __future__ import annotations

from typing import List, Optional

from repro.diagnosis import examples
from repro.diagnosis.categories import RaceCategory
from repro.diagnosis.registry import fix_pattern
from repro.golang import ast_nodes as ast
from repro.golang.analysis import declared_names, go_closures
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies.base import FixStrategy, ScopeCode, StrategyPlan, replace_stmt


@fix_pattern(
    categories=(RaceCategory.CAPTURE_BY_REFERENCE,),
    specificity=60,
    example_rank=200,
    description="Re-declaring captured variables inside the goroutine",
    signature=examples.assignment_became_declaration,
)
class RedeclareStrategy(FixStrategy):
    """Listing 1 → Listing 2: re-declare the captured variable inside the goroutine.

    Applies when a goroutine closure assigns (with ``=``) to a variable captured
    from the enclosing function and the closure does not need the enclosing
    value: making the assignment a fresh ``:=`` declaration removes the sharing.
    """

    name = "redeclare"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        for func in self.functions(scope):
            for _, closure in go_closures(func.body):
                candidates = self._candidate_vars(func, closure, target)
                for name in candidates:
                    assigns = self.closure_assigns(closure, name)
                    simple = [a for a in assigns if all(isinstance(t, ast.Ident) for t in a.lhs)]
                    if simple and not self._read_before_assign(closure, name, simple[0]):
                        return StrategyPlan(
                            strategy=self.name,
                            data={"function": func.name, "variable": name},
                        )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        name = plan.data["variable"]
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            for _, closure in go_closures(func.body):
                assigns = self.closure_assigns(closure, name)
                simple = [a for a in assigns if all(isinstance(t, ast.Ident) for t in a.lhs)]
                if simple:
                    simple[0].tok = ":="
                    return clone.render()
        return None

    def _candidate_vars(self, func: ast.FuncDecl, closure: ast.FuncLit,
                        target: str) -> List[str]:
        names: List[str] = []
        declared = declared_names(func)
        if target and target in declared and self.closure_assigns(closure, target):
            names.append(target)
        if not names:
            for node in ast.walk(closure.body):
                if isinstance(node, ast.AssignStmt) and node.tok != ":=":
                    for expr in node.lhs:
                        if isinstance(expr, ast.Ident) and expr.name in declared:
                            names.append(expr.name)
        return names

    def _read_before_assign(self, closure: ast.FuncLit, name: str,
                            assign: ast.AssignStmt) -> bool:
        """True when the closure reads the captured value before (re)assigning it —
        re-declaring would then change behaviour, so the strategy declines."""
        for node in ast.walk(closure.body):
            if node is assign:
                return False
            if isinstance(node, ast.Ident) and node.name == name:
                return True
        return False


@fix_pattern(
    categories=(RaceCategory.LOOP_VARIABLE_CAPTURE,),
    specificity=100,
    example_rank=170,
    description="Privatizing captured loop variables",
    signature=examples.added_loop_self_copy,
)
class LoopVarCopyStrategy(FixStrategy):
    """Listing 11: privatize a range variable captured by goroutines (``x := x``)."""

    name = "loop_var_copy"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        for func in self.functions(scope):
            for node in ast.walk(func.body):
                if not isinstance(node, ast.RangeStmt):
                    continue
                loop_vars = [
                    expr.name
                    for expr in (node.key, node.value)
                    if isinstance(expr, ast.Ident) and expr.name != "_"
                ]
                if not loop_vars:
                    continue
                captured = self._captured_loop_vars(node, loop_vars)
                if not captured:
                    continue
                variable = target if target in captured else captured[0]
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "variable": variable},
                )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        variable = plan.data["variable"]
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            for node in ast.walk(func.body):
                if isinstance(node, ast.RangeStmt) and self._captured_loop_vars(
                    node, [variable]
                ):
                    already = any(
                        isinstance(stmt, ast.AssignStmt)
                        and stmt.tok == ":="
                        and len(stmt.lhs) == 1
                        and isinstance(stmt.lhs[0], ast.Ident)
                        and stmt.lhs[0].name == variable
                        for stmt in node.body.stmts
                    )
                    if not already:
                        copy_stmt = ast.AssignStmt(
                            lhs=[ast.ident(variable)], tok=":=", rhs=[ast.ident(variable)]
                        )
                        node.body.stmts.insert(0, copy_stmt)
                    return clone.render()
        return None

    def _captured_loop_vars(self, node: ast.RangeStmt, loop_vars: List[str]) -> List[str]:
        captured: List[str] = []
        for go_stmt, closure in go_closures(node.body):
            params = {name for field in closure.type_.params for name in field.names}
            arg_names = {
                arg.name for arg in go_stmt.call.args if isinstance(arg, ast.Ident)
            }
            for name in loop_vars:
                if name in params or name in arg_names:
                    continue  # already passed as a parameter
                if self.references_name(closure.body, name):
                    captured.append(name)
        return captured


@fix_pattern(
    categories=(RaceCategory.CAPTURE_BY_REFERENCE,),
    specificity=55,
    example_rank=190,
    description="Creating per-goroutine copies / passing values as parameters",
    signature=examples.privatized_local_copy,
)
class PrivatizeLocalCopyStrategy(FixStrategy):
    """Listing 5 / Listing 14: give each goroutine its own copy of the shared value."""

    name = "privatize_local_copy"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        for func in self.functions(scope):
            closures = go_closures(func.body)
            if not closures:
                continue
            candidates = self._candidates(func, closures, target)
            if candidates:
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "variable": candidates[0]},
                )
        return None

    def _candidates(self, func, closures, target: str) -> List[str]:
        names: List[str] = []
        writable: List[str] = []
        declared = declared_names(func)
        for _, closure in closures:
            for node in ast.walk(closure.body):
                if isinstance(node, ast.AssignStmt) and node.tok != ":=":
                    for expr in node.lhs:
                        base = ast.base_name(expr)
                        if base and base in declared:
                            writable.append(base)
        for name in writable:
            shared_readers = 0
            for _, closure in closures:
                if self.references_name(closure.body, name):
                    shared_readers += 1
            if shared_readers >= 1 and name not in names:
                names.append(name)
        if target:
            # The reported racy name may be a struct field; map it back to the
            # captured variable whose field is written.
            for name in writable:
                if name == target and name not in names:
                    names.insert(0, name)
            for _, closure in closures:
                for node in ast.walk(closure.body):
                    if isinstance(node, ast.SelectorExpr) and node.sel == target:
                        base = ast.base_name(node)
                        if base and base in declared and base not in names:
                            names.insert(0, base)
        return names

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        variable = plan.data["variable"]
        local_name = "local" + variable[:1].upper() + variable[1:]
        changed = False
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            for _, closure in go_closures(func.body):
                if not self.references_name(closure.body, variable):
                    continue
                self.rename_in_node(closure.body, variable, local_name)
                copy_stmt = ast.AssignStmt(
                    lhs=[ast.ident(local_name)], tok=":=", rhs=[ast.ident(variable)]
                )
                insert_at = 0
                for index, stmt in enumerate(closure.body.stmts):
                    if isinstance(stmt, ast.DeferStmt):
                        insert_at = index + 1
                    else:
                        break
                closure.body.stmts.insert(insert_at, copy_stmt)
                changed = True
        return clone.render() if changed else None


@fix_pattern(
    categories=(RaceCategory.MISSING_SYNCHRONIZATION,),
    specificity=110,
    example_rank=160,
    description="Relocating WaitGroup Add/Done/Wait to restore the intended ordering",
    signature=examples.moved_wg_add,
)
class MoveWaitGroupAddStrategy(FixStrategy):
    """Listing 6: move ``wg.Add`` from inside the goroutine to before the ``go``."""

    name = "move_wg_add"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            for go_stmt, closure in go_closures(func.body):
                add_stmt = self._find_add(closure)
                if add_stmt is not None:
                    return StrategyPlan(
                        strategy=self.name, data={"function": func.name}
                    )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        changed = False
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            for go_stmt, closure in go_closures(func.body):
                add_stmt = self._find_add(closure)
                if add_stmt is None:
                    continue
                closure.body.stmts = [s for s in closure.body.stmts if s is not add_stmt]
                if replace_stmt(func.body, go_stmt, [add_stmt, go_stmt]):
                    changed = True
        return clone.render() if changed else None

    def _find_add(self, closure: ast.FuncLit) -> Optional[ast.ExprStmt]:
        for stmt in closure.body.stmts:
            if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.x, ast.CallExpr):
                fun = stmt.x.fun
                if isinstance(fun, ast.SelectorExpr) and fun.sel == "Add":
                    return stmt
        return None


@fix_pattern(
    categories=(RaceCategory.OTHERS,),
    specificity=70,
    example_rank=130,
    description="Creating per-request instances of thread-unsafe library state",
    signature=examples.added_fresh_rand_source,
)
class RandPerRequestStrategy(FixStrategy):
    """Listing 12: create a fresh ``rand.Source`` per request instead of sharing one."""

    name = "rand_per_request"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            for node in ast.walk(func.body):
                if isinstance(node, ast.CallExpr) and self._is_rand_new(node):
                    arg = node.args[0] if node.args else None
                    if isinstance(arg, ast.Ident) and arg.name not in declared_names(func):
                        return StrategyPlan(
                            strategy=self.name,
                            data={"function": func.name, "source": arg.name},
                        )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        seed = self._global_seed(clone, plan.data["source"])
        changed = False
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            for node in ast.walk(func.body):
                if isinstance(node, ast.CallExpr) and self._is_rand_new(node):
                    arg = node.args[0] if node.args else None
                    if isinstance(arg, ast.Ident) and arg.name == plan.data["source"]:
                        node.args[0] = ast.call("rand.NewSource", ast.int_lit(seed))
                        changed = True
        return clone.render() if changed else None

    def _is_rand_new(self, call: ast.CallExpr) -> bool:
        fun = call.fun
        return (
            isinstance(fun, ast.SelectorExpr)
            and fun.sel == "New"
            and isinstance(fun.x, ast.Ident)
            and fun.x.name == "rand"
        )

    def _global_seed(self, scope: ScopeCode, source_name: str) -> int:
        for decl in scope.file.decls:
            if isinstance(decl, ast.GenDecl) and decl.tok == "var":
                for spec in decl.specs:
                    if isinstance(spec, ast.ValueSpec) and source_name in spec.names and spec.values:
                        for node in ast.walk(spec.values[0]):
                            if isinstance(node, ast.BasicLit) and node.kind == "INT":
                                return int(node.value)
        return 1
