"""Restructuring strategies: sync.Map conversion, error channels, struct
copies, and parallel-test isolation (the RAG-pivotal patterns of Table 4)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.diagnosis import examples
from repro.diagnosis.categories import RaceCategory
from repro.diagnosis.registry import fix_pattern
from repro.golang import ast_nodes as ast
from repro.golang.analysis import calls_method, ident_names
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies.base import FixStrategy, ScopeCode, StrategyPlan


@fix_pattern(
    categories=(RaceCategory.CONCURRENT_MAP_ACCESS,),
    specificity=90,
    example_rank=100,
    description="Changing data types (map vs sync.Map) and propagating the change to all references",
    signature=examples.added_sync_map,
)
class SyncMapConvertStrategy(FixStrategy):
    """Listing 8: convert a built-in map field to ``sync.Map`` and rewrite every
    map operation (index, assignment, ``delete``, ``range``) accordingly."""

    name = "sync_map_convert"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        candidates = [target] if target else []
        for spec in scope.file.type_decls():
            if not isinstance(spec.type_, ast.StructType):
                continue
            for field in spec.type_.fields:
                if not isinstance(field.type_, ast.MapType):
                    continue
                for name in field.names:
                    if candidates and name not in candidates:
                        continue
                    return StrategyPlan(
                        strategy=self.name,
                        data={"type": spec.name, "field": name},
                    )
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        type_name = plan.data["type"]
        field_name = plan.data["field"]
        spec = None
        for candidate in clone.file.type_decls():
            if candidate.name == type_name:
                spec = candidate
        if spec is None or not isinstance(spec.type_, ast.StructType):
            return None
        for field in spec.type_.fields:
            if field_name in field.names:
                field.type_ = ast.selector("sync.Map")
        for decl in clone.file.func_decls():
            if decl.body is None:
                continue
            self._rewrite_block(decl.body, field_name)
            self._rewrite_composites(decl, type_name, field_name)
        self.ensure_import(clone, "sync")
        return clone.render()

    # -- per-operation rewrites ------------------------------------------------------------

    def _is_field_access(self, expr: ast.Expr, field_name: str) -> bool:
        return isinstance(expr, ast.SelectorExpr) and expr.sel == field_name

    def _rewrite_block(self, block: ast.BlockStmt, field_name: str) -> None:
        new_stmts: List[ast.Stmt] = []
        for stmt in block.stmts:
            replacement = self._rewrite_stmt(stmt, field_name)
            if isinstance(replacement, list):
                new_stmts.extend(replacement)
            else:
                new_stmts.append(replacement)
        block.stmts = new_stmts
        for stmt in block.stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.BlockStmt) and node is not block:
                    self._rewrite_block(node, field_name)

    def _rewrite_stmt(self, stmt: ast.Stmt, field_name: str):
        # for k := range x.field { ... }  →  x.field.Range(func(k, _ interface{}) bool { ...; return true })
        if isinstance(stmt, ast.RangeStmt) and self._is_field_access(stmt.x, field_name):
            key_name = stmt.key.name if isinstance(stmt.key, ast.Ident) else "key"
            value_name = stmt.value.name if isinstance(stmt.value, ast.Ident) else "_"
            body = ast.BlockStmt(stmts=list(stmt.body.stmts))
            self._rewrite_block(body, field_name)
            body.stmts.append(ast.ReturnStmt(results=[ast.ident("true")]))
            callback = ast.FuncLit(
                type_=ast.FuncType(
                    params=[ast.Field(names=[key_name, value_name],
                                      type_=ast.InterfaceType(methods=[]))],
                    results=[ast.Field(type_=ast.ident("bool"))],
                ),
                body=body,
            )
            call = ast.CallExpr(fun=ast.SelectorExpr(x=stmt.x, sel="Range"), args=[callback])
            return ast.ExprStmt(x=call)
        # delete(x.field, k) → x.field.Delete(k)
        if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.x, ast.CallExpr):
            call = stmt.x
            if isinstance(call.fun, ast.Ident) and call.fun.name == "delete" and call.args \
                    and self._is_field_access(call.args[0], field_name):
                return ast.ExprStmt(
                    x=ast.CallExpr(
                        fun=ast.SelectorExpr(x=call.args[0], sel="Delete"),
                        args=list(call.args[1:]),
                    )
                )
        # x.field[k] = v → x.field.Store(k, v)
        if isinstance(stmt, ast.AssignStmt) and len(stmt.lhs) == 1 and stmt.tok == "=":
            target = stmt.lhs[0]
            if isinstance(target, ast.IndexExpr) and self._is_field_access(target.x, field_name):
                return ast.ExprStmt(
                    x=ast.CallExpr(
                        fun=ast.SelectorExpr(x=target.x, sel="Store"),
                        args=[target.index] + list(stmt.rhs),
                    )
                )
        # v := x.field[k] / v, ok := x.field[k] → Load
        if isinstance(stmt, ast.AssignStmt) and len(stmt.rhs) == 1:
            rhs = stmt.rhs[0]
            if isinstance(rhs, ast.IndexExpr) and self._is_field_access(rhs.x, field_name):
                load = ast.CallExpr(fun=ast.SelectorExpr(x=rhs.x, sel="Load"), args=[rhs.index])
                lhs = list(stmt.lhs)
                if len(lhs) == 1:
                    lhs.append(ast.ident("_"))
                return ast.AssignStmt(lhs=lhs, tok=stmt.tok, rhs=[load])
        return stmt

    def _rewrite_composites(self, decl: ast.FuncDecl, type_name: str, field_name: str) -> None:
        """``return &T{field: map[...]{...}, other: v}`` → build, Store, return."""
        if decl.body is None:
            return
        new_stmts: List[ast.Stmt] = []
        for stmt in decl.body.stmts:
            handled = False
            if isinstance(stmt, ast.ReturnStmt) and len(stmt.results) == 1:
                composite = stmt.results[0]
                inner = composite.x if isinstance(composite, ast.UnaryExpr) else composite
                if isinstance(inner, ast.CompositeLit) and self._composite_of_type(inner, type_name):
                    entries = self._pop_field_entries(inner, field_name)
                    if entries is not None:
                        temp = "built"
                        new_stmts.append(
                            ast.AssignStmt(lhs=[ast.ident(temp)], tok=":=", rhs=[composite])
                        )
                        for key_expr, value_expr in entries:
                            new_stmts.append(
                                ast.ExprStmt(
                                    x=ast.CallExpr(
                                        fun=ast.SelectorExpr(
                                            x=ast.SelectorExpr(x=ast.ident(temp), sel=field_name),
                                            sel="Store",
                                        ),
                                        args=[key_expr, value_expr],
                                    )
                                )
                            )
                        new_stmts.append(ast.ReturnStmt(results=[ast.ident(temp)]))
                        handled = True
            if not handled:
                new_stmts.append(stmt)
        decl.body.stmts = new_stmts

    def _composite_of_type(self, lit: ast.CompositeLit, type_name: str) -> bool:
        type_expr = lit.type_
        if isinstance(type_expr, ast.Ident):
            return type_expr.name == type_name
        if isinstance(type_expr, ast.SelectorExpr):
            return type_expr.sel == type_name
        return False

    def _pop_field_entries(self, lit: ast.CompositeLit,
                           field_name: str) -> Optional[List[Tuple[ast.Expr, ast.Expr]]]:
        for index, elt in enumerate(lit.elts):
            if isinstance(elt, ast.KeyValueExpr) and isinstance(elt.key, ast.Ident) \
                    and elt.key.name == field_name:
                entries: List[Tuple[ast.Expr, ast.Expr]] = []
                if isinstance(elt.value, ast.CompositeLit):
                    for item in elt.value.elts:
                        if isinstance(item, ast.KeyValueExpr):
                            entries.append((item.key, item.value))
                lit.elts.pop(index)
                return entries
        return None


@fix_pattern(
    categories=(RaceCategory.CAPTURE_BY_REFERENCE,),
    specificity=85,
    example_rank=110,
    description="Appropriately placing send/recv on channels instead of sharing variables",
    signature=examples.added_error_channel,
)
class ChannelErrorStrategy(FixStrategy):
    """Listing 10: stop sharing ``err`` across the goroutine boundary by sending
    it over a dedicated buffered error channel."""

    name = "channel_error"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable or "err"
        for func in self.functions(scope):
            has_select = any(isinstance(n, ast.SelectStmt) for n in ast.walk(func.body))
            if not has_select:
                continue
            closure_info = self._find_worker_closure(func, target)
            if closure_info is None:
                continue
            return StrategyPlan(strategy=self.name, data={"function": func.name, "variable": target})
        return None

    def _find_worker_closure(self, func: ast.FuncDecl, target: str):
        for node in ast.walk(func.body):
            if isinstance(node, ast.FuncLit):
                for inner in ast.walk(node.body):
                    if isinstance(inner, ast.AssignStmt) and inner.tok == "=" \
                            and any(isinstance(t, ast.Ident) and t.name == target for t in inner.lhs) \
                            and any(isinstance(s, ast.SendStmt) for s in ast.walk(node.body)):
                        return node, inner
        return None

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        target = plan.data["variable"]
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            closure_info = self._find_worker_closure(func, target)
            if closure_info is None:
                return None
            closure, assign = closure_info
            # 1. errChan := make(chan error, 1) right before the closure definition.
            err_chan = "errChan"
            make_chan = ast.AssignStmt(
                lhs=[ast.ident(err_chan)],
                tok=":=",
                rhs=[ast.call("make", ast.ChanType(value=ast.ident("error")), ast.int_lit(1))],
            )
            self._insert_before_closure_stmt(func, closure, make_chan)
            # 2. In the closure: make the assignment a fresh declaration and send the error.
            assign.tok = ":="
            self._drop_local_var_decl(closure, assign)
            send_err = ast.SendStmt(chan=ast.ident(err_chan), value=ast.ident(target))
            closure.body.stmts.append(send_err)
            # 3. In the select: read the error back in the result arm, stop
            #    returning the shared variable in the ctx.Done() arm.
            for node in ast.walk(func.body):
                if isinstance(node, ast.SelectStmt):
                    self._patch_select(node, target, err_chan)
            return clone.render()
        return None

    def _insert_before_closure_stmt(self, func: ast.FuncDecl, closure: ast.FuncLit,
                                    new_stmt: ast.Stmt) -> None:
        for block in ast.walk(func.body):
            if not isinstance(block, ast.BlockStmt):
                continue
            for index, stmt in enumerate(block.stmts):
                if any(inner is closure for inner in ast.walk(stmt)):
                    block.stmts.insert(index, new_stmt)
                    return
        func.body.stmts.insert(0, new_stmt)

    def _drop_local_var_decl(self, closure: ast.FuncLit, assign: ast.AssignStmt) -> None:
        """Remove ``var result T`` when the assignment now declares it via ``:=``."""
        declared = {t.name for t in assign.lhs if isinstance(t, ast.Ident)}
        kept: List[ast.Stmt] = []
        for stmt in closure.body.stmts:
            if isinstance(stmt, ast.DeclStmt):
                specs = [
                    spec for spec in stmt.decl.specs
                    if not (isinstance(spec, ast.ValueSpec) and set(spec.names) <= declared
                            and not spec.values)
                ]
                if not specs:
                    continue
                stmt.decl.specs = specs
            kept.append(stmt)
        closure.body.stmts = kept

    def _patch_select(self, select: ast.SelectStmt, target: str, err_chan: str) -> None:
        for case in select.cases:
            if case.comm is None:
                continue
            is_done_arm = any(
                isinstance(node, ast.SelectorExpr) and node.sel == "Done"
                for node in ast.walk(case.comm)
            )
            if is_done_arm:
                for stmt in case.body:
                    if isinstance(stmt, ast.ReturnStmt):
                        stmt.results = [
                            ast.ident("nil") if isinstance(r, ast.Ident) and r.name == target else r
                            for r in stmt.results
                        ]
            else:
                recv_err = ast.AssignStmt(
                    lhs=[ast.ident(target)],
                    tok="=",
                    rhs=[ast.UnaryExpr(op="<-", x=ast.ident(err_chan))],
                )
                case.body.insert(0, recv_err)


@fix_pattern(
    categories=(RaceCategory.OTHERS,),
    specificity=65,
    example_rank=180,
    description="Creating copies of complex data structures to avoid unwanted sharing",
    signature=examples.added_deref_copy,
)
class StructCopyStrategy(FixStrategy):
    """Listing 22: copy the shared struct before mutating it."""

    name = "struct_copy"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        target = task.racy_variable
        for func in self.functions(scope):
            pointer_params = self._pointer_params(func)
            for param in pointer_params:
                writes = self._field_writes(func, param)
                if not writes:
                    continue
                if target and target not in {w.sel for w in writes}:
                    continue
                return StrategyPlan(strategy=self.name, data={"function": func.name, "param": param})
        return None

    def _pointer_params(self, func: ast.FuncDecl) -> List[str]:
        names = []
        for param in func.type_.params:
            if isinstance(param.type_, ast.StarExpr):
                names.extend(param.names)
        return names

    def _field_writes(self, func: ast.FuncDecl, param: str) -> List[ast.SelectorExpr]:
        writes = []
        for node in ast.walk(func.body):
            if isinstance(node, ast.AssignStmt):
                for target in node.lhs:
                    if isinstance(target, ast.SelectorExpr) and ast.base_name(target) == param:
                        writes.append(target)
        return writes

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        param = plan.data["param"]
        copy_name = "new" + param[:1].upper() + param[1:]
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            self.rename_in_node(func.body, param, copy_name)
            copy_stmt = ast.AssignStmt(
                lhs=[ast.ident(copy_name)],
                tok=":=",
                rhs=[ast.StarExpr(x=ast.ident(param))],
            )
            func.body.stmts.insert(0, copy_stmt)
            return clone.render()
        return None


@fix_pattern(
    categories=(RaceCategory.PARALLEL_TEST_SUITE,),
    specificity=95,
    example_rank=120,
    description="Privatizing shared fixtures across parallel subtests",
    signature=examples.isolated_parallel_fixture,
)
class ParallelTestIsolationStrategy(FixStrategy):
    """Listing 7: give each parallel subtest its own instance of the shared fixture."""

    name = "parallel_test_isolation"

    def detect(self, task: FixTask, scope: ScopeCode) -> Optional[StrategyPlan]:
        for func in self.functions(scope):
            if not func.name.startswith("Test"):
                continue
            if not (calls_method(func.body, "Run") and calls_method(func.body, "Parallel")):
                continue
            shared = self._shared_fixture(func, task.racy_variable)
            if shared is not None:
                name, kind = shared
                return StrategyPlan(
                    strategy=self.name,
                    data={"function": func.name, "variable": name, "kind": kind},
                )
        return None

    def _shared_fixture(self, func: ast.FuncDecl, target: str) -> Optional[Tuple[str, str]]:
        """Find a variable declared before the subtest loop that subtests share.

        Returns ``(name, kind)`` with ``kind`` being ``"table"`` when the value
        is referenced from the test-table composite literal and ``"closure"``
        when it is referenced directly inside the ``t.Run`` closure.
        """
        declared: dict[str, ast.AssignStmt] = {}
        for stmt in func.body.stmts:
            if isinstance(stmt, ast.AssignStmt) and stmt.tok == ":=" and len(stmt.lhs) == 1 \
                    and isinstance(stmt.lhs[0], ast.Ident):
                declared[stmt.lhs[0].name] = stmt
        if not declared:
            return None
        table_names: set[str] = set()
        closure_names: set[str] = set()
        for node in ast.walk(func.body):
            if isinstance(node, ast.CompositeLit):
                table_names |= ident_names(node)
            if isinstance(node, ast.CallExpr) and isinstance(node.fun, ast.SelectorExpr) \
                    and node.fun.sel == "Run":
                for arg in node.args:
                    if isinstance(arg, ast.FuncLit):
                        closure_names |= ident_names(arg.body)
        candidates: List[Tuple[str, str]] = []
        for name, stmt in declared.items():
            if name in ("tests", "cases", "tt", "tc"):
                continue
            init = stmt.rhs[0] if stmt.rhs else None
            constructible = isinstance(init, (ast.CallExpr, ast.CompositeLit, ast.UnaryExpr))
            if not constructible:
                continue
            if name in closure_names:
                candidates.append((name, "closure"))
            elif name in table_names:
                candidates.append((name, "table"))
        if not candidates:
            return None
        if target:
            for name, kind in candidates:
                if name == target:
                    return name, kind
        return candidates[0]

    def apply(self, task: FixTask, scope: ScopeCode, plan: StrategyPlan) -> Optional[str]:
        clone = self.clone_scope(scope)
        variable = plan.data["variable"]
        kind = plan.data["kind"]
        for func in self.functions(clone):
            if func.name != plan.data["function"]:
                continue
            decl_stmt = None
            for stmt in func.body.stmts:
                if isinstance(stmt, ast.AssignStmt) and stmt.tok == ":=" and len(stmt.lhs) == 1 \
                        and isinstance(stmt.lhs[0], ast.Ident) and stmt.lhs[0].name == variable:
                    decl_stmt = stmt
                    break
            if decl_stmt is None:
                return None
            init_expr = decl_stmt.rhs[0]
            func.body.stmts = [s for s in func.body.stmts if s is not decl_stmt]
            if kind == "table":
                self._replace_in_tables(func, variable, init_expr)
            else:
                self._move_into_closures(func, variable, init_expr)
            return clone.render()
        return None

    def _replace_in_tables(self, func: ast.FuncDecl, variable: str, init_expr: ast.Expr) -> None:
        for node in ast.walk(func.body):
            if isinstance(node, ast.KeyValueExpr) and isinstance(node.value, ast.Ident) \
                    and node.value.name == variable:
                node.value = ast.clone(init_expr)

    def _move_into_closures(self, func: ast.FuncDecl, variable: str, init_expr: ast.Expr) -> None:
        for node in ast.walk(func.body):
            if isinstance(node, ast.CallExpr) and isinstance(node.fun, ast.SelectorExpr) \
                    and node.fun.sel == "Run":
                for arg in node.args:
                    if isinstance(arg, ast.FuncLit) and self.references_name(arg.body, variable):
                        fresh = ast.AssignStmt(
                            lhs=[ast.ident(variable)], tok=":=",
                            rhs=[ast.clone(init_expr)],
                        )
                        insert_at = 0
                        for index, stmt in enumerate(arg.body.stmts):
                            if isinstance(stmt, ast.ExprStmt) and isinstance(stmt.x, ast.CallExpr) \
                                    and isinstance(stmt.x.fun, ast.SelectorExpr) \
                                    and stmt.x.fun.sel == "Parallel":
                                insert_at = index + 1
                                break
                        arg.body.stmts.insert(insert_at, fresh)
