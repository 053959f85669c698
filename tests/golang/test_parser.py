"""Tests for the Go-subset parser."""

import pytest

from repro.errors import GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_expr, parse_file, parse_stmts


class TestDeclarations:
    def test_package_and_imports(self):
        file = parse_file('package svc\n\nimport (\n\t"sync"\n\t"fmt"\n)\n')
        assert file.package == "svc"
        assert [spec.path for spec in file.imports] == ["sync", "fmt"]

    def test_single_import(self):
        file = parse_file('package p\nimport "testing"\n')
        assert file.imports[0].path == "testing"

    def test_func_decl_with_results(self):
        file = parse_file("package p\nfunc F(a int, b string) (int, error) { return a, nil }\n")
        decl = file.find_func("F")
        assert decl is not None
        assert [f.names for f in decl.type_.params] == [["a"], ["b"]]
        assert len(decl.type_.results) == 2

    def test_grouped_parameters_share_type(self):
        file = parse_file("package p\nfunc F(a, b int) int { return a + b }\n")
        decl = file.find_func("F")
        assert decl.type_.params[0].names == ["a", "b"]

    def test_method_declaration_with_pointer_receiver(self):
        file = parse_file("package p\ntype S struct{}\nfunc (s *S) Get() int { return 1 }\n")
        method = file.find_func("Get")
        assert method.recv is not None
        assert isinstance(method.recv.type_, ast.StarExpr)

    def test_struct_type_declaration(self):
        file = parse_file(
            "package p\ntype Config struct {\n\tLimit int\n\tName string\n\tmu sync.Mutex\n}\n"
        )
        spec = file.find_type("Config")
        assert isinstance(spec.type_, ast.StructType)
        assert [f.names[0] for f in spec.type_.fields] == ["Limit", "Name", "mu"]

    def test_interface_type_declaration(self):
        file = parse_file("package p\ntype H interface {\n\tWrite(p string) (int, error)\n}\n")
        spec = file.find_type("H")
        assert isinstance(spec.type_, ast.InterfaceType)

    def test_package_level_var_with_initializer(self):
        file = parse_file("package p\nvar source = rand.NewSource(1001)\n")
        decl = file.decls[0]
        assert isinstance(decl, ast.GenDecl) and decl.tok == "var"

    def test_variadic_parameter(self):
        file = parse_file("package p\nfunc F(items ...int) int { return len(items) }\n")
        assert file.find_func("F").type_.params[0].variadic

    def test_generic_type_parameters_are_skipped(self):
        file = parse_file("package p\ntype Scanner[ROW any] struct {\n\tlimit int\n}\n")
        assert file.find_type("Scanner") is not None

    def test_missing_package_clause_raises(self):
        with pytest.raises(GoSyntaxError):
            parse_file("func F() {}\n")


class TestStatements:
    def test_short_var_declaration_and_assignment(self):
        stmts = parse_stmts("x := 1\nx = 2\nx += 3")
        assert isinstance(stmts[0], ast.AssignStmt) and stmts[0].tok == ":="
        assert stmts[1].tok == "="
        assert stmts[2].tok == "+="

    def test_multi_assignment(self):
        stmts = parse_stmts("a, b := f()")
        assert len(stmts[0].lhs) == 2

    def test_go_statement_with_closure(self):
        stmts = parse_stmts("go func() {\n\twork()\n}()")
        assert isinstance(stmts[0], ast.GoStmt)
        assert isinstance(stmts[0].call.fun, ast.FuncLit)

    def test_defer_statement(self):
        stmts = parse_stmts("defer wg.Done()")
        assert isinstance(stmts[0], ast.DeferStmt)

    def test_channel_send_statement(self):
        stmts = parse_stmts("ch <- value")
        assert isinstance(stmts[0], ast.SendStmt)

    def test_if_with_init_statement(self):
        stmts = parse_stmts("if err := f(); err != nil {\n\treturn err\n}")
        stmt = stmts[0]
        assert isinstance(stmt, ast.IfStmt) and stmt.init is not None

    def test_if_else_chain(self):
        stmts = parse_stmts("if a {\n\tx()\n} else if b {\n\ty()\n} else {\n\tz()\n}")
        stmt = stmts[0]
        assert isinstance(stmt.else_, ast.IfStmt)
        assert isinstance(stmt.else_.else_, ast.BlockStmt)

    def test_three_clause_for_loop(self):
        stmts = parse_stmts("for i := 0; i < 10; i++ {\n\twork(i)\n}")
        stmt = stmts[0]
        assert isinstance(stmt, ast.ForStmt)
        assert stmt.init is not None and stmt.cond is not None and stmt.post is not None

    def test_range_loop_with_two_variables(self):
        stmts = parse_stmts("for k, v := range m {\n\tuse(k, v)\n}")
        stmt = stmts[0]
        assert isinstance(stmt, ast.RangeStmt)
        assert stmt.key.name == "k" and stmt.value.name == "v"

    def test_bare_range_loop(self):
        stmts = parse_stmts("for range items {\n\tn++\n}")
        assert isinstance(stmts[0], ast.RangeStmt)
        assert stmts[0].key is None

    def test_infinite_for_loop(self):
        stmts = parse_stmts("for {\n\tbreak\n}")
        stmt = stmts[0]
        assert stmt.cond is None and stmt.init is None

    def test_switch_with_cases_and_default(self):
        stmts = parse_stmts('switch n {\ncase 1:\n\ta()\ncase 2, 3:\n\tb()\ndefault:\n\tc()\n}')
        stmt = stmts[0]
        assert isinstance(stmt, ast.SwitchStmt)
        assert len(stmt.cases) == 3
        assert stmt.cases[2].exprs == []

    def test_select_statement(self):
        stmts = parse_stmts(
            "select {\ncase v := <-ch:\n\tuse(v)\ncase out <- 1:\n\tdone()\ndefault:\n\tskip()\n}"
        )
        stmt = stmts[0]
        assert isinstance(stmt, ast.SelectStmt)
        assert len(stmt.cases) == 3

    def test_labeled_statement_with_break(self):
        stmts = parse_stmts("Loop:\nfor {\n\tbreak Loop\n}")
        assert isinstance(stmts[0], ast.LabeledStmt)
        assert stmts[0].label == "Loop"

    def test_inc_dec_statements(self):
        stmts = parse_stmts("n++\nn--")
        assert stmts[0].op == "++" and stmts[1].op == "--"

    def test_local_var_declaration(self):
        stmts = parse_stmts("var wg sync.WaitGroup")
        assert isinstance(stmts[0], ast.DeclStmt)

    def test_return_with_multiple_values(self):
        stmts = parse_stmts("return a, nil")
        assert len(stmts[0].results) == 2


class TestExpressions:
    def test_binary_precedence(self):
        expr = parse_expr("1 + 2*3")
        assert isinstance(expr, ast.BinaryExpr) and expr.op == "+"
        assert isinstance(expr.y, ast.BinaryExpr) and expr.y.op == "*"

    def test_comparison_and_logical(self):
        expr = parse_expr("a > 1 && b != nil")
        assert expr.op == "&&"

    def test_selector_chain_and_call(self):
        expr = parse_expr("s.cfg.Load(ctx, req)")
        assert isinstance(expr, ast.CallExpr)
        assert isinstance(expr.fun, ast.SelectorExpr) and expr.fun.sel == "Load"

    def test_index_and_slice_expressions(self):
        index = parse_expr("items[3]")
        sliced = parse_expr("items[1:4]")
        assert isinstance(index, ast.IndexExpr)
        assert isinstance(sliced, ast.SliceExpr)

    def test_composite_struct_literal_with_fields(self):
        expr = parse_expr('Request{Limit: limit, Kind: "boost"}')
        assert isinstance(expr, ast.CompositeLit)
        assert all(isinstance(e, ast.KeyValueExpr) for e in expr.elts)

    def test_slice_and_map_literals(self):
        slice_lit = parse_expr("[]int{1, 2, 3}")
        map_lit = parse_expr('map[string]int{"a": 1}')
        assert isinstance(slice_lit.type_, ast.ArrayType)
        assert isinstance(map_lit.type_, ast.MapType)

    def test_address_of_composite(self):
        expr = parse_expr("&Config{Limit: 3}")
        assert isinstance(expr, ast.UnaryExpr) and expr.op == "&"

    def test_channel_receive_expression(self):
        expr = parse_expr("<-done")
        assert isinstance(expr, ast.UnaryExpr) and expr.op == "<-"

    def test_func_literal_expression(self):
        expr = parse_expr("func(x int) int {\n\treturn x + 1\n}")
        assert isinstance(expr, ast.FuncLit)

    def test_type_assertion(self):
        expr = parse_expr("value.(string)")
        assert isinstance(expr, ast.TypeAssertExpr)

    def test_make_with_channel_type(self):
        expr = parse_expr("make(chan struct{}, 1)")
        assert isinstance(expr, ast.CallExpr)
        assert isinstance(expr.args[0], ast.ChanType)

    def test_variadic_call(self):
        expr = parse_expr("append(docs, extras...)")
        assert expr.ellipsis

    def test_composite_literal_not_allowed_in_if_header(self):
        stmts = parse_stmts("if x == y {\n\twork()\n}")
        assert isinstance(stmts[0], ast.IfStmt)

    def test_trailing_garbage_raises(self):
        with pytest.raises(GoSyntaxError):
            parse_expr("1 + 2 }")


class TestHelpers:
    def test_base_name(self):
        assert ast.base_name(parse_expr("a.b.c[0]")) == "a"
        assert ast.base_name(parse_expr("(*p).f")) == "p"
        assert ast.base_name(parse_expr("f()")) is None

    def test_walk_visits_nested_nodes(self):
        expr = parse_expr("f(a + g(b))")
        names = {n.name for n in ast.walk(expr) if isinstance(n, ast.Ident)}
        assert names == {"f", "a", "g", "b"}

    def test_file_find_helpers(self):
        file = parse_file("package p\ntype T struct{}\nfunc A() {}\nfunc B() {}\n")
        assert file.find_func("B") is not None
        assert file.find_func("missing") is None
        assert file.find_type("T") is not None
        assert len(file.func_decls()) == 2


class TestNesting:
    """Input nested past the recursion limit is a syntax error, not a crash."""

    @pytest.mark.parametrize("body", [
        "x := " + "(" * 3000 + "1" + ")" * 3000,
        "{" * 3000 + "}" * 3000,
    ], ids=["parentheses", "blocks"])
    def test_deep_nesting_raises_syntax_error(self, body):
        with pytest.raises(GoSyntaxError, match="nesting too deep") as caught:
            parse_file("package p; func f() { " + body + " }")
        assert caught.value.line == 1 and caught.value.column > 1

    def test_deep_expression_raises_syntax_error(self):
        with pytest.raises(GoSyntaxError, match="nesting too deep"):
            parse_expr("(" * 3000 + "1" + ")" * 3000)

    def test_moderate_nesting_still_parses(self):
        file = parse_file("package p; func f() { x := " + "(" * 50 + "1" + ")" * 50 + " }")
        assert file.find_func("f") is not None
