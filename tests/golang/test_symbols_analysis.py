"""Tests for the concurrency-oriented AST helpers."""

from repro.golang.analysis import (
    UNIVERSE_NAMES,
    block_mentions_concurrency,
    expr_mentions_sync,
    find_enclosing_function,
    names_on_lines,
    node_line_span,
    stmt_is_concurrency,
)
from repro.golang.parser import parse_expr, parse_file, parse_stmts


CAPTURE_SOURCE = """
package p

func Outer(items []int) int {
	total := 0
	limit := 10
	go func() {
		total = total + limit
	}()
	go func(n int) {
		use(n)
	}(limit)
	return total
}

func use(n int) int {
	return n
}
"""


class TestConcurrencyAnalysis:
    def test_go_and_send_statements_are_concurrency(self):
        go_stmt, send_stmt, plain = parse_stmts("go f()\nch <- 1\nx := 2")
        assert stmt_is_concurrency(go_stmt)
        assert stmt_is_concurrency(send_stmt)
        assert not stmt_is_concurrency(plain)

    def test_sync_calls_are_concurrency(self):
        wait, lock, other = parse_stmts("wg.Wait()\nmu.Lock()\nfmt.Println(1)")
        assert stmt_is_concurrency(wait)
        assert stmt_is_concurrency(lock)
        assert not stmt_is_concurrency(other)

    def test_block_mentions_concurrency(self):
        file = parse_file(CAPTURE_SOURCE)
        assert block_mentions_concurrency(file.find_func("Outer").body)
        quiet = parse_file("package p\nfunc G() int {\n\treturn 1\n}\n")
        assert not block_mentions_concurrency(quiet.find_func("G").body)

    def test_find_enclosing_function_resolves_closures(self):
        file = parse_file(CAPTURE_SOURCE)
        # Line 8 is inside the first closure.
        enclosing = find_enclosing_function(file, 8)
        assert enclosing is not None and enclosing.decl.name == "Outer"
        assert enclosing.closure is not None

    def test_names_on_lines(self):
        file = parse_file(CAPTURE_SOURCE)
        names = names_on_lines(file.find_func("Outer"), [8])
        assert "total" in names and "limit" in names

    def test_node_line_span_covers_function(self):
        file = parse_file(CAPTURE_SOURCE)
        low, high = node_line_span(file.find_func("Outer"))
        assert low <= 4 and high >= 12


    def test_defer_is_concurrency_only_for_sync_calls(self):
        unlock, close = parse_stmts("defer mu.Unlock()\ndefer f.Close()")
        assert stmt_is_concurrency(unlock)
        assert not stmt_is_concurrency(close)

    def test_sync_typed_declaration_is_concurrency(self):
        mutex, plain = parse_stmts("var mu sync.Mutex\nvar n int")
        assert stmt_is_concurrency(mutex)
        assert not stmt_is_concurrency(plain)

    def test_channels_and_atomics_mention_sync(self):
        for source in ("make(chan int)", "<-done", "atomic.LoadInt64(&n)",
                       "func() { go work() }"):
            assert expr_mentions_sync(parse_expr(source)), source
        for source in ("x + 1", "f(a, b)", "func() int { return 1 }"):
            assert not expr_mentions_sync(parse_expr(source)), source
        assert not expr_mentions_sync(None)

    def test_find_enclosing_function_outside_closures_and_functions(self):
        file = parse_file(CAPTURE_SOURCE)
        # Line 2 is the package clause; line 17 is the body of `use`.
        assert find_enclosing_function(file, 2) is None
        enclosing = find_enclosing_function(file, 17)
        assert enclosing is not None and enclosing.decl.name == "use"
        assert enclosing.closure is None


class TestUniverseNames:
    def test_builtins_and_predeclared_types_are_universe_names(self):
        assert {"true", "false", "nil", "iota", "len", "cap", "append", "make",
                "new", "panic", "recover", "error", "int", "string", "any",
                "_"} <= UNIVERSE_NAMES

    def test_package_and_user_names_are_not_universe_names(self):
        assert not {"sync", "atomic", "fmt", "testing", "mu", "wg",
                    "Mutex"} & UNIVERSE_NAMES
