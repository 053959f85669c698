"""Tests for the concurrency-oriented AST helpers."""

from repro.golang import ast_nodes as ast
from repro.golang.analysis import (
    UNIVERSE_NAMES,
    calls_method,
    declared_names,
    find_enclosing_function,
    go_closures,
    ident_names,
    is_nil_check,
    mentions_concurrency,
    mentions_field,
    methods_of,
    names_on_lines,
    node_line_span,
    package_level_var,
    parse_package_file,
    receiver_name,
    stmt_is_concurrency,
    sync_field,
    writes_selector,
)
from repro.golang.parser import parse_expr, parse_file, parse_stmts
from repro.runtime.harness import GoFile, GoPackage


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
        assert mentions_concurrency(file.find_func("Outer").body)
        quiet = parse_file("package p\nfunc G() int {\n\treturn 1\n}\n")
        assert not mentions_concurrency(quiet.find_func("G").body)

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
                       "func() { go work() }",
                       # Inside a closure passed as an argument.
                       "run(func() { <-ch })", "run(func() { go work() })"):
            assert mentions_concurrency(parse_expr(source)), source
        for source in ("x + 1", "f(a, b)", "func() int { return 1 }"):
            assert not mentions_concurrency(parse_expr(source)), source
        assert not mentions_concurrency(None)

    def test_receives_can_be_ignored(self):
        for source in ("<-done", "run(func() { <-ch })"):
            assert mentions_concurrency(parse_expr(source))
            assert not mentions_concurrency(parse_expr(source), receives=False), source
        for source in ("make(chan int)", "run(func() { go work() })", "wg.Wait()"):
            assert mentions_concurrency(parse_expr(source), receives=False), source

    def test_calls_method_matches_any_of_several_names(self):
        body = parse_file(RECEIVER_SOURCE).find_func("Inc").body
        assert calls_method(body, "Lock")
        assert calls_method(body, "RLock", "Unlock")
        assert not calls_method(body, "RLock", "RUnlock")
        assert not calls_method(body)

    def test_go_closures_pairs_each_go_statement_with_its_closure(self):
        pairs = go_closures(parse_file(CAPTURE_SOURCE).find_func("Outer").body)
        assert len(pairs) == 2
        assert all(go_stmt.call.fun is closure for go_stmt, closure in pairs)
        assert [len(go_stmt.call.args) for go_stmt, _ in pairs] == [0, 1]

    def test_find_enclosing_function_outside_closures_and_functions(self):
        file = parse_file(CAPTURE_SOURCE)
        # Line 2 is the package clause; line 17 is the body of `use`.
        assert find_enclosing_function(file, 2) is None
        enclosing = find_enclosing_function(file, 17)
        assert enclosing is not None and enclosing.decl.name == "use"
        assert enclosing.closure is None


RECEIVER_SOURCE = """
package p

import "sync"

var registry map[string]int

type Counter struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	n     int
	cache map[string]int
}

type Reader struct {
	sync.RWMutex
	lock sync.RWMutex
}

func (c *Counter) Inc() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
}

func (c Counter) Get() int {
	return c.n
}

func (Counter) Name() string {
	return "counter"
}

func (c *Counter) Reset(keys []string) {
	if c.cache == nil {
		c.cache = map[string]int{}
	}
	for i, key := range keys {
		var seen int
		last := key
		use(i, seen, last)
	}
}

func (r *Reader) Read() {
	r.lock.RLock()
	r.lock.RUnlock()
}

func use(values ...interface{}) {
}
"""


def _spec(file, name):
    return next(spec for spec in file.type_decls() if spec.name == name)


class TestReceiversAndFields:
    def test_methods_of_matches_pointer_value_and_unnamed_receivers(self):
        file = parse_file(RECEIVER_SOURCE)
        assert [d.name for d in methods_of(file, "Counter")] == ["Inc", "Get", "Name", "Reset"]
        assert [d.name for d in methods_of(file, "Reader")] == ["Read"]
        assert methods_of(file, "use") == []

    def test_receiver_name_is_empty_for_unnamed_receivers_and_functions(self):
        file = parse_file(RECEIVER_SOURCE)
        assert receiver_name(file.find_func("Inc")) == "c"
        assert receiver_name(file.find_func("Get")) == "c"
        assert receiver_name(file.find_func("Name")) == ""
        assert receiver_name(file.find_func("use")) == ""

    def test_writes_selector_through_pointer_receiver(self):
        file = parse_file(RECEIVER_SOURCE)
        assert writes_selector(file.find_func("Inc").body, "c", "n")
        assert not writes_selector(file.find_func("Get").body, "c", "n")
        assert not writes_selector(file.find_func("Inc").body, "c", "cache")
        # Any field counts when none is named.
        assert writes_selector(file.find_func("Reset").body, "c")
        # An unnamed receiver ("") never matches.
        assert not writes_selector(file.find_func("Inc").body, "", "n")

    def test_field_mentions_and_nil_checks(self):
        file = parse_file(RECEIVER_SOURCE)
        assert mentions_field(file.find_func("Get").body, "c", "n")
        assert not mentions_field(file.find_func("Get").body, "r", "n")
        assert not mentions_field(file.find_func("Name").body, "", "n")
        check = file.find_func("Reset").body.stmts[0]
        assert is_nil_check(check.cond, "c", "cache")
        assert not is_nil_check(check.cond, "c", "n")
        assert not is_nil_check(check.cond, "", "cache")

    def test_sync_field_takes_either_mutex_kind(self):
        file = parse_file(RECEIVER_SOURCE)
        counter, reader = _spec(file, "Counter"), _spec(file, "Reader")
        assert sync_field(counter, "Mutex", "RWMutex") == "mu"
        assert sync_field(counter, "RWMutex") == "rw"
        assert sync_field(counter, "Mutex") == "mu"
        assert sync_field(counter, "Map") is None
        # An embedded (unnamed) field is skipped.
        assert sync_field(reader, "RWMutex") == "lock"
        assert sync_field(reader, "Mutex", "RWMutex") == "lock"
        assert sync_field(reader, "Mutex") is None

    def test_declared_names_counts_range_variables_only_when_asked(self):
        reset = parse_file(RECEIVER_SOURCE).find_func("Reset")
        assert declared_names(reset) == {"keys", "seen", "last"}
        assert declared_names(reset, ranges=True) == {"keys", "seen", "last", "i", "key"}
        bodyless = ast.FuncDecl(name="f", type_=reset.type_)
        assert declared_names(bodyless) == set()

    def test_names_and_package_level_vars(self):
        file = parse_file(RECEIVER_SOURCE)
        assert ident_names(file.find_func("Get").body) == {"c"}
        assert ident_names(None) == set()
        assert package_level_var(file, "registry")
        assert not package_level_var(file, "Counter")

    def test_parse_package_file_is_none_for_missing_or_broken_files(self):
        package = GoPackage(name="p", files=[GoFile("a.go", RECEIVER_SOURCE),
                                             GoFile("b.go", "package p\nfunc (")])
        assert parse_package_file(package, "a.go").find_func("Inc") is not None
        assert parse_package_file(package, "b.go") is None
        assert parse_package_file(package, "c.go") is None


class TestUniverseNames:
    def test_builtins_and_predeclared_types_are_universe_names(self):
        assert {"true", "false", "nil", "iota", "len", "cap", "append", "make",
                "new", "panic", "recover", "error", "int", "string", "any",
                "_"} <= UNIVERSE_NAMES

    def test_package_and_user_names_are_not_universe_names(self):
        assert not {"sync", "atomic", "fmt", "testing", "mu", "wg",
                    "Mutex"} & UNIVERSE_NAMES
