"""Tests for the sequential behaviour of the interpreter."""

import pytest

from repro.golang.parser import parse_file
from repro.runtime.compiler import CompiledProgram
from repro.runtime.interpreter import Interpreter
from repro.runtime.values import ErrorValue


def run_main(body: str, funcs: str = "", imports: str = '"fmt"') -> tuple:
    """Run ``func main`` with the given body; returns (result, output)."""
    source = f"""
package main

import {imports}

{funcs}

func main() {{
{body}
}}
"""
    interp = Interpreter(CompiledProgram([parse_file(source, "main.go")]))
    result = interp.run_func("main")
    assert not result.failures, result.failures
    return result, interp


def run_expr_program(source: str, entry: str = "main"):
    interp = Interpreter(CompiledProgram([parse_file(source, "main.go")]))
    return interp.run_func(entry), interp


class TestExpressions:
    def test_arithmetic_and_printing(self):
        result, _ = run_main('\tfmt.Println(2+3*4, 10/3, 10%3, 2 == 2)')
        assert result.output == ["14 3 1 true"]

    def test_string_concatenation_and_sprintf(self):
        result, _ = run_main('\tfmt.Println(fmt.Sprintf("%s-%d", "order", 7))')
        assert result.output == ["order-7"]

    def test_boolean_short_circuit(self):
        source = """
package main

import "fmt"

func boom() bool {
	panic("should not be called")
}

func main() {
	if false && boom() {
		fmt.Println("impossible")
	}
	if true || boom() {
		fmt.Println("ok")
	}
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["ok"] and not result.failures

    def test_division_by_zero_panics(self):
        source = """
package main

func main() {
	x := 0
	_ = 5 / x
}
"""
        result, _ = run_expr_program(source)
        assert result.failures and "divide by zero" in result.failures[0]


class TestControlFlow:
    def test_for_loop_and_if(self):
        result, _ = run_main(
            "\ttotal := 0\n\tfor i := 0; i < 5; i++ {\n\t\tif i%2 == 0 {\n\t\t\ttotal += i\n\t\t}\n\t}\n\tfmt.Println(total)"
        )
        assert result.output == ["6"]

    def test_range_over_slice_and_map(self):
        result, _ = run_main(
            '\titems := []int{1, 2, 3}\n\tsum := 0\n\tfor _, v := range items {\n\t\tsum += v\n\t}\n'
            '\tm := map[string]int{"a": 1, "b": 2}\n\tkeys := 0\n\tfor range m {\n\t\tkeys++\n\t}\n'
            "\tfmt.Println(sum, keys)"
        )
        assert result.output == ["6 2"]

    def test_switch_statement(self):
        result, _ = run_main(
            '\tn := 2\n\tswitch n {\n\tcase 1:\n\t\tfmt.Println("one")\n\tcase 2:\n\t\tfmt.Println("two")\n\tdefault:\n\t\tfmt.Println("many")\n\t}'
        )
        assert result.output == ["two"]

    @pytest.mark.parametrize("n,expected", [
        (1, ["one", "two", "many", "four", "0"]),
        (2, ["two", "many", "four", "1"]),
        (3, ["many", "four", "2"]),
        (4, ["four", "2"]),
    ])
    def test_fallthrough_runs_the_next_clause_in_source_order(self, n, expected):
        """``fallthrough`` enters the next clause, ``default`` included,
        without evaluating its expressions (``probe`` counts evaluations)."""
        body = f"""\tevals := 0
\tprobe := func(v int) int {{
\t\tevals++
\t\treturn v
\t}}
\tswitch n := {n}; n {{
\tcase 1:
\t\tfmt.Println("one")
\t\tfallthrough
\tcase probe(2):
\t\tfmt.Println("two")
\t\tfallthrough
\tdefault:
\t\tfmt.Println("many")
\t\tfallthrough
\tcase probe(4):
\t\tfmt.Println("four")
\t}}
\tfmt.Println(evals)"""
        result, _ = run_main(body)
        assert result.output == expected

    def test_labeled_break(self):
        result, _ = run_main(
            "\tcount := 0\nLoop:\n\tfor i := 0; i < 3; i++ {\n\t\tfor j := 0; j < 3; j++ {\n"
            "\t\t\tcount++\n\t\t\tif j == 1 {\n\t\t\t\tbreak Loop\n\t\t\t}\n\t\t}\n\t}\n\tfmt.Println(count)"
        )
        assert result.output == ["2"]

    def test_defer_runs_after_return_in_lifo_order(self):
        source = """
package main

import "fmt"

func work() {
	defer fmt.Println("first deferred")
	defer fmt.Println("second deferred")
	fmt.Println("body")
}

func main() {
	work()
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["body", "second deferred", "first deferred"]


class TestFunctionsAndStructs:
    def test_multiple_return_values(self):
        source = """
package main

import "fmt"

func divmod(a int, b int) (int, int) {
	return a / b, a % b
}

func main() {
	q, r := divmod(17, 5)
	fmt.Println(q, r)
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["3 2"]

    def test_named_results_and_bare_return(self):
        source = """
package main

import "fmt"

func count(items []int) (total int) {
	for _, v := range items {
		total += v
	}
	return
}

func main() {
	fmt.Println(count([]int{4, 5}))
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["9"]

    def test_methods_with_pointer_receiver_mutate_state(self):
        source = """
package main

import "fmt"

type Counter struct {
	n int
}

func (c *Counter) Add(delta int) {
	c.n = c.n + delta
}

func (c *Counter) Value() int {
	return c.n
}

func main() {
	c := &Counter{}
	c.Add(3)
	c.Add(4)
	fmt.Println(c.Value())
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["7"]

    def test_method_expressions_take_the_receiver_first(self):
        source = """
package main

import "fmt"

type T struct {
	n int
}

func (t T) get() int { return t.n }

func (t T) set() { t.n = 9 }

func (t *T) inc(d int) { t.n = t.n + d }

func main() {
	fmt.Println(T.get(T{n: 2}))
	f := T.get
	fmt.Println(f(T{n: 1}))
	v := T{n: 5}
	g := (*T).inc
	g(&v, 3)
	(*T).inc(&v, 1)
	T.set(v)
	fmt.Println(v.n, (*T).get(&v))
}
"""
        result, _ = run_expr_program(source)
        assert not result.failures, result.failures
        # What `go run` prints.
        assert result.output == ["2", "1", "9 9"]

    @pytest.mark.parametrize("statement, failure", [
        ("f := T.inc", "unsupported method expression T.inc"),
        ("f := T.missing", "unsupported method expression T.missing"),
        ("f := (*T).missing", "unsupported method expression (*T).missing"),
        ("f := T.get()", "not enough arguments in call to T.get"),
    ])
    def test_bad_method_expression_fails_with_a_go_message(self, statement, failure):
        source = f"""
package main

type T struct {{
	n int
}}

func (t T) get() int {{ return t.n }}

func (t *T) inc() {{ t.n++ }}

func main() {{
	{statement}
	_ = f
}}
"""
        result, _ = run_expr_program(source)
        assert result.failures == [f"goroutine 1 (main): {failure}"]

    def test_struct_assignment_copies_value(self):
        source = """
package main

import "fmt"

type Config struct {
	Limit int
}

func main() {
	a := Config{Limit: 1}
	b := a
	b.Limit = 99
	fmt.Println(a.Limit, b.Limit)
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["1 99"]

    def test_pointer_sharing_and_dereference_copy(self):
        source = """
package main

import "fmt"

type Config struct {
	Limit int
}

func main() {
	shared := &Config{Limit: 1}
	alias := shared
	alias.Limit = 5
	copied := *shared
	copied.Limit = 9
	fmt.Println(shared.Limit, copied.Limit)
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["5 9"]

    def test_closures_capture_by_reference(self):
        source = """
package main

import "fmt"

func main() {
	count := 0
	increment := func() {
		count = count + 1
	}
	increment()
	increment()
	fmt.Println(count)
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["2"]

    def test_errors_and_errorf(self):
        source = """
package main

import (
	"errors"
	"fmt"
)

func fail(code int) error {
	if code == 0 {
		return nil
	}
	return fmt.Errorf("code %d: %w", code, errors.New("boom"))
}

func main() {
	if err := fail(3); err != nil {
		fmt.Println(err)
	}
	if err := fail(0); err == nil {
		fmt.Println("nil error")
	}
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["code 3: boom", "nil error"]

    def test_variadic_function(self):
        source = """
package main

import "fmt"

func sum(values ...int) int {
	total := 0
	for _, v := range values {
		total += v
	}
	return total
}

func main() {
	fmt.Println(sum(1, 2, 3), sum())
}
"""
        result, _ = run_expr_program(source)
        assert result.output == ["6 0"]


class TestBuiltins:
    def test_append_len_cap_and_index(self):
        result, _ = run_main(
            "\ts := []int{1}\n\ts = append(s, 2, 3)\n\tfmt.Println(len(s), s[2])"
        )
        assert result.output == ["3 3"]

    def test_map_operations_and_comma_ok(self):
        result, _ = run_main(
            '\tm := map[string]int{}\n\tm["a"] = 1\n\tv, ok := m["a"]\n\t_, missing := m["zzz"]\n'
            '\tdelete(m, "a")\n\tfmt.Println(v, ok, missing, len(m))'
        )
        assert result.output == ["1 true false 0"]

    def test_missing_map_key_reads_the_value_types_zero(self):
        result, _ = run_main(
            '\ttype pair struct {\n\t\tn int\n\t}\n'
            '\tcounts := map[string]int{"a": 1}\n\tnames := make(map[int]string)\n'
            '\tpairs := map[string]pair{}\n\tptrs := map[string]*pair{}\n'
            '\tvar none map[string]int\n'
            '\tc, ok := counts["q"]\n\tn := names[3]\n\tz, _ := none["q"]\n'
            '\tfmt.Println(counts["q"] == 0, c, ok, n == "", pairs["q"].n, ptrs["q"] == nil, z)'
        )
        assert result.output == ["true 0 false true 0 true <nil>"]

    def test_missing_map_key_reads_a_fresh_struct(self):
        result, _ = run_main(
            '\ttype pair struct {\n\t\tn int\n\t}\n\tpairs := map[string]pair{}\n'
            '\tp := pairs["q"]\n\tp.n = 5\n\tfmt.Println(pairs["q"].n, p.n, len(pairs))'
        )
        assert result.output == ["0 5 0"]

    def test_make_slice_and_copy(self):
        result, _ = run_main(
            "\tdst := make([]int, 2)\n\tsrc := []int{7, 8, 9}\n\tn := copy(dst, src)\n\tfmt.Println(n, dst[0], dst[1])"
        )
        assert result.output == ["2 7 8"]

    def test_index_out_of_range_panics(self):
        source = """
package main

func main() {
	s := []int{1}
	_ = s[5]
}
"""
        result, _ = run_expr_program(source)
        assert result.failures and "index out of range" in result.failures[0]

    @pytest.mark.parametrize("call", ["len()", "cap()", "append()", "close()",
                                      "delete(m)", "copy(s)", "panic()"])
    def test_builtin_call_missing_an_argument_fails_the_run(self, call):
        source = f"""
package main

func main() {{
	m := map[string]int{{}}
	s := []int{{1}}
	_, _ = m, s
	{call}
}}
"""
        result, _ = run_expr_program(source)
        name = call.split("(")[0]
        assert result.failures == [f"goroutine 1 (main): missing argument to {name}"]

    def test_address_of_an_out_of_range_element_panics(self):
        source = """
package main

func main() {
	s := []int{1}
	p := &s[5]
	_ = p
}
"""
        result, _ = run_expr_program(source)
        assert result.failures and "index out of range [5] with length 1" in result.failures[0]

    def test_nil_map_write_panics(self):
        source = """
package main

func main() {
	var m map[string]int
	m["k"] = 1
}
"""
        result, _ = run_expr_program(source)
        assert result.failures and "nil map" in result.failures[0]

    def test_explicit_panic_is_reported(self):
        source = """
package main

func main() {
	panic("kaboom")
}
"""
        result, _ = run_expr_program(source)
        assert result.failures and "kaboom" in result.failures[0]

    def test_type_conversions(self):
        result, _ = run_main("\tfmt.Println(int64(3), float64(2), string(65))")
        assert result.output == ["3 2 A"]

    def test_undefined_identifier_is_an_error(self):
        source = """
package main

func main() {
	mystery()
}
"""
        result, _ = run_expr_program(source)
        assert result.failures and "undefined" in result.failures[0]
