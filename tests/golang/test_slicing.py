"""Unit tests for the per-function slicing analysis.

The slicer decides, per identifier occurrence, whether the binding it
resolves to is *pure-local* to its function unit — declared inside the unit,
never captured by a closure, never address-taken, not package-level.  Only
those occurrences are elidable; everything else keeps full instrumentation.
The compiler trusts this classification, so the tests here pin the
conservative edges (captures, ``&x``, package vars, shadowing).
"""

from __future__ import annotations

from repro.corpus.templates import all_templates
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from repro.golang.slicing import package_scope_bindings, slice_function


def _parse(source, name="a.go"):
    return parse_file(source, filename=name)


def _slice_named(files, func_name):
    scope = package_scope_bindings(files)
    for file in files:
        for decl in file.func_decls():
            if decl.name == func_name and decl.body is not None:
                return slice_function(decl, file.name, scope)
    raise AssertionError(f"no function {func_name!r}")


PURE_LOOP = """package p

func Sum(n int) int {
\ttotal := 0
\tfor i := 0; i < n; i++ {
\t\ttotal += i
\t}
\treturn total
}
"""


def test_pure_local_function_fully_elidable():
    file = _parse(PURE_LOOP)
    fslice = _slice_named([file], "Sum")
    assert fslice.total_sites > 0
    assert fslice.elidable_sites == fslice.total_sites
    assert fslice.shared_bindings == ()


CAPTURED = """package p

import "sync"

func Spawn() int {
\tcount := 0
\tlocal := 1
\tvar wg sync.WaitGroup
\twg.Add(1)
\tgo func() {
\t\tcount++
\t\twg.Done()
\t}()
\tlocal++
\twg.Wait()
\treturn count + local
}
"""


def test_closure_capture_blocks_elision_of_captured_binding_only():
    file = _parse(CAPTURED)
    fslice = _slice_named([file], "Spawn")
    assert "count" in fslice.shared_bindings
    assert "local" in fslice.pure_bindings
    # `local` occurrences are elidable even though `count` escapes.
    assert 0 < fslice.elidable_sites < fslice.total_sites


ADDRESSED = """package p

func Alias() int {
\tx := 1
\ty := 2
\tp := &x
\t*p = 3
\treturn x + y
}
"""


def test_address_taken_binding_is_not_elidable():
    file = _parse(ADDRESSED)
    fslice = _slice_named([file], "Alias")
    assert "x" in fslice.shared_bindings
    assert "y" in fslice.pure_bindings
    assert "p" in fslice.pure_bindings  # the pointer variable itself is local


PACKAGE_VAR = """package p

var shared = 0

func Touch() int {
\tlocal := shared
\tshared = local + 1
\treturn local
}
"""


def test_package_level_binding_is_never_elidable():
    file = _parse(PACKAGE_VAR)
    fslice = _slice_named([file], "Touch")
    assert "local" in fslice.pure_bindings
    assert "shared" not in fslice.pure_bindings
    assert fslice.elidable_sites < fslice.total_sites


SHADOW = """package p

var x = 0

func Shadow() int {
\tx := 1
\tx++
\treturn x
}
"""


def test_local_shadow_of_package_var_is_elidable():
    file = _parse(SHADOW)
    fslice = _slice_named([file], "Shadow")
    assert "x" in fslice.pure_bindings
    assert fslice.elidable_sites == fslice.total_sites



RANGE_AND_PARAMS = """package p

func Weighted(xs []int, k int) int {
\ts := 0
\tfor _, v := range xs {
\t\ts += v * k
\t}
\treturn s
}
"""


def test_parameters_and_range_variables_are_pure_local():
    file = _parse(RANGE_AND_PARAMS)
    fslice = _slice_named([file], "Weighted")
    assert fslice.pure_bindings == ("k", "s", "v", "xs")
    assert fslice.shared_bindings == ()
    assert fslice.elidable_sites == fslice.total_sites


RECEIVER = """package p

type Counter struct {
\tn int
}

func (c *Counter) Inc() int {
\tc.n++
\treturn c.n
}
"""


def test_receiver_binding_is_pure_local():
    # The pointer variable `c` is local; the cell `c.n` it points to is not
    # an identifier occurrence and keeps its own instrumentation.
    file = _parse(RECEIVER)
    fslice = _slice_named([file], "Inc")
    assert fslice.pure_bindings == ("c",)
    assert fslice.total_sites == 2
    assert fslice.elidable_sites == 2


UNIVERSE = """package p

func Size(xs []int) int {
\tif xs == nil {
\t\treturn len(xs)
\t}
\treturn cap(xs)
}
"""


def test_universe_names_create_no_sites():
    file = _parse(UNIVERSE)
    fslice = _slice_named([file], "Size")
    # Only the three uses of `xs` resolve; `nil`, `len` and `cap` do not.
    assert fslice.total_sites == 3
    assert fslice.pure_bindings == ("xs",)


CLOSURE_LOCALS = """package p

func Launch(limit int) {
\tgo func(n int) {
\t\tm := n + 1
\t\tuse(m)
\t}(limit)
}

func use(n int) int {
\treturn n
}
"""


def test_closure_parameters_and_locals_are_local_to_the_closure():
    file = _parse(CLOSURE_LOCALS)
    fslice = _slice_named([file], "Launch")
    assert fslice.pure_bindings == ("limit", "m", "n")
    assert fslice.shared_bindings == ()
    assert fslice.elidable_sites == fslice.total_sites


REDECLARE = """package p

func Pair() int {
\tx, e := 1, 2
\tgo func() {
\t\te++
\t}()
\ty, e := 3, 4
\treturn x + y + e
}
"""


def test_same_scope_redeclaration_reuses_the_captured_binding():
    # `y, e := ...` reuses the cell of the first `e`, which the closure
    # captured, so no occurrence of `e` may be elided.
    file = _parse(REDECLARE)
    fslice = _slice_named([file], "Pair")
    assert fslice.pure_bindings == ("x", "y")
    assert fslice.shared_bindings == ("e",)


INNER_SHADOW = """package p

func Nested() int {
\tx := 1
\t{
\t\tx := 2
\t\tgo func() {
\t\t\tx++
\t\t}()
\t}
\treturn x
}
"""


def test_inner_block_shadow_is_a_separate_binding():
    file = _parse(INNER_SHADOW)
    fslice = _slice_named([file], "Nested")
    # The outer `x` stays elidable although the inner one escapes.
    assert fslice.pure_bindings == ("x",)
    assert fslice.shared_bindings == ("x",)
    assert 0 < fslice.elidable_sites < fslice.total_sites


def test_every_template_function_slices_consistently():
    functions = 0
    for index, make in enumerate(all_templates()):
        case = make(7 + index, 1)
        for package in (case.package, case.fixed_package):
            files = [_parse(f.source, f.name) for f in package.files]
            scope = package_scope_bindings(files)
            for file in files:
                for decl in file.func_decls():
                    if decl.body is None:
                        continue
                    fslice = slice_function(decl, file.name, scope)
                    functions += 1
                    idents = {id(node) for node in ast.walk(decl)
                              if isinstance(node, ast.Ident)}
                    assert fslice.elidable <= idents
                    assert fslice.elidable_sites == len(fslice.elidable)
                    assert fslice.elidable_sites <= fslice.total_sites
                    # A pure-local name that is also a package variable must
                    # be a local shadow: package variables are shared.
                    shadowed = set(fslice.pure_bindings) & set(scope.bindings)
                    assert shadowed <= _locally_declared(decl)
    assert functions > 100


def _locally_declared(decl):
    """Every name a function declares (params, results, receiver, locals)."""
    names = set()
    for node in ast.walk(decl):
        if isinstance(node, ast.Field):
            names.update(node.names)
        elif isinstance(node, ast.AssignStmt) and node.tok == ":=":
            names.update(t.name for t in node.lhs if isinstance(t, ast.Ident))
        elif isinstance(node, ast.ValueSpec):
            names.update(node.names)
        elif isinstance(node, ast.RangeStmt) and node.tok == ":=":
            names.update(v.name for v in (node.key, node.value)
                         if isinstance(v, ast.Ident))
    return names
