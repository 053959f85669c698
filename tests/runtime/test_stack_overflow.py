"""Deep Go recursion ends the run the way Go does: ``fatal error: stack overflow``.

The interpreter runs a Go call on Python's stack, so a deep enough recursion
runs out of it.  A run that does must end as a failed test run with Go's
fatal error, on every run and every surface (harness, CLI, service), and
must leave the shared compiled program usable by the next run.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.golang import ast_nodes as ast
from repro.runtime.harness import GoFile, GoPackage, GoTestHarness, run_package_tests
from repro.runtime.interpreter import STACK_OVERFLOW
from repro.service import DetectRequest, DrFixService
from repro.service.requests import ResponseStatus

DOWN_SOURCE = """package deep

func down(n int) int { if n == 0 { return leaf() }; return down(n-1) + 1 }

func leaf() int {
	x := 0
	if x >= 0 {
		if x >= 0 {
			if x >= 0 {
				if x >= 0 {
					if x >= 0 {
						x = x + 1
					}
				}
			}
		}
	}
	return x - 1
}
"""


def _package(*tests: str) -> GoPackage:
    body = "".join(
        f"func Test{name}(t *testing.T) {{ if down({depth}) != {depth} "
        f"{{ t.Fatal(\"bad\") }} }}\n"
        for name, depth in (test.split(":") for test in tests))
    return GoPackage(name="deep", files=[
        GoFile("deep.go", DOWN_SOURCE),
        GoFile("deep_test.go", f"package deep\n\nimport \"testing\"\n\n{body}")])


def test_deep_recursion_fails_every_run_with_a_stack_overflow():
    result = run_package_tests(_package("Deep:5000"), runs=3, seed=1)
    assert result.built and not result.passed
    assert result.runs == 3
    assert result.test_failures == [STACK_OVERFLOW]
    harness = GoTestHarness(_package("Deep:5000"), runs=3, seed=1)
    build = harness.build()
    for spec in harness.plan_runs():
        outcome = harness._run_once(build, build.tests, [], *spec)
        assert outcome.failures == [STACK_OVERFLOW]


def test_shallow_test_in_the_same_package_still_passes():
    assert run_package_tests(_package("Shallow:10"), runs=3, seed=1).passed
    # ...and on the build a deep run just crashed on.
    harness = GoTestHarness(_package("Deep:5000", "Shallow:10"), runs=1, seed=1)
    build = harness.build()
    deep, shallow = build.tests
    spec = harness.plan_runs()[0]
    assert harness._run_once(build, [deep], [], *spec).failures == [STACK_OVERFLOW]
    assert harness._run_once(build, [shallow], [], *spec).failures == []


def test_a_goroutine_failure_before_the_overflow_is_kept():
    test = """package deep

import (
	"sync"
	"testing"
)

func TestDeep(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		panic("early")
	}()
	wg.Wait()
	down(5000)
}
"""
    package = GoPackage(name="deep", files=[
        GoFile("deep.go", DOWN_SOURCE), GoFile("deep_test.go", test)])
    result = run_package_tests(package, runs=2, seed=1)
    assert result.built and not result.passed
    assert result.test_failures == [
        STACK_OVERFLOW, "goroutine 2 (TestDeep.func1): panic: early"]


def test_overflow_during_first_call_lowering_leaves_the_program_whole():
    """``leaf`` lowers on its first call, at the bottom of the recursion.
    Some depth overflows inside that lowering; the run after it must see a
    program that lowers ``leaf`` afresh and computes the right answer."""
    for depth in range(1, 1000):
        harness = GoTestHarness(_package(f"Deep:{depth}", "Leaf:0"), runs=1, seed=1)
        build = harness.build()
        deep, leaf_test = build.tests
        spec = harness.plan_runs()[0]
        if harness._run_once(build, [deep], [], *spec).failures != [STACK_OVERFLOW]:
            continue
        code = build.ensure_program(True).code
        leaf = next(decl for file in build.files for decl in file.decls
                    if isinstance(decl, ast.FuncDecl) and decl.name == "leaf")
        started = any(id(stmt) in code for stmt in leaf.body.stmts)
        assert started, "the recursion overflowed before reaching leaf's lowering"
        if id(leaf.body) in code:
            continue  # leaf lowered whole; the overflow came after it
        assert harness._run_once(build, [leaf_test], [], *spec).failures == []
        assert id(leaf.body) in code
        return
    pytest.fail("no recursion depth overflowed the stack")


def test_cli_detect_exits_1_without_a_traceback(tmp_path, capsys):
    for file in _package("Deep:5000").files:
        (tmp_path / file.name).write_text(file.source)
    assert main(["detect", str(tmp_path), "--runs", "2"]) == 1
    out = capsys.readouterr()
    assert "Traceback" not in out.out + out.err


def test_served_detect_answers_ok():
    with DrFixService() as service:
        response = service.call(DetectRequest(package=_package("Deep:5000"), runs=2),
                                timeout=60)
    assert response.status is ResponseStatus.OK
    assert response.payload["test_failures"] == [STACK_OVERFLOW]
