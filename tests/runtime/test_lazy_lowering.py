"""Lowering on first call: a build lowers only the code its runs execute.

A :class:`~repro.runtime.compiler.CompiledProgram` computes its whole-program
facts up front and lowers each function body on the first call into it.
These tests pin what that must not change: code no run reaches is never
lowered or sliced, lowering everything slices every declaration, and two
threads making the first call into the same function at once see exactly
what a serial run sees.
"""

from __future__ import annotations

import threading

import pytest

import repro.runtime.compiler as compiler
from repro.execution import CaseExecutor
from repro.golang.parser import parse_file
from repro.golang.slicing import package_scope_bindings, slice_function
from repro.runtime.compiler import PROGRAM_CACHE, CompiledProgram
from repro.runtime.harness import GoFile, GoPackage, run_package_tests
from tests.runtime.test_detection_golden import CONSTRUCTS

LIB_SOURCE = """package lazy

import "sync"

func Called(n int) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			mu.Lock()
			total += v
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return total
}

func Uncalled(n int) int {
	return n * 2
}
"""

TEST_SOURCE = """package lazy

import "testing"

func TestCalled(t *testing.T) {
	println(Called(3))
}
"""


@pytest.fixture
def package() -> GoPackage:
    return GoPackage(name="lazy", files=[GoFile("lib.go", LIB_SOURCE),
                                         GoFile("lib_test.go", TEST_SOURCE)])


def _body(build, name):
    for file in build.files:
        decl = file.find_func(name)
        if decl is not None:
            return decl.body
    raise AssertionError(f"no function {name}")


def test_only_called_functions_are_lowered(package):
    PROGRAM_CACHE.clear()
    result = run_package_tests(package, runs=2)
    assert result.built and result.passed
    build = PROGRAM_CACHE.get_or_build(package)
    code = build.program.code
    called, uncalled = _body(build, "Called"), _body(build, "Uncalled")
    assert code[id(called)][0] is called
    assert id(uncalled) not in code
    assert not any(id(stmt) in code for stmt in uncalled.stmts)
    PROGRAM_CACHE.clear()


def test_only_called_declarations_are_sliced(package, monkeypatch):
    sliced = []
    real = compiler.slice_function

    def counting(decl, file_name, package_scope):
        sliced.append(decl.name)
        return real(decl, file_name, package_scope)

    monkeypatch.setattr(compiler, "slice_function", counting)
    PROGRAM_CACHE.clear()
    result = run_package_tests(package, runs=2)
    assert result.built and result.passed
    assert sorted(sliced) == ["Called", "TestCalled"]
    PROGRAM_CACHE.clear()


@pytest.mark.parametrize("name", sorted(CONSTRUCTS))
def test_lowering_everything_slices_every_declaration(name):
    files = [parse_file(file.source, file.name) for file in CONSTRUCTS[name].files]
    program = CompiledProgram(files, slicing=True)
    assert not program.meta.elidable
    program._lower_all()
    scope = package_scope_bindings(files)
    expected = set()
    for file in files:
        for decl in file.func_decls():
            if decl.body is not None:
                expected |= slice_function(decl, file.name, scope).elidable
    assert program.meta.elidable == expected


def test_concurrent_first_calls_match_the_serial_run(listing1_package, monkeypatch):
    """Two harness calls on two threads (the service's thread pool) lower the
    same function bodies at once."""
    PROGRAM_CACHE.clear()
    serial = run_package_tests(listing1_package, runs=4)
    assert serial.reports

    PROGRAM_CACHE.clear()
    real = compiler.compile_block
    barrier = threading.Barrier(2, timeout=5)
    lock = threading.Lock()
    lowered_by = {}  # id(body block) -> threads that lowered it

    def racing_compile_block(block, code):
        # Hold each thread at its first lowering until the other thread
        # arrives, so both lower the test body concurrently.
        thread = threading.get_ident()
        with lock:
            first = not any(thread in threads for threads in lowered_by.values())
            lowered_by.setdefault(id(block), set()).add(thread)
        if first:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
        return real(block, code)

    monkeypatch.setattr(compiler, "compile_block", racing_compile_block)
    pool = CaseExecutor(kind="thread", jobs=2)
    results = pool.map(lambda package: run_package_tests(package, runs=4),
                       [listing1_package, listing1_package])
    assert not barrier.broken
    assert any(len(threads) == 2 for threads in lowered_by.values())
    for threaded in results:
        assert threaded.race_hashes() == serial.race_hashes()
        assert threaded.output == serial.output
        assert threaded.test_failures == serial.test_failures
    PROGRAM_CACHE.clear()
