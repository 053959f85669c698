"""Lowering on first call: a build lowers only the code its runs execute.

A :class:`~repro.runtime.compiler.CompiledProgram` computes its whole-program
facts up front and lowers each function body on the first call into it.
These tests pin what that must not change: code no run reaches is never
lowered, and two threads making the first call into the same function at
once see exactly what a serial run sees.
"""

from __future__ import annotations

import threading

import pytest

import repro.runtime.compiler as compiler
from repro.runtime.compiler import PROGRAM_CACHE
from repro.runtime.harness import GoFile, GoPackage, run_package_tests

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
    result = run_package_tests(package, runs=2, engine="compiled")
    assert result.built and result.passed
    build = PROGRAM_CACHE.get_or_build(package)
    code = build.program.code
    called, uncalled = _body(build, "Called"), _body(build, "Uncalled")
    assert code[id(called)][0] is called
    assert id(uncalled) not in code
    assert not any(id(stmt) in code for stmt in uncalled.stmts)
    PROGRAM_CACHE.clear()


def test_concurrent_first_calls_match_the_serial_run(listing1_package, monkeypatch):
    """Two runs on two threads lower the same function bodies at once."""
    PROGRAM_CACHE.clear()
    serial = run_package_tests(listing1_package, runs=4, jobs=1)
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
    threaded = run_package_tests(listing1_package, runs=4, jobs=2, executor="thread")
    assert not barrier.broken
    assert any(len(threads) == 2 for threads in lowered_by.values())
    assert threaded.race_hashes() == serial.race_hashes()
    assert threaded.output == serial.output
    assert threaded.test_failures == serial.test_failures
    PROGRAM_CACHE.clear()
