"""Patch-aware incremental compilation: the two-level ProgramCache.

Candidate-patch validation rebuilds near-identical packages thousands of
times; the cache therefore derives a new build from the previous build of the
same package name whenever only some function bodies changed — unchanged
functions reuse the donor's parsed AST nodes and compiled closures, changed
functions are re-parsed in isolation at their original line offsets so every
position (and thus every rendered report) matches a cold build bit for bit.
"""

from __future__ import annotations

import threading

import pytest

from repro.runtime.compiler import ProgramCache, _segment_source
from repro.runtime.harness import GoFile, GoPackage
from repro.testing import reset_addresses, run_outcome

BASE_SOURCE = """package inc

import "sync"

var shared = 0

func Pure(n int) int {
\ttotal := 0
\tfor i := 0; i < n; i++ {
\t\ttotal += i
\t}
\treturn total
}

func Bump() {
\tvar mu sync.Mutex
\tmu.Lock()
\tshared++
\tmu.Unlock()
}

func Untouched() int {
\treturn Pure(3)
}
"""

#: ``Bump`` patched (the usual candidate-fix shape); everything else identical.
PATCHED_SOURCE = BASE_SOURCE.replace("\tshared++\n", "\tshared += 2\n")

TEST_SOURCE = """package inc

import "testing"

func TestAll(t *testing.T) {
\tBump()
\tprintln(Pure(4), shared)
}
"""


def _package(lib_source):
    return GoPackage(
        name="inc",
        files=[GoFile("lib.go", lib_source), GoFile("lib_test.go", TEST_SOURCE)],
    )


class TestSegmentation:
    def test_segments_cover_source_and_classify_functions(self):
        segments = _segment_source(BASE_SOURCE)
        assert segments is not None
        kinds = [segment.kind for segment in segments]
        assert kinds.count("func") == 3
        total_lines = sum(segment.n_lines for segment in segments)
        assert total_lines == len(BASE_SOURCE.split("\n"))

    def test_digest_tracks_only_the_changed_function(self):
        base = _segment_source(BASE_SOURCE)
        patched = _segment_source(PATCHED_SOURCE)
        changed = [
            (a.kind, a.start)
            for a, b in zip(base, patched)
            if a.digest != b.digest
        ]
        assert len(changed) == 1
        assert changed[0][0] == "func"

    def test_unbalanced_source_refuses_to_segment(self):
        assert _segment_source("package p\n\nfunc Broken() {\n") is None

    def test_strings_and_comments_do_not_confuse_the_scanner(self):
        tricky = """package p

var s = "func Fake() {"

// func AlsoFake() {
func Real() string {
\treturn `raw } { backtick`
}
"""
        segments = _segment_source(tricky)
        assert segments is not None
        assert sum(1 for segment in segments if segment.kind == "func") == 1


class TestIncrementalBuilds:
    def test_single_function_patch_derives_instead_of_full_build(self):
        cache = ProgramCache(capacity=8)
        base = cache.get_or_build(_package(BASE_SOURCE))
        base_program = base.ensure_program()
        assert base_program is not None
        assert cache.stats()["full_builds"] == 1

        patched = cache.get_or_build(_package(PATCHED_SOURCE))
        assert patched is not base
        stats = cache.stats()
        assert stats["derived_builds"] == 1
        assert stats["full_builds"] == 1

        patched_program = patched.ensure_program()
        assert patched_program is not None
        # Unchanged functions reuse the donor's compiled closures outright.
        assert cache.stats()["unit_hits"] >= 2
        assert cache.stats()["unit_misses"] >= 1
        for decl_file in patched.files:
            for decl in decl_file.func_decls():
                if decl.body is None or decl.name != "Pure":
                    continue
                key = id(decl.body)
                assert key in base_program.code
                assert patched_program.code[key][1] is base_program.code[key][1]

    def test_derived_and_cold_builds_are_bit_identical(self):
        """The harness-level outcome of a derived build must equal a cold
        build exactly — positions survive isolated re-parsing."""
        from repro.runtime.compiler import PROGRAM_CACHE

        PROGRAM_CACHE.clear()
        outcomes = {}
        for arm in ("cold", "derived"):
            PROGRAM_CACHE.clear()
            reset_addresses()
            if arm == "derived":
                # Prime the cache with the base package so the patched
                # package is derived from it, then discard that outcome.
                run_outcome(_package(BASE_SOURCE), 3, "compiled", runs=2)
                reset_addresses()
            before = PROGRAM_CACHE.stats()["derived_builds"]
            outcomes[arm] = run_outcome(_package(PATCHED_SOURCE), 3, "compiled", runs=3)
            derived_delta = PROGRAM_CACHE.stats()["derived_builds"] - before
            assert derived_delta == (1 if arm == "derived" else 0)
        assert outcomes["cold"] == outcomes["derived"]
        PROGRAM_CACHE.clear()

    def test_adding_a_function_falls_back_to_full_build(self):
        cache = ProgramCache(capacity=8)
        cache.get_or_build(_package(BASE_SOURCE)).ensure_program()
        grown = BASE_SOURCE + "\nfunc Extra() int {\n\treturn 9\n}\n"
        cache.get_or_build(_package(grown)).ensure_program()
        stats = cache.stats()
        assert stats["full_builds"] == 2
        assert stats["derived_builds"] == 0

    def test_parse_error_patch_falls_back_to_full_build(self):
        cache = ProgramCache(capacity=8)
        cache.get_or_build(_package(BASE_SOURCE)).ensure_program()
        broken = BASE_SOURCE.replace("\tshared++\n", "\tshared++ ++\n")
        entry = cache.get_or_build(_package(broken))
        assert entry.errors
        assert cache.stats()["derived_builds"] == 0

    def test_eviction_forgets_the_donor(self):
        cache = ProgramCache(capacity=1)
        cache.get_or_build(_package(BASE_SOURCE))
        other = GoPackage(name="other", files=[GoFile("a.go", "package other\n")])
        cache.get_or_build(other)  # evicts the "inc" entry
        assert cache.stats()["evictions"] == 1
        cache.get_or_build(_package(PATCHED_SOURCE))
        stats = cache.stats()
        assert stats["derived_builds"] == 0  # donor gone: full build
        assert stats["full_builds"] == 3

    def test_singleflight_counts_waiters(self):
        cache = ProgramCache(capacity=8)
        package = _package(BASE_SOURCE)
        barrier = threading.Barrier(4)
        results = []

        def build():
            barrier.wait()
            results.append(cache.get_or_build(package))

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(entry) for entry in results}) == 1
        stats = cache.stats()
        assert stats["full_builds"] == 1
        assert stats["hits"] + stats["singleflight_waits"] == 3

    def test_stats_snapshot_has_every_counter(self):
        expected = {
            "entries", "capacity", "hits", "misses", "evictions",
            "singleflight_waits", "full_builds", "derived_builds",
            "unit_hits", "unit_misses",
            "parse_hits", "parse_misses", "parse_entries",
        }
        assert expected == set(ProgramCache(capacity=2).stats())
