"""The content-addressed :class:`ProgramCache`: one full build per fingerprint.

Candidate-patch validation rebuilds near-identical packages many times.  Each
distinct source is one cache miss and one full build; an identical source is a
hit on the same :class:`BuiltPackage`.  These tests pin that contract and the
property the validator relies on: a build never depends on what the cache
held before it, so a patched package behaves exactly as it would from cold.
"""

from __future__ import annotations

from repro.runtime.compiler import PROGRAM_CACHE, ProgramCache, package_fingerprint
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


def _package(lib_source, name="inc"):
    return GoPackage(
        name=name,
        files=[GoFile("lib.go", lib_source), GoFile("lib_test.go", TEST_SOURCE)],
    )


class TestFingerprint:
    def test_fingerprint_covers_name_file_names_and_sources(self):
        base = package_fingerprint(_package(BASE_SOURCE))
        assert base == package_fingerprint(_package(BASE_SOURCE))
        assert base != package_fingerprint(_package(PATCHED_SOURCE))
        assert base != package_fingerprint(_package(BASE_SOURCE, name="other"))
        renamed = GoPackage(name="inc", files=[
            GoFile("main.go", BASE_SOURCE), GoFile("lib_test.go", TEST_SOURCE)])
        assert base != package_fingerprint(renamed)


class TestFullBuilds:
    def test_identical_package_is_a_hit_on_the_same_entry(self):
        cache = ProgramCache(capacity=8)
        first = cache.get_or_build(_package(BASE_SOURCE))
        second = cache.get_or_build(_package(BASE_SOURCE))
        assert second is first
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)

    def test_single_function_patch_is_a_new_full_build(self):
        cache = ProgramCache(capacity=8)
        base = cache.get_or_build(_package(BASE_SOURCE))
        base_program = base.ensure_program()
        patched = cache.get_or_build(_package(PATCHED_SOURCE))
        patched_program = patched.ensure_program()
        assert patched is not base
        assert patched.fingerprint != base.fingerprint
        assert base_program is not None and patched_program is not None
        assert patched_program is not base_program
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 2, 2)
        # Both builds discovered the package's test.
        assert [decl.name for decl in patched.tests] == ["TestAll"]
        assert [decl.name for decl in base.tests] == ["TestAll"]

    def test_patched_build_after_base_equals_a_cold_build(self):
        """A warm cache must not change a patched package's observable outcome."""
        outcomes = {}
        try:
            for arm in ("cold", "warm"):
                PROGRAM_CACHE.clear()
                reset_addresses()
                if arm == "warm":
                    run_outcome(_package(BASE_SOURCE), 3, runs=2)
                    reset_addresses()
                outcomes[arm] = run_outcome(_package(PATCHED_SOURCE), 3, runs=3)
        finally:
            PROGRAM_CACHE.clear()
        assert outcomes["cold"] == outcomes["warm"]

    def test_adding_a_function_builds_and_lowers_a_new_entry(self):
        cache = ProgramCache(capacity=8)
        cache.get_or_build(_package(BASE_SOURCE)).ensure_program()
        grown = BASE_SOURCE + "\nfunc Extra() int {\n\treturn 9\n}\n"
        entry = cache.get_or_build(_package(grown))
        assert entry.ensure_program() is not None
        assert "Extra" in [decl.name for file in entry.files for decl in file.func_decls()]
        assert cache.stats()["misses"] == 2

    def test_parse_error_patch_is_a_build_error_that_leaves_the_base_cached(self):
        cache = ProgramCache(capacity=8)
        base = cache.get_or_build(_package(BASE_SOURCE))
        broken = BASE_SOURCE.replace("\tshared++\n", "\tshared++ ++\n")
        entry = cache.get_or_build(_package(broken))
        assert entry.errors and "lib.go" in entry.errors[0]
        assert entry.ensure_program() is None
        assert cache.get_or_build(_package(BASE_SOURCE)) is base
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 2)

    def test_rebuild_after_eviction_is_a_miss(self):
        cache = ProgramCache(capacity=1)
        first = cache.get_or_build(_package(BASE_SOURCE))
        other = GoPackage(name="other", files=[GoFile("a.go", "package other\n")])
        cache.get_or_build(other)  # evicts the "inc" entry
        assert cache.stats()["evictions"] == 1
        again = cache.get_or_build(_package(BASE_SOURCE))
        assert again is not first
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (0, 3, 1)

    def test_clear_drops_entries_and_counters(self):
        cache = ProgramCache(capacity=8)
        cache.get_or_build(_package(BASE_SOURCE))
        cache.get_or_build(_package(BASE_SOURCE))
        cache.clear()
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"],
                stats["evictions"], stats["singleflight_waits"]) == (0, 0, 0, 0, 0)
        assert stats["parse_entries"] == 0
        assert len(cache) == 0


class TestProgramCache:
    def test_same_source_hits_cache(self):
        package = GoPackage(
            name="cached", files=[GoFile("a.go", "package cached\nfunc A() int { return 1 }\n")]
        )
        first = PROGRAM_CACHE.get_or_build(package)
        second = PROGRAM_CACHE.get_or_build(
            GoPackage(name="cached", files=[GoFile("a.go", package.files[0].source)])
        )
        assert first is second
        # Lowering is lazy: only a request for the program builds it.
        assert first.program is None
        program = first.ensure_program()
        assert program is not None and program.code
        assert first.ensure_program() is program

    def test_fingerprint_tracks_content_and_names(self):
        base = GoPackage(name="p", files=[GoFile("a.go", "package p\n")])
        same = GoPackage(name="p", files=[GoFile("a.go", "package p\n")])
        renamed = GoPackage(name="p", files=[GoFile("b.go", "package p\n")])
        edited = GoPackage(name="p", files=[GoFile("a.go", "package p\nvar x = 1\n")])
        assert package_fingerprint(base) == package_fingerprint(same)
        assert package_fingerprint(base) != package_fingerprint(renamed)
        assert package_fingerprint(base) != package_fingerprint(edited)

    def test_parse_errors_cached_as_build_failures(self):
        package = GoPackage(
            name="syntax", files=[GoFile("bad.go", "package syntax\nfunc ( {\n")]
        )
        build = PROGRAM_CACHE.get_or_build(package)
        assert build.errors and build.program is None
        again = PROGRAM_CACHE.get_or_build(package)
        assert again is build

    def test_stdlib_registration_invalidates_cached_builds(self):
        """Late ``register_package`` shims must not serve stale lowerings.

        Compiled closures freeze stdlib package/member lookups at lowering
        time, so a build made before a registration would not see the new
        package; the cache tags builds with the stdlib generation and
        rebuilds instead."""
        from repro.runtime import stdlib
        from repro.runtime.compiler import ProgramCache

        cache = ProgramCache(capacity=4)
        package = GoPackage(
            name="shimmed",
            files=[GoFile("a.go", "package shimmed\nfunc A() int { return 1 }\n")],
        )
        before = cache.get_or_build(package)
        assert cache.get_or_build(package) is before
        stdlib.register_package("shimpkg", {"Answer": 42})
        after = cache.get_or_build(package)
        assert after is not before
        assert after.stdlib_generation == stdlib.generation()
        assert cache.get_or_build(package) is after

    def test_capacity_evicts_least_recently_used(self):
        from repro.runtime.compiler import ProgramCache

        cache = ProgramCache(capacity=2)
        packages = [
            GoPackage(name=f"p{i}", files=[GoFile("a.go", f"package p{i}\n")])
            for i in range(3)
        ]
        builds = [cache.get_or_build(p) for p in packages]
        assert len(cache) == 2
        # p0 was evicted; rebuilding it yields a fresh entry.
        rebuilt = cache.get_or_build(packages[0])
        assert rebuilt is not builds[0]
        assert rebuilt.fingerprint == builds[0].fingerprint
