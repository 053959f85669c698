"""Corpus-wide differential test: compiled engine ≡ tree-walk, bit for bit.

The compile-once engine (``repro.runtime.compiler``) must be observationally
indistinguishable from the reference tree-walking interpreter: same rendered
race reports (including cell addresses), same test failures, same program
output, same build errors — for every corpus template, across seeds, across
every scheduler policy.  Any divergence is a bug in the lowering pass; CI
fails on it.

Cell addresses come from a process-global counter, so each engine's sweep
starts from a reset counter — identical allocation *order* (which the
compiler guarantees) then yields identical addresses.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.runtime.compiler import PROGRAM_CACHE, package_fingerprint
from repro.runtime.harness import GoFile, GoPackage, run_package_tests
from repro.testing import reset_addresses as _reset_addresses
from repro.testing import run_outcome

# Tree-vs-compiled comparisons force slicing OFF: the fully instrumented
# compiled lowering is the one that is bit-identical to the tree-walk
# (slicing elides schedule points, which legitimately changes seeded
# schedules; its own equivalence suite is test_slicing_equivalence.py).
_outcome = partial(run_outcome, slicing=False)

SEEDS = (0, 11)


@pytest.fixture(scope="module")
def dataset():
    return CorpusGenerator(CorpusConfig()).generate()


class TestCompiledEngineDifferential:
    def test_full_corpus_bit_identical_across_policies_and_seeds(self, dataset):
        """Every template × seed × all five scheduler policies: identical."""
        cases = dataset.evaluation + dataset.db_examples
        sweeps = {}
        for engine in ("tree", "compiled"):
            _reset_addresses()
            sweeps[engine] = [
                (case.case_id, seed, _outcome(case.package, seed, engine))
                for case in cases
                for seed in SEEDS
            ]
        for tree_row, compiled_row in zip(sweeps["tree"], sweeps["compiled"]):
            assert tree_row == compiled_row, (
                f"engine divergence on case={tree_row[0]} seed={tree_row[1]}"
            )

    def test_mutant_corpus_bit_identical(self):
        """≥30 mutation-engine cases (renames, reorders, workload and channel
        variations, sync-injected negatives) run bit-identically on both
        engines — the mutation operators must not exercise any construct the
        compiler lowers differently from the tree-walk."""
        generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
        cases = generator.generate_mutant_corpus(32, mutants_per_base=4)
        assert len(cases) >= 30
        assert any(case.base_case_id for case in cases)
        sweeps = {}
        for engine in ("tree", "compiled"):
            _reset_addresses()
            sweeps[engine] = [
                (case.case_id, _outcome(case.package, 7, engine, runs=3))
                for case in cases
            ]
        for tree_row, compiled_row in zip(sweeps["tree"], sweeps["compiled"]):
            assert tree_row == compiled_row, (
                f"engine divergence on mutant case={tree_row[0]}"
            )

    def test_entry_functions_and_build_errors_identical(self, dataset):
        broken = GoPackage(
            name="broken",
            files=[GoFile("lib.go", "package broken\nfunc Broken( {\n")],
        )
        entry_pkg = GoPackage(
            name="entry",
            files=[GoFile("main.go", """package entry

var total = 0

func Bump() {
\tfor i := 0; i < 3; i++ {
\t\ttotal += i
\t}
\tprintln(total)
}
""")],
        )
        outcomes = {}
        for engine in ("tree", "compiled"):
            _reset_addresses()
            broken_result = run_package_tests(broken, runs=2, engine=engine)
            entry_result = run_package_tests(
                entry_pkg, runs=3, engine=engine, entry_functions=["Bump"]
            )
            outcomes[engine] = (
                broken_result.build_errors,
                entry_result.output,
                entry_result.test_failures,
            )
        assert outcomes["tree"] == outcomes["compiled"]
        assert outcomes["tree"][0]  # the broken package really failed to build


class TestMultiAssignPadding:
    def test_overlong_comma_ok_targets_pad_identically(self):
        """``v, ok, extra := m[k]`` declares extra as nil on BOTH engines.

        Comma-ok forms return exactly two values however many targets there
        are; the reference pads with ``None`` unconditionally, and the
        compiled engine must too (regression: the spread branch once skipped
        the padding, leaving the third target undeclared)."""
        package = GoPackage(
            name="pad",
            files=[GoFile("pad_test.go", """package pad

import "testing"

func TestPad(t *testing.T) {
\tm := map[string]int{"a": 1}
\tv, ok, extra := m["a"]
\tprintln(v, ok, extra)
}
""")],
        )
        outcomes = {}
        for engine in ("tree", "compiled"):
            _reset_addresses()
            result = run_package_tests(package, runs=2, engine=engine)
            outcomes[engine] = (result.output, result.test_failures, result.build_errors)
        assert outcomes["tree"] == outcomes["compiled"]
        assert not outcomes["tree"][1]  # no failures: extra padded to nil


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
        # Lowering is lazy: only a compiled-engine request builds the program.
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
        time, so a build made before a registration would diverge from the
        tree-walk; the cache tags builds with the stdlib generation and
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
