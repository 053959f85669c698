"""The shared parse cache and its read-only contract.

``parse_file`` hands every caller that parses the same ``(source, filename)``
the same tree, so no caller may mutate one in place.  The ``audited_cache``
fixture enforces that: it digests each tree when the cache first hands it
out, checks the digest every time the cache hands it out again, and checks
every tree once more when the test ends.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import sys
import threading

import pytest

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.templates import all_templates
from repro.golang import ast_nodes as ast
from repro.golang import parser
from repro.golang.parser import parse_cache_info, parse_file
from repro.golang.printer import print_file
from repro.runtime.compiler import PROGRAM_CACHE
from repro.runtime.harness import GoFile, GoPackage
from repro.testing import reset_addresses, run_outcome

SOURCE = """package demo

import "sync"

var mu sync.Mutex

func Add(xs []int, total *int) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			mu.Lock()
			*total += v
			mu.Unlock()
		}(x)
	}
	wg.Wait()
}
"""

#: Labeled ``break``/``continue`` on three-clause and range loops, nested.
LABELED_SOURCE = """package labels

import "testing"

func Scan(rows [][]int) int {
	found := 0
outer:
	for i := 0; i < len(rows); i++ {
	inner:
		for _, v := range rows[i] {
			if v < 0 {
				continue outer
			}
			if v == 0 {
				break inner
			}
			if v > 100 {
				break outer
			}
			found += v
		}
	}
	return found
}

func TestScan(t *testing.T) {
	done := make(chan int)
	go func() {
		rows := [][]int{[]int{1, 2}, []int{3, -1, 50}, []int{4, 0, 9},
			[]int{5, 200, 7}, []int{8}}
		done <- Scan(rows)
	}()
	println(<-done)
}
"""


def _fields(value):
    """Every dataclass field of the tree, as one nested tuple."""
    if isinstance(value, ast.Node):
        return (type(value).__name__,) + tuple(
            _fields(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, list):
        return tuple(_fields(item) for item in value)
    return value


def _digest(tree: ast.File) -> bytes:
    return hashlib.blake2b(repr(_fields(tree)).encode()).digest()


@pytest.fixture
def audited_cache(monkeypatch):
    """Wrap the parse cache: digest each tree on insert, re-check on every hit."""
    PROGRAM_CACHE.clear()
    shared = parser._parse_shared
    seen = {}  # (source, filename) -> (tree, digest)
    counts = {"hits": 0}

    def audited(source, filename):
        tree = shared(source, filename)
        known = seen.get((source, filename))
        if known is not None and known[0] is tree:
            counts["hits"] += 1
            assert _digest(tree) == known[1], f"a shared AST of {filename} was mutated"
        else:
            seen[(source, filename)] = (tree, _digest(tree))
        return tree

    monkeypatch.setattr(parser, "_parse_shared", audited)
    yield counts
    # A tree mutated after its last hit is caught here.
    for (_, filename), (tree, digest) in seen.items():
        assert _digest(tree) == digest, f"a shared AST of {filename} was mutated"
    PROGRAM_CACHE.clear()


class TestReadOnlyContract:
    def test_every_template_through_fix_case(self, audited_cache):
        config = DrFixConfig(model="gpt-4o")
        templates = all_templates()
        database = ExampleDatabase.from_cases([make(900 + i, 1) for i, make in
                                               enumerate(templates[:6])], config)
        for index, make in enumerate(templates):
            case = make(31 + index, 1)
            DrFix(case.package, config=config, database=database).fix_case(case)
        assert audited_cache["hits"] > 0

    def test_labeled_loops_run_the_same_on_both_engines(self, audited_cache):
        package = GoPackage(name="labels", files=[GoFile("labels_test.go", LABELED_SOURCE)])
        outcomes = []
        for engine in ("compiled", "tree", "compiled"):
            reset_addresses()
            outcomes.append(run_outcome(package, seed=3, engine=engine, runs=4))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0]["output"] == ["15"] * 4 and not outcomes[0]["build_errors"]
        # Labels are parse-time fields; no engine writes one into the tree.
        tree = parse_file(LABELED_SOURCE, "labels_test.go")
        assert all(not hasattr(node, "_label") for node in ast.walk(tree))
        assert [node.label for node in ast.walk(tree)
                if isinstance(node, (ast.ForStmt, ast.RangeStmt))] == ["outer", "inner"]
        assert audited_cache["hits"] > 0

    def test_mutant_corpus_twice_in_one_process(self, audited_cache):
        def corpus():
            cases = CorpusGenerator(CorpusConfig(seed=515, noise_level=1)) \
                .generate_mutant_corpus(24)
            return [(c.case_id, [(f.name, f.source) for f in c.package.files])
                    for c in cases]

        assert corpus() == corpus()
        assert audited_cache["hits"] > 0


class TestClone:
    def test_clone_prints_the_same_and_has_equal_fields(self):
        tree = parse_file(SOURCE, "clone.go")
        copy = ast.clone(tree)
        assert print_file(copy) == print_file(tree)
        assert copy == tree
        assert _fields(copy) == _fields(tree)

    def test_clone_shares_no_node_or_list(self):
        tree = parse_file(SOURCE, "clone.go")
        copy = ast.clone(tree)

        def mutable_ids(node):
            ids = set()
            for sub in ast.walk(node):
                ids.add(id(sub))
                ids.update(id(v) for v in sub.__dict__.values() if isinstance(v, list))
            return ids

        assert not mutable_ids(tree) & mutable_ids(copy)
        # The frozen positions are shared, not copied.
        assert copy.decls[0].pos is tree.decls[0].pos

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="instances keep attributes inline from CPython 3.11")
    def test_walk_and_clone_allocate_no_dicts(self):
        source = all_templates()[0](7, 1).package.files[0].source
        # A first tree of the same source fills the per-class field tables.
        warm = parse_file(source, "warm.go")
        list(ast.walk(warm))
        ast.clone(warm)
        tree = parse_file(source, "fresh.go")
        assert tree is not warm

        def new_dicts(action):
            gc.collect()
            before = {id(o) for o in gc.get_objects() if type(o) is dict}
            result = action()
            created = [o for o in gc.get_objects()
                       if type(o) is dict and id(o) not in before]
            return result, created

        nodes, created = new_dicts(lambda: list(ast.walk(tree)))
        assert len(nodes) > 100 and created == []
        copy, created = new_dicts(lambda: ast.clone(tree))
        assert created == []
        assert copy == tree and _fields(copy) == _fields(tree)

    def test_mutating_a_clone_leaves_the_shared_tree_alone(self):
        tree = parse_file(SOURCE, "clone.go")
        before = print_file(tree)
        copy = ast.clone(tree)
        copy.find_func("Add").body.stmts.clear()
        assert print_file(parse_file(SOURCE, "clone.go")) == before


class TestCache:
    def test_same_source_and_name_share_one_tree(self):
        PROGRAM_CACHE.clear()
        assert parse_file(SOURCE, "a.go") is parse_file(SOURCE, "a.go")
        other = parse_file(SOURCE, "b.go")
        assert other.name == "b.go" and other is not parse_file(SOURCE, "a.go")

    def test_syntax_errors_are_not_cached(self):
        PROGRAM_CACHE.clear()
        for _ in range(2):
            with pytest.raises(Exception, match="expected"):
                parse_file("package p\nfunc F( {}\n", "bad.go")
        assert parse_cache_info().currsize == 0

    def test_program_cache_clear_empties_the_parse_cache(self):
        parse_file(SOURCE, "a.go")
        parse_file(SOURCE, "a.go")
        stats = PROGRAM_CACHE.stats()
        assert stats["parse_entries"] >= 1 and stats["parse_hits"] >= 1
        PROGRAM_CACHE.clear()
        stats = PROGRAM_CACHE.stats()
        assert (stats["parse_entries"], stats["parse_hits"], stats["parse_misses"]) == (0, 0, 0)

    def test_two_threads_parsing_one_source_get_equal_trees(self):
        PROGRAM_CACHE.clear()
        barrier = threading.Barrier(2)
        trees = []

        def parse():
            barrier.wait()
            trees.append(parse_file(SOURCE, "threads.go"))

        threads = [threading.Thread(target=parse) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(trees) == 2 and trees[0] == trees[1]
        assert print_file(trees[0]) == print_file(trees[1])
