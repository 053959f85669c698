"""The generic tree walk: same nodes, same order, any depth.

``ast_nodes.walk`` and ``Node.children`` sit under every analysis, so they
are checked here against the simplest possible definitions, kept in this
file: a recursive pre-order over a children loop that reflects over the
dataclass fields.  Both corpora of the parse golden are walked, plus a tree
far deeper than the interpreter's recursion limit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from repro.runtime.compiler import _bound_names_in

from tests.golang.test_parse_golden import CORPORA, corpus_files


def reference_children(node):
    """Direct child nodes, read from the dataclass fields in order."""
    for f in dataclasses.fields(node):
        if f.name == "pos":
            continue
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


def reference_walk(node):
    """``node`` and every descendant, recursive depth-first pre-order."""
    yield node
    for child in reference_children(node):
        yield from reference_walk(child)


@pytest.fixture(scope="module", params=sorted(CORPORA))
def trees(request):
    return [parse_file(source, name)
            for source, name in corpus_files(request.param).values()]


def test_walk_matches_reference_preorder(trees):
    for tree in trees:
        expected = list(reference_walk(tree))
        actual = list(ast.walk(tree))
        assert len(actual) == len(expected)
        assert all(a is e for a, e in zip(actual, expected)), tree.name


def test_children_match_reflection(trees):
    for tree in trees:
        for node in ast.walk(tree):
            expected = list(reference_children(node))
            actual = list(node.children())
            assert len(actual) == len(expected)
            assert all(a is e for a, e in zip(actual, expected)), type(node).__name__


def test_clone_is_a_fresh_equal_tree(trees):
    for tree in trees[:40]:
        copy = ast.clone(tree)
        assert copy == tree
        pairs = list(zip(ast.walk(copy), ast.walk(tree)))
        assert all(type(a) is type(b) and a.pos is b.pos for a, b in pairs)
        assert not any(a is b for a, b in pairs)


def test_walk_ignores_non_node_list_items():
    # Fields such as ``Field.names`` hold plain strings.
    field = ast.Field(names=["a", "b"], type_=ast.Ident(name="int"))
    assert list(field.children()) == [field.type_]
    assert [type(n).__name__ for n in ast.walk(field)] == ["Field", "Ident"]


def test_walk_sees_a_child_replaced_before_its_parent_is_expanded():
    """A consumer may rewrite a node's fields when the walk yields it; the
    walk then descends into the new children."""
    tree = parse_file("package p\nfunc f() { x := a }\n")
    seen = []
    for node in ast.walk(tree):
        seen.append(node)
        if isinstance(node, ast.AssignStmt):
            node.rhs = [ast.Ident(name="b")]
    assert [n.name for n in seen if isinstance(n, ast.Ident)] == ["x", "b"]


def _deep_sum(terms):
    return "package p\nfunc f() int {\n\treturn " + " + ".join(["1"] * terms) + "\n}\n"


def test_deep_tree_walks_to_completion():
    tree = parse_file(_deep_sum(3000))
    nodes = list(ast.walk(tree))
    assert sum(isinstance(n, ast.BinaryExpr) for n in nodes) == 2999
    assert sum(isinstance(n, ast.BasicLit) for n in nodes) == 3000
    # Pre-order: each left-deep ``+`` comes before the one it contains.
    binaries = [n for n in nodes if isinstance(n, ast.BinaryExpr)]
    assert all(outer.x is inner for outer, inner in zip(binaries, binaries[1:]))


def test_deep_tree_bound_names():
    tree = parse_file(_deep_sum(3000))
    names, depth = _bound_names_in([tree])
    assert depth > 3000
    assert names == frozenset()
