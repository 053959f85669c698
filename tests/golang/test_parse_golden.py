"""Golden parse digests: the parser must keep building the same trees.

Each digest covers one Go file: a dump of every node that
:func:`ast_nodes.walk` yields, in order, with its type, its position and its
scalar fields, plus the shape of its child fields (which ones hold a node,
``None`` or a list, and how long).  Pre-order plus shapes determines the
tree, so any change to what the parser builds, where it says a node starts,
or the order a walk visits it in fails here, naming the file.  Malformed
inputs are pinned by the (message, line, column) of the syntax error.

The fixture covers two corpora: every template at seeds 0 and 11 (both the
racy package and its fixed twin), and the detection golden's 32-mutant
sample drawn at seeds 7 and 19.  Regenerate it only for a change that is
*meant* to change the trees:

    PYTHONPATH=src python tests/golang/test_parse_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.templates import all_templates
from repro.errors import GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_expr, parse_file, parse_stmts

FIXTURE = Path(__file__).with_name("parse_golden.json")

TEMPLATE_SEEDS = (0, 11)
MUTANT_SEEDS = (7, 19)

#: (entry point, source) pairs that must fail with a pinned syntax error,
#: taken from the parser and lexer suites plus one per parser error message.
MALFORMED = (
    ("file", "func F() {}\n"),
    ("expr", "1 + 2 }"),
    ("file", "package p\nfunc f() {\n\ta := $b\n}\n"),
    ("file", "package p\n/* never closed"),
    ("file", 'package p\nvar s = "oops\n'),
    ("file", "package p\nvar s = `raw\n"),
    ("file", "package p\nvar r = 'ab'\n"),
    ("file", "package p\nfunc f() {\n\tx := \n}\n"),
    ("file", "package p\nfunc f() {\n\tif x {\n}\n"),
    ("file", "package p\nfunc f( {\n}\n"),
    ("file", "package p\ntype T[ struct{}\n"),
    ("file", "package p\nfunc F[T any(x int) {}\n"),
    ("file", "package p\nfunc f() {\n\tswitch x {\n\tfoo:\n\t}\n}\n"),
    ("file", "package p\nfunc f() {\n\ta, b\n}\n"),
    ("file", "package p\nfunc f() {\n\tif x := 1 {\n\t}\n}\n"),
    ("file", "package p\nfunc f() {\n\tfor x := 1 {\n\t}\n}\n"),
    ("file", "package p\n42\n"),
    ("file", "package p\nimport fmt\n"),
    ("file", "package p\ntype T struct {\n\ta int b\n}\n"),
    ("file", "package p\nfunc f() {\n\tv := x.(\n}\n"),
    ("expr", "a[1:"),
    ("file", "package p\ntype I interface {\n\t1\n}\n"),
    ("file", "package p; func f() { x := map[int }"),
    ("stmts", "select {\nfoo:\n\ty()\n}"),
    ("file", "package p\nfunc f() {\n\tgo func() {\n}\n"),
)

_ENTRY = {"file": parse_file, "expr": parse_expr, "stmts": parse_stmts}


def _field_shape(value):
    if isinstance(value, ast.Node):
        return "node"
    if isinstance(value, list):
        return [_field_shape(item) for item in value]
    return value


def dump(tree):
    """Every node ``walk`` yields: type, position, scalar fields, and the
    shape of its node-valued fields, in declaration order."""
    rows = []
    for node in ast.walk(tree):
        row = [type(node).__name__, node.pos.line, node.pos.column]
        for f in dataclasses.fields(node):
            if f.name != "pos":
                row.append([f.name, _field_shape(getattr(node, f.name))])
        rows.append(row)
    return rows


def digest(tree):
    payload = json.dumps(dump(tree), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def template_cases():
    for seed in TEMPLATE_SEEDS:
        for template in all_templates():
            yield f"template@{seed}", template(seed, 2)


def mutant_cases():
    for seed in MUTANT_SEEDS:
        generator = CorpusGenerator(CorpusConfig(seed=seed, noise_level=1))
        for case in generator.generate_mutant_corpus(32, mutants_per_base=4):
            yield f"mutant@{seed}", case


CORPORA = {"templates": template_cases, "mutants": mutant_cases}


def corpus_files(corpus):
    """``{key: (source, filename)}`` for every file of ``corpus``."""
    files = {}
    for label, case in CORPORA[corpus]():
        for side, package in (("racy", case.package), ("fixed", case.fixed_package)):
            for go_file in package.files:
                key = f"{label}/{case.case_id}/{side}/{go_file.name}"
                files.setdefault(key, (go_file.source, go_file.name))
    return files


def parse_corpus(corpus):
    return {key: digest(parse_file(source, name))
            for key, (source, name) in corpus_files(corpus).items()}


def malformed_outcomes():
    outcomes = []
    for entry, source in MALFORMED:
        try:
            _ENTRY[entry](source)
        except GoSyntaxError as error:
            outcomes.append([entry, source, error.message, error.line, error.column])
        else:
            outcomes.append([entry, source, None, 0, 0])
    return outcomes


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_trees_match_golden(corpus, golden):
    expected = golden[corpus]
    actual = parse_corpus(corpus)
    assert len(actual) >= 60
    assert sorted(actual) == sorted(expected), "file set changed"
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"{len(moved)} trees changed: {moved[:10]}"


def test_malformed_inputs_match_golden(golden):
    actual = malformed_outcomes()
    assert all(message is not None for _, _, message, _, _ in actual)
    assert actual == golden["malformed"]


def test_dump_moves_with_position_and_shape():
    base = parse_file("package p\nfunc f() { x := a + b }\n")
    moved = parse_file("package p\nfunc f() {  x := a + b }\n")
    regrouped = parse_file("package p\nfunc f() { x := (a + b) }\n")
    assert digest(base) != digest(moved)
    assert digest(base) != digest(regrouped)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_parse_golden.py --regenerate")
    fixture = {corpus: parse_corpus(corpus) for corpus in sorted(CORPORA)}
    fixture["malformed"] = malformed_outcomes()
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {sum(len(fixture[c]) for c in CORPORA)} digests and "
          f"{len(fixture['malformed'])} errors to {FIXTURE}")
