"""The traced benchmark can wrap every entry point it names, and unwrap it.

``e2e_bench/spans.py`` gets its per-layer breakdown by replacing methods and
functions of the program by name (``ENTRY_POINTS``).  ``install`` reads each
one from its owner's ``__dict__``, so a renamed or deleted entry point makes
``run.py --trace 1`` fail with a ``KeyError``.  These tests catch that in the
program's own suite.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

E2E_BENCH = str(Path(__file__).resolve().parents[1] / "e2e_bench")


@pytest.fixture(scope="module")
def spans():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(E2E_BENCH)
        yield importlib.import_module("spans")


def _owner(module_name, owner_name):
    module = importlib.import_module(module_name)
    return getattr(module, owner_name) if owner_name else module


def _entry_points(spans):
    return [(module_name, owner_name, attr)
            for module_name, owner_name, attr, _, _ in spans.ENTRY_POINTS]


def test_every_entry_point_is_defined_on_its_owner(spans):
    missing = [
        f"{module_name}.{owner_name}.{attr}".replace("..", ".")
        for module_name, owner_name, attr in _entry_points(spans)
        if attr not in _owner(module_name, owner_name).__dict__
    ]
    assert not missing


def test_install_then_uninstall_restores_every_entry_point(spans):
    targets = [(_owner(m, o), attr) for m, o, attr in _entry_points(spans)]
    parser_cls = importlib.import_module("repro.golang.parser").Parser
    targets.append((parser_cls, "__init__"))
    originals = [owner.__dict__[attr] for owner, attr in targets]

    uninstall = spans.install(spans.Tracer())
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
    finally:
        uninstall()
    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))


def _span_counts(tracer):
    counts = {}
    for span in tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts


@pytest.fixture
def traced(spans):
    """A fresh tracer installed on every entry point, with cold caches."""
    parser = importlib.import_module("repro.golang.parser")
    compiler = importlib.import_module("repro.runtime.compiler")
    parser.clear_parse_cache()
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        yield tracer, parser, compiler
    finally:
        uninstall()


def _fresh_source(tag):
    # A name no other test parses, so the parse cache cannot answer it.
    return (f"package attr{tag}\n\nfunc Value{tag}() int {{\n"
            f"\tx := {len(tag)}\n\treturn x + 1\n}}\n")


def test_cold_parse_records_one_lex_and_one_parse_span(traced):
    """The per-layer front-end metrics come from these two spans only: a
    parser that lexed outside ``Lexer.tokenize`` would zero ``lex_self_s``."""
    tracer, parser, _ = traced
    parser.parse_file(_fresh_source("cold"), "cold.go")
    counts = _span_counts(tracer)
    assert counts.get("golang.lex") == 1
    assert counts.get("golang.parse") == 1
    parse = next(s for s in tracer.spans if s.name == "golang.parse")
    assert parse.info.get("source") is not None


def test_two_file_build_records_two_lex_and_two_parse_spans(traced):
    tracer, _, compiler = traced
    harness = importlib.import_module("repro.runtime.harness")
    package = harness.GoPackage(name="attrbuild", files=[
        harness.GoFile("a.go", _fresh_source("builda")),
        harness.GoFile("b.go", _fresh_source("buildb")),
    ])
    compiler.ProgramCache().get_or_build(package)
    counts = _span_counts(tracer)
    assert counts.get("golang.lex") == 2
    assert counts.get("golang.parse") == 2
