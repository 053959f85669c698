"""Differential test: the master-regex lexer against the character scanner.

``reference_lexer.py`` holds the scanner the lexer replaced.  For every input
both must give the same token list (kind, text and position, including the
inserted semicolons and EOF), or the same :class:`GoSyntaxError` (message,
line and column), with comments kept and dropped.  The one intended
difference: where the scanner crashed with ``IndexError`` (a backslash at the
very end of an unterminated string or rune literal), the lexer reports the
unterminated literal at the end of the source.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.templates import all_templates
from repro.errors import GoSyntaxError
from repro.golang.lexer import Lexer
from tests.golang.reference_lexer import Lexer as ReferenceLexer


def _scan(lexer_class, source: str, keep_comments: bool):
    try:
        tokens = lexer_class(source, "f.go").tokenize(keep_comments=keep_comments)
    except GoSyntaxError as error:
        return ("error", error.message, error.line, error.column)
    if lexer_class is Lexer:
        # Parallel lists of kinds, texts and positions.
        return list(zip(*tokens))
    return [(token.kind, token.text, token.pos) for token in tokens]


def _reference(source: str, keep_comments: bool):
    try:
        return _scan(ReferenceLexer, source, keep_comments)
    except IndexError:
        # The scanner read past a backslash that ends the source inside a
        # string or rune literal; without it, the same literal is reported.
        assert source.endswith("\\")
        _, message, _, _ = _scan(ReferenceLexer, source[:-1], keep_comments)
        lines = source.split("\n")
        return ("error", message, len(lines), len(lines[-1]) + 1)


def assert_same_tokens(source: str) -> None:
    for keep_comments in (False, True):
        assert _scan(Lexer, source, keep_comments) == _reference(source, keep_comments), (
            source, keep_comments)


def _package_sources(cases):
    for case in cases:
        for package in (case.package, case.fixed_package):
            for file in package.files:
                yield file.source


class TestCorpus:
    @pytest.mark.parametrize("template", all_templates(), ids=lambda t: t.__name__)
    def test_every_template(self, template):
        for noise_level in (0, 2):
            for source in _package_sources([template(7, noise_level)]):
                assert_same_tokens(source)

    def test_seeded_mutant_sample(self):
        generator = CorpusGenerator(CorpusConfig(seed=1414, noise_level=1))
        cases = generator.generate_mutant_corpus(24, mutants_per_base=2, flip_fraction=0.25)
        sources = set(_package_sources(cases))
        assert len(sources) > 24
        for source in sorted(sources):
            assert_same_tokens(source)


class TestEdgeCases:
    @pytest.mark.parametrize("source", [
        # Numbers.
        "1e", "1e+", "1e-", "1E5", "0x", "0X", "0xg", "0x_f", "0x1.5", ".5", "..5", "...5",
        "1_000", "1__", "1_.5", "1.e5", "1.5.5", "1e5e5", "1.5e", "08", "x1 1x 1x1 _1",
        "a.5", "3..", "1.", "9.99e-3+2",
        # Strings, raw strings and runes.
        '"a\\tb\\n\\x41"', '"\\"', '"\\\\"', '"a\\\nb"', '"a\nb"', '"abc', '"abc\\',
        "`a\nb\nc`", "`open\n", "'x'", "'\\''", "'\\\\'", "'''", "'\n'", "'\\\n'",
        "'ab'", "'", "'\\", "'\\'", "'x", "''",
        # Comments and ASI.
        "x // c\ny", "x /* c */ y", "x /* a\nb */ y", "x /*\n*/", "x /* open",
        "/*/ x */", "/**/x", "/***/", "x/**/\ny", "return\n", "x++\n", "f()\n}\n",
        "a\n\n\nb", "x // trailing", "x \t\r\n\ty \t", " \t",
        # Operators and unexpected characters.
        "a &^= b", "<<= >>= ... &^ <- :=", "a?b", "#", "$", "@", "~", "\\", "x\x0b",
        "é := 1", "π2 := ٣", "x² ½ Ⅳ", "１２", "a b",
    ])
    def test_edge_case(self, source):
        assert_same_tokens(source)


#: Characters of the Go subset, plus a few the lexer must reject.
_ALPHABET = st.sampled_from(list(
    "abcxyzEeXx_019. \t\r\n\n\n+-*/%&|^<>=!()[]{},;:\"'`\\#?é"))
_FRAGMENTS = st.sampled_from([
    "func", "go", "return", "break", "x", "1", "0x1F", "1e+5", "1.5", ".5",
    "//", "/*", "*/", '"', "`", "'", "\\", "\n", " ", "++", "...", "<-", ":=",
])


@st.composite
def _go_like(draw):
    parts = draw(st.lists(st.one_of(_ALPHABET, _FRAGMENTS), max_size=40))
    return "".join(parts)


class TestGenerated:
    @settings(max_examples=400, deadline=None)
    @given(st.text(_ALPHABET, max_size=60))
    def test_random_strings(self, source):
        assert_same_tokens(source)

    @settings(max_examples=400, deadline=None)
    @given(_go_like())
    def test_token_fragments(self, source):
        assert_same_tokens(source)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(['"', "`", "'", "/*"]),
           st.text(st.sampled_from(list("ab \n\\'\"`*/")), max_size=20),
           st.sampled_from(["", '"', "`", "'", "*/", "\n"]))
    def test_literals_and_comments(self, opener, body, closer):
        assert_same_tokens("x := " + opener + body + closer + "\ny")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(list("0123456789_.eExX+-abf")), min_size=1, max_size=12))
    def test_numbers(self, chars):
        assert_same_tokens("x = " + "".join(chars) + "\n")
