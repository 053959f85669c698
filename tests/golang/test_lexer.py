"""Tests for the Go-subset lexer."""

import gc
import time

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.errors import GoSyntaxError
from repro.golang import lexer
from repro.golang.lexer import Lexer, tokenize
from repro.golang.tokens import TokenKind


def kinds(source: str, keep_semicolons: bool = False):
    skip = {TokenKind.EOF} if keep_semicolons else {TokenKind.EOF, TokenKind.SEMICOLON}
    return [t.kind for t in tokenize(source) if t.kind not in skip]


def texts(source: str):
    return [
        t.text
        for t in tokenize(source)
        if t.kind not in (TokenKind.EOF, TokenKind.SEMICOLON)
    ]


class TestBasicTokens:
    def test_keywords_are_recognized(self):
        assert kinds("go func select chan defer") == [
            TokenKind.GO, TokenKind.FUNC, TokenKind.SELECT, TokenKind.CHAN, TokenKind.DEFER,
        ]

    def test_identifiers_and_ints(self):
        tokens = tokenize("limit := 42")
        assert tokens[0].kind is TokenKind.IDENT and tokens[0].text == "limit"
        assert tokens[1].kind is TokenKind.DEFINE
        assert tokens[2].kind is TokenKind.INT and tokens[2].text == "42"

    def test_hex_and_underscored_ints(self):
        assert texts("0xFF 1_000") == ["0xFF", "1_000"]

    def test_float_literals(self):
        tokens = tokenize("x = 1e3 + 2.5")
        assert tokens[2].kind is TokenKind.FLOAT
        assert tokens[4].kind is TokenKind.FLOAT

    def test_string_literal_with_escapes(self):
        tokens = tokenize('s := "a\\tb\\n"')
        assert tokens[2].kind is TokenKind.STRING
        assert tokens[2].text == "a\tb\n"

    def test_raw_string_literal(self):
        tokens = tokenize("s := `raw "
                          "text`")
        assert tokens[2].kind is TokenKind.STRING

    def test_rune_literal(self):
        tokens = tokenize("r := 'x'")
        assert tokens[2].kind is TokenKind.CHAR and tokens[2].text == "x"

    def test_positions_are_tracked(self):
        tokens = tokenize("a := 1\nb := 2")
        b_token = [t for t in tokens if t.text == "b"][0]
        assert b_token.line == 2 and b_token.column == 1


class TestOperators:
    @pytest.mark.parametrize(
        "source, kind",
        [
            ("<-", TokenKind.ARROW),
            (":=", TokenKind.DEFINE),
            ("==", TokenKind.EQL),
            ("!=", TokenKind.NEQ),
            ("&&", TokenKind.LAND),
            ("||", TokenKind.LOR),
            ("++", TokenKind.INC),
            ("--", TokenKind.DEC),
            ("+=", TokenKind.ADD_ASSIGN),
            ("...", TokenKind.ELLIPSIS),
            ("&^", TokenKind.AND_NOT),
            ("<<", TokenKind.SHL),
        ],
    )
    def test_multi_character_operators(self, source, kind):
        assert kinds(source) == [kind]

    def test_channel_receive_in_context(self):
        assert TokenKind.ARROW in kinds("value := <-ch")

    def test_unknown_character_raises(self):
        with pytest.raises(GoSyntaxError):
            tokenize("a := $b")


class TestSemicolonInsertion:
    def test_newline_after_identifier_inserts_semicolon(self):
        result = kinds("x := 1\ny := 2", keep_semicolons=True)
        assert result.count(TokenKind.SEMICOLON) == 2

    def test_newline_after_operator_does_not_insert(self):
        result = kinds("x := 1 +\n2", keep_semicolons=True)
        # Only the final newline terminates the statement.
        assert result.count(TokenKind.SEMICOLON) == 1

    def test_newline_after_closing_brace_inserts(self):
        result = kinds("f()\n}", keep_semicolons=True)
        assert TokenKind.SEMICOLON in result

    def test_return_followed_by_newline(self):
        result = kinds("return\nx := 1", keep_semicolons=True)
        assert result[1] is TokenKind.SEMICOLON


class TestComments:
    def test_line_comments_are_skipped_by_default(self):
        assert TokenKind.COMMENT not in kinds("x := 1 // a comment")

    def test_line_comments_kept_when_requested(self):
        tokens = tokenize("x := 1 // note", keep_comments=True)
        assert any(t.kind is TokenKind.COMMENT for t in tokens)

    def test_block_comment(self):
        assert texts("a /* hidden */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(GoSyntaxError):
            tokenize("/* never closed")

    def test_unterminated_string_raises(self):
        with pytest.raises(GoSyntaxError):
            tokenize('s := "oops')


class TestHostileInput:
    @pytest.mark.parametrize("source", [
        "x" + " \t" * 50_000,
        "/*" + "*a" * 50_000,
        '"' + "\\a" * 50_000,
        "1_" * 50_000,
    ], ids=["trailing-blanks", "open-comment", "open-string", "long-number"])
    def test_long_input_scans_in_linear_time(self, source):
        # A master pattern that backtracked into trailing blanks took tens
        # of seconds on inputs a tenth of this size.
        start = time.perf_counter()
        try:
            tokenize(source)
        except GoSyntaxError:
            pass
        assert time.perf_counter() - start < 2.0

    def test_position_table_stays_bounded(self):
        tokenize("x\n" * 20_000 + "\n" * 100_000 + "y")
        assert len(lexer._POSITIONS) <= lexer._POSITIONS_MAX
        assert sum(map(len, lexer._POSITIONS.values())) <= lexer._POSITIONS_MAX

    def test_positions_are_shared_and_immutable(self):
        first, second = tokenize("a"), tokenize("a")
        assert first[0].pos is second[0].pos
        with pytest.raises(AttributeError):
            first[0].pos.line = 2


class TestAllocation:
    def test_tokenizing_the_corpus_starts_no_collection(self, monkeypatch):
        """A scan allocates its result (three lists in a tuple) and no object
        per token that the cyclic collector tracks, so scans that keep their
        results start no young collection.  A young collection between
        windows of files stands in for the rest of a pass: a window's
        results stay well under the threshold, while one ``Token`` per token
        crossed it about every two files."""
        cases = CorpusGenerator(CorpusConfig(seed=11)).generate_mutant_corpus(200)
        sources = sorted({file.source for case in cases
                          for package in (case.package, case.fixed_package)
                          for file in package.files})
        for source in sources:
            Lexer(source).tokenize()  # intern every position first
        scanning = []
        real = Lexer.tokenize

        def flagged(self, *args, **kwargs):
            scanning.append(True)
            try:
                return real(self, *args, **kwargs)
            finally:
                scanning.pop()

        collections = []

        def on_gc(phase, info):
            if phase == "start" and scanning:
                collections.append(info["generation"])

        monkeypatch.setattr(Lexer, "tokenize", flagged)
        window = gc.get_threshold()[0] // 8
        kept = []
        gc.callbacks.append(on_gc)
        try:
            for index, source in enumerate(sources):
                if index % window == 0:
                    gc.collect(0)
                kept.append(Lexer(source).tokenize())
        finally:
            gc.callbacks.remove(on_gc)
        assert len(sources) > 2 * window
        assert collections == []
