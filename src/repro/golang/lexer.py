"""Tokenizer for the Go subset, including automatic semicolon insertion.

The lexer follows the Go specification closely enough for the corpus programs
used in this reproduction: identifiers, keywords, integer/float/string/rune
literals, all operators used by the subset, line (`//`) and block (`/* */`)
comments, and the automatic-semicolon-insertion (ASI) rule — a newline
terminates a statement when the last token on the line is an identifier, a
literal, one of ``break continue fallthrough return``, one of ``++ --``, or one
of ``) ] }``.

Scanning is one compiled master regular expression: each match is optional
blanks followed by exactly one token, and ``m.lastindex`` names the
alternative that matched.  The alternatives are ordered by how often they
match (identifiers, operators, newlines), with lookaheads where an earlier
alternative would take a later one's prefix.  Letters and digits are what
``str.isalpha`` and ``str.isdigit`` say they are; an ASCII source uses the
pattern with ASCII classes, any other source a pattern built once with the
Unicode classes.

:meth:`Lexer.tokenize` returns three parallel lists (kinds, texts and
positions) rather than one object per token: the kinds are enum members and
the positions interned :class:`Position` objects, so a scan allocates no
container the cyclic collector tracks per token.  Positions are shared
between tokens and AST nodes, which is safe only because they are
immutable.  The module-level :func:`tokenize` wraps the lists in
:class:`Token` views for tests and tools.
"""

from __future__ import annotations

import functools
import re
import sys
from typing import Dict, List, Tuple

from repro.errors import GoSyntaxError
from repro.golang.tokens import KEYWORDS, Position, Token, TokenKind

#: Token kinds after which a newline triggers automatic semicolon insertion.
_ASI_KINDS = {
    TokenKind.IDENT,
    TokenKind.INT,
    TokenKind.FLOAT,
    TokenKind.STRING,
    TokenKind.CHAR,
    TokenKind.BREAK,
    TokenKind.CONTINUE,
    TokenKind.FALLTHROUGH,
    TokenKind.RETURN,
    TokenKind.INC,
    TokenKind.DEC,
    TokenKind.RPAREN,
    TokenKind.RBRACK,
    TokenKind.RBRACE,
}

# Operator spellings, longest first: the regex alternation, like a greedy
# scanner, takes the first spelling that matches.
_OPERATORS = [
    "<<=", ">>=", "...",
    "&^", "<-", "++", "--", "==", "!=", "<=", ">=", ":=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "=", "!",
    "(", ")", "[", "]", "{", "}", ",", ";", ":", ".",
]

#: Spelling -> (kind, whether a newline after it inserts a semicolon), for
#: keywords and operators; any other word is an identifier.
_WORDS: Dict[str, Tuple[TokenKind, bool]] = {
    text: (kind, kind in _ASI_KINDS) for text, kind in KEYWORDS.items()
}
_OPS: Dict[str, Tuple[TokenKind, bool]] = {
    text: (TokenKind(text), TokenKind(text) in _ASI_KINDS) for text in _OPERATORS
}
_IDENTIFIER = (TokenKind.IDENT, True)
_SEMICOLON, _COMMENT, _INT_KIND, _FLOAT_KIND = (
    TokenKind.SEMICOLON, TokenKind.COMMENT, TokenKind.INT, TokenKind.FLOAT)

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", '"': '"', "'": "'", "0": "\0"}
_ESCAPE = re.compile(r"\\(.)", re.S)


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


# Master-pattern alternatives, numbered by capture group and ordered by how
# often they match.  The unexpected-character alternative never matches a
# blank, and ``\Z`` ends the scan after trailing blanks: a match can never
# give blanks back and retry, which on trailing blanks would make the scan
# quadratic.
(_IDENT, _OPERATOR, _NEWLINE, _LINE_COMMENT, _BLOCK_COMMENT, _FLOAT, _INT, _STRING,
 _RAW_STRING, _RUNE, _UNTERMINATED, _UNEXPECTED, _END) = range(1, 14)

_MASTER_TEMPLATE = r"""[ \t\r]*(?:
    ([{L}]\w*)
  | ({OPS})
  | (\n)
  | (//[^\n]*)
  | (/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | ((?:[{D}][{D}_]*)?\.[{D}]+(?:[eE](?:[+-][{D}]*|[{D}]+))?
     | [{D}][{D}_]*[eE](?:[+-][{D}]*|[{D}]+))
  | (0[xX][0-9a-fA-F_]*|[{D}][{D}_]*)
  | ("[^"\\\n]*(?:\\.[^"\\\n]*)*")
  | (`[^`]*`)
  | ('(?:\\.|[^\\])')
  | (["'`]|/\*)
  | ([^ \t\r])
  | (\Z)
)"""

#: One-character delimiters that start no longer operator: most operator
#: matches, tried first as one character class.
_DELIMITERS = "{}()[],;"


def _compile_master(letters: str, digits: str) -> re.Pattern:
    # Operators come before comments and numbers: "/" must leave a comment
    # its match, and "." a float.
    lookaheads = {"/": "(?![/*])", ".": f"(?![{digits}])"}
    ops = "|".join([f"[{re.escape(_DELIMITERS)}]"] + [
        re.escape(op) + lookaheads.get(op, "") for op in _OPERATORS if op not in _DELIMITERS])
    return re.compile(_MASTER_TEMPLATE.format(L=letters, D=digits, OPS=ops), re.S | re.X)


_ASCII_MASTER = _compile_master("A-Za-z_", "0-9")

# Where an unterminated literal's error is reported: after its longest prefix.
_STRING_PREFIX = re.compile(r'"[^"\\\n]*(?:\\.[^"\\\n]*)*\\?', re.S)
_RUNE_PREFIX = re.compile(r"'(?:\\.?|.)?", re.S)
_UNTERMINATED_MESSAGE = {
    '"': "unterminated string literal",
    "`": "unterminated raw string literal",
    "'": "unterminated rune literal",
    "/*": "unterminated block comment",
}


def _char_class(chars: List[str]) -> str:
    """Regex character-class body matching exactly ``chars`` (sorted)."""
    parts: List[str] = []
    start = prev = ord(chars[0])
    for code in [ord(ch) for ch in chars[1:]] + [-1]:
        if code != prev + 1:
            parts.append(re.escape(chr(start)) + ("-" + re.escape(chr(prev)) if prev > start else ""))
            start = code
        prev = code
    return "".join(parts)


@functools.cache
def _unicode_master() -> re.Pattern:
    """The master pattern with ``str.isalpha``/``str.isdigit`` classes over
    all of Unicode, built on the first non-ASCII source."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    # Word characters other than "_" and decimal digits: the letters, and
    # numerics such as "²" or "½" that are not letters.
    others = re.findall(r"[^\W\d_]", every)
    letters = [ch for ch in others if ch.isalpha()] + ["_"]
    digits = re.findall(r"\d", every) + [ch for ch in others if ch.isdigit()]
    return _compile_master(_char_class(sorted(letters)), _char_class(sorted(digits)))


#: Interned positions by line and then column, shared by every token at the
#: same place.  A scan looks a line's row up once, so a token's lookup is by
#: column alone.  Bounded so that hostile input cannot grow it without
#: limit: a row is made only for a new position, and past ``_POSITIONS_MAX``
#: positions the table starts over (a scan still holding a dropped row gets
#: equal, unshared positions from it).
_POSITIONS: Dict[int, Dict[int, Position]] = {}
_POSITIONS_MAX = 1 << 14
_interned = 0
#: The row of a line that has no interned position yet (never written).
_NO_ROW: Dict[int, Position] = {}


def _position(line: int, column: int) -> Position:
    global _interned
    row = _POSITIONS.setdefault(line, {})
    pos = row.get(column)
    if pos is None:
        if _interned >= _POSITIONS_MAX:
            _POSITIONS.clear()
            _interned = 0
            row = _POSITIONS.setdefault(line, {})
        pos = row[column] = Position(line, column)
        _interned += 1
    return pos


class Lexer:
    """Convert Go source text into parallel lists of token kinds, texts and
    positions."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename

    def tokenize(self, keep_comments: bool = False
                 ) -> Tuple[List[TokenKind], List[str], List[Position]]:
        """Scan the full source into ``(kinds, texts, positions)``, one entry
        per token in each list, ending with EOF."""
        source = self.source
        master = _ASCII_MASTER if source.isascii() else _unicode_master()
        kinds: List[TokenKind] = []
        texts: List[str] = []
        positions: List[Position] = []
        add_kind, add_text, add_pos = kinds.append, texts.append, positions.append
        rows = _POSITIONS
        line, line_start = 1, 0
        row = rows.get(1, _NO_ROW)
        # Whether the last non-comment token lets a newline insert a semicolon.
        asi = False
        for m in master.finditer(source):
            group = m.lastindex
            if group == _NEWLINE:
                end = m.end()
                if asi:
                    add_kind(_SEMICOLON)
                    add_text("\n")
                    add_pos(_position(line, end - line_start))
                    asi = False
                line += 1
                line_start = end
                row = rows.get(line, _NO_ROW)
                continue
            start = m.start(group)
            text = m[group]
            column = start - line_start + 1
            pos = row.get(column) or _position(line, column)
            if group == _IDENT:
                kind, asi = _WORDS.get(text, _IDENTIFIER)
            elif group == _OPERATOR:
                kind, asi = _OPS[text]
            elif group == _INT:
                kind, asi = _INT_KIND, True
            elif group == _FLOAT:
                kind, asi = _FLOAT_KIND, True
            elif group == _LINE_COMMENT:
                if keep_comments:
                    add_kind(_COMMENT)
                    add_text(text)
                    add_pos(pos)
                continue
            elif group == _UNTERMINATED or group == _UNEXPECTED:
                raise self._error(text, start)
            elif group == _END:
                break
            else:
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
                    row = rows.get(line, _NO_ROW)
                if group == _BLOCK_COMMENT:
                    if keep_comments:
                        add_kind(_COMMENT)
                        add_text(text)
                        add_pos(pos)
                    if asi and "\n" in text:
                        # A block comment containing a newline acts like a newline.
                        add_kind(_SEMICOLON)
                        add_text("\n")
                        add_pos(_position(line, start + len(text) - line_start + 1))
                        asi = False
                    continue
                asi = True
                if group == _RUNE:
                    kind, text = TokenKind.CHAR, text[1:-1]
                    if len(text) == 2:
                        text = _ESCAPES.get(text[1], text[1])
                else:
                    kind, text = TokenKind.STRING, text[1:-1]
                    if group == _STRING and "\\" in text:
                        text = _ESCAPE.sub(_unescape, text)
            add_kind(kind)
            add_text(text)
            add_pos(pos)
        eof = _position(line, len(source) - line_start + 1)
        if asi:
            add_kind(_SEMICOLON)
            add_text("\n")
            add_pos(eof)
        add_kind(TokenKind.EOF)
        add_text("")
        add_pos(eof)
        return kinds, texts, positions

    def _error(self, text: str, offset: int) -> GoSyntaxError:
        """The error for the match ``text`` at ``offset``: an unterminated
        literal or comment, reported where the scan stops, or an unexpected
        character, reported where it is."""
        source = self.source
        message = _UNTERMINATED_MESSAGE.get(text)
        if message is None:
            message = f"unexpected character {text!r}"
        elif text == '"':
            offset = _STRING_PREFIX.match(source, offset).end()
        elif text == "'":
            offset = _RUNE_PREFIX.match(source, offset).end()
        else:
            offset = len(source)
        line = source.count("\n", 0, offset) + 1
        column = offset - source.rfind("\n", 0, offset)
        return GoSyntaxError(message, self.filename, line, column)


def tokenize(source: str, filename: str = "<source>", keep_comments: bool = False) -> List[Token]:
    """Tokenize ``source`` into :class:`Token` views, for tests and tools (the
    parser reads :meth:`Lexer.tokenize`'s lists)."""
    return list(map(Token, *Lexer(source, filename).tokenize(keep_comments)))
