"""Reference oracle for the lexer differential test: a character-at-a-time scanner.

This is the scanner that ``repro.golang.lexer`` replaced, kept verbatim as
test code so that ``test_lexer_differential.py`` can check the master-regex
lexer against it token for token.  It is not used by the program.

The scanner follows the Go specification closely enough for the corpus
programs: identifiers, keywords, integer/float/string/rune literals, all
operators used by the subset, line (`//`) and block (`/* */`) comments, and
the automatic-semicolon-insertion (ASI) rule.
"""

from __future__ import annotations

from typing import Iterator, List

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

_SIMPLE_OPS = {
    "+": TokenKind.ADD,
    "-": TokenKind.SUB,
    "*": TokenKind.MUL,
    "/": TokenKind.QUO,
    "%": TokenKind.REM,
    "&": TokenKind.AND,
    "|": TokenKind.OR,
    "^": TokenKind.XOR,
    "<": TokenKind.LSS,
    ">": TokenKind.GTR,
    "=": TokenKind.ASSIGN,
    "!": TokenKind.NOT,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACK,
    "]": TokenKind.RBRACK,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    ":": TokenKind.COLON,
    ".": TokenKind.PERIOD,
}

# Multi-character operators ordered longest-first so greedy matching is correct.
_MULTI_OPS = [
    ("<<=", TokenKind.SHL_ASSIGN),
    (">>=", TokenKind.SHR_ASSIGN),
    ("...", TokenKind.ELLIPSIS),
    ("&^", TokenKind.AND_NOT),
    ("<-", TokenKind.ARROW),
    ("++", TokenKind.INC),
    ("--", TokenKind.DEC),
    ("==", TokenKind.EQL),
    ("!=", TokenKind.NEQ),
    ("<=", TokenKind.LEQ),
    (">=", TokenKind.GEQ),
    (":=", TokenKind.DEFINE),
    ("&&", TokenKind.LAND),
    ("||", TokenKind.LOR),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("+=", TokenKind.ADD_ASSIGN),
    ("-=", TokenKind.SUB_ASSIGN),
    ("*=", TokenKind.MUL_ASSIGN),
    ("/=", TokenKind.QUO_ASSIGN),
    ("%=", TokenKind.REM_ASSIGN),
    ("&=", TokenKind.AND_ASSIGN),
    ("|=", TokenKind.OR_ASSIGN),
    ("^=", TokenKind.XOR_ASSIGN),
]


class Lexer:
    """Convert Go source text into a list of :class:`Token` objects."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.source = source
        self.filename = filename
        self._pos = 0
        self._line = 1
        self._col = 1
        self._tokens: List[Token] = []
        self._keep_comments = False

    # -- low-level character helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index >= len(self.source):
            return ""
        return self.source[index]

    def _advance(self) -> str:
        ch = self.source[self._pos]
        self._pos += 1
        if ch == "\n":
            self._line += 1
            self._col = 1
        else:
            self._col += 1
        return ch

    def _position(self) -> Position:
        return Position(self._line, self._col)

    def _error(self, message: str) -> GoSyntaxError:
        return GoSyntaxError(message, self.filename, self._line, self._col)

    # -- token emission ---------------------------------------------------------------

    def _emit(self, kind: TokenKind, text: str, pos: Position) -> None:
        self._tokens.append(Token(kind, text, pos))

    def _last_real_token(self) -> Token | None:
        for token in reversed(self._tokens):
            if token.kind is not TokenKind.COMMENT:
                return token
        return None

    def _maybe_insert_semicolon(self) -> None:
        last = self._last_real_token()
        if last is not None and last.kind in _ASI_KINDS:
            self._emit(TokenKind.SEMICOLON, "\n", Position(self._line, self._col))

    # -- scanning ---------------------------------------------------------------------

    def tokenize(self, keep_comments: bool = False) -> List[Token]:
        """Scan the full source and return the token list (ending with EOF)."""
        self._keep_comments = keep_comments
        while self._pos < len(self.source):
            ch = self._peek()
            if ch == "\n":
                self._maybe_insert_semicolon()
                self._advance()
            elif ch in " \t\r":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                self._scan_line_comment()
            elif ch == "/" and self._peek(1) == "*":
                self._scan_block_comment()
            elif ch.isalpha() or ch == "_":
                self._scan_identifier()
            elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                self._scan_number()
            elif ch == '"':
                self._scan_string()
            elif ch == "`":
                self._scan_raw_string()
            elif ch == "'":
                self._scan_char()
            else:
                self._scan_operator()
        self._maybe_insert_semicolon()
        self._emit(TokenKind.EOF, "", Position(self._line, self._col))
        return self._tokens

    def _scan_line_comment(self) -> None:
        pos = self._position()
        text_chars: List[str] = []
        while self._pos < len(self.source) and self._peek() != "\n":
            text_chars.append(self._advance())
        if self._keep_comments:
            self._emit(TokenKind.COMMENT, "".join(text_chars), pos)

    def _scan_block_comment(self) -> None:
        pos = self._position()
        text_chars: List[str] = [self._advance(), self._advance()]  # consume '/*'
        saw_newline = False
        while self._pos < len(self.source):
            if self._peek() == "*" and self._peek(1) == "/":
                text_chars.append(self._advance())
                text_chars.append(self._advance())
                break
            if self._peek() == "\n":
                saw_newline = True
            text_chars.append(self._advance())
        else:
            raise self._error("unterminated block comment")
        if self._keep_comments:
            self._emit(TokenKind.COMMENT, "".join(text_chars), pos)
        if saw_newline:
            # A block comment containing a newline acts like a newline for ASI.
            self._maybe_insert_semicolon()

    def _scan_identifier(self) -> None:
        pos = self._position()
        chars: List[str] = []
        while self._pos < len(self.source) and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars)
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        self._emit(kind, text, pos)

    def _scan_number(self) -> None:
        pos = self._position()
        chars: List[str] = []
        is_float = False
        if self._peek() == "0" and self._peek(1) != "" and self._peek(1) in "xX":
            chars.append(self._advance())
            chars.append(self._advance())
            while self._pos < len(self.source) and (self._peek() in "0123456789abcdefABCDEF_"):
                chars.append(self._advance())
            self._emit(TokenKind.INT, "".join(chars), pos)
            return
        while self._pos < len(self.source) and (self._peek().isdigit() or self._peek() == "_"):
            chars.append(self._advance())
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            chars.append(self._advance())
            while self._pos < len(self.source) and self._peek().isdigit():
                chars.append(self._advance())
        next_char = self._peek()
        after = self._peek(1)
        if next_char != "" and next_char in "eE" and (
            after.isdigit() or (after != "" and after in "+-")
        ):
            is_float = True
            chars.append(self._advance())
            if self._peek() != "" and self._peek() in "+-":
                chars.append(self._advance())
            while self._pos < len(self.source) and self._peek().isdigit():
                chars.append(self._advance())
        kind = TokenKind.FLOAT if is_float else TokenKind.INT
        self._emit(kind, "".join(chars), pos)

    def _scan_string(self) -> None:
        pos = self._position()
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            if self._pos >= len(self.source) or self._peek() == "\n":
                raise self._error("unterminated string literal")
            ch = self._advance()
            if ch == '"':
                break
            if ch == "\\":
                escape = self._advance()
                chars.append(_decode_escape(escape))
            else:
                chars.append(ch)
        self._emit(TokenKind.STRING, "".join(chars), pos)

    def _scan_raw_string(self) -> None:
        pos = self._position()
        self._advance()  # opening backquote
        chars: List[str] = []
        while True:
            if self._pos >= len(self.source):
                raise self._error("unterminated raw string literal")
            ch = self._advance()
            if ch == "`":
                break
            chars.append(ch)
        self._emit(TokenKind.STRING, "".join(chars), pos)

    def _scan_char(self) -> None:
        pos = self._position()
        self._advance()  # opening quote
        if self._pos >= len(self.source):
            raise self._error("unterminated rune literal")
        ch = self._advance()
        if ch == "\\":
            ch = _decode_escape(self._advance())
        if self._peek() != "'":
            raise self._error("unterminated rune literal")
        self._advance()
        self._emit(TokenKind.CHAR, ch, pos)

    def _scan_operator(self) -> None:
        pos = self._position()
        rest = self.source[self._pos:]
        for spelling, kind in _MULTI_OPS:
            if rest.startswith(spelling):
                for _ in spelling:
                    self._advance()
                self._emit(kind, spelling, pos)
                return
        ch = self._peek()
        kind = _SIMPLE_OPS.get(ch)
        if kind is None:
            raise self._error(f"unexpected character {ch!r}")
        self._advance()
        self._emit(kind, ch, pos)


def _decode_escape(escape: str) -> str:
    """Decode a single-character escape sequence used inside string/rune literals."""
    mapping = {
        "n": "\n",
        "t": "\t",
        "r": "\r",
        "\\": "\\",
        '"': '"',
        "'": "'",
        "0": "\0",
    }
    return mapping.get(escape, escape)


def tokenize(source: str, filename: str = "<source>", keep_comments: bool = False) -> List[Token]:
    """Tokenize ``source`` and return the token list."""
    return Lexer(source, filename).tokenize(keep_comments=keep_comments)


def iter_tokens(source: str, filename: str = "<source>") -> Iterator[Token]:
    """Yield tokens one at a time (convenience wrapper around :func:`tokenize`)."""
    yield from tokenize(source, filename)
