"""Token kinds, positions and the :class:`Token` view for the Go-subset lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TokenKind(enum.Enum):
    """Every token kind produced by :class:`repro.golang.lexer.Lexer`."""

    # Members are singletons compared by identity, so hash them by identity
    # too: ``Enum.__hash__`` is a Python-level call that every kind-keyed
    # dict lookup and kind-set membership test in the parser would pay.
    __hash__ = object.__hash__

    # Special
    EOF = "EOF"
    COMMENT = "COMMENT"

    # Literals and identifiers
    IDENT = "IDENT"
    INT = "INT"
    FLOAT = "FLOAT"
    STRING = "STRING"
    CHAR = "CHAR"

    # Keywords
    BREAK = "break"
    CASE = "case"
    CHAN = "chan"
    CONST = "const"
    CONTINUE = "continue"
    DEFAULT = "default"
    DEFER = "defer"
    ELSE = "else"
    FALLTHROUGH = "fallthrough"
    FOR = "for"
    FUNC = "func"
    GO = "go"
    GOTO = "goto"
    IF = "if"
    IMPORT = "import"
    INTERFACE = "interface"
    MAP = "map"
    PACKAGE = "package"
    RANGE = "range"
    RETURN = "return"
    SELECT = "select"
    STRUCT = "struct"
    SWITCH = "switch"
    TYPE = "type"
    VAR = "var"

    # Operators and delimiters
    ADD = "+"
    SUB = "-"
    MUL = "*"
    QUO = "/"
    REM = "%"

    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    AND_NOT = "&^"

    ADD_ASSIGN = "+="
    SUB_ASSIGN = "-="
    MUL_ASSIGN = "*="
    QUO_ASSIGN = "/="
    REM_ASSIGN = "%="
    AND_ASSIGN = "&="
    OR_ASSIGN = "|="
    XOR_ASSIGN = "^="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="

    LAND = "&&"
    LOR = "||"
    ARROW = "<-"
    INC = "++"
    DEC = "--"

    EQL = "=="
    LSS = "<"
    GTR = ">"
    ASSIGN = "="
    NOT = "!"

    NEQ = "!="
    LEQ = "<="
    GEQ = ">="
    DEFINE = ":="
    ELLIPSIS = "..."

    LPAREN = "("
    LBRACK = "["
    LBRACE = "{"
    COMMA = ","
    PERIOD = "."

    RPAREN = ")"
    RBRACK = "]"
    RBRACE = "}"
    SEMICOLON = ";"
    COLON = ":"


#: Mapping from keyword spelling to its :class:`TokenKind`.
KEYWORDS = {
    kind.value: kind
    for kind in (
        TokenKind.BREAK,
        TokenKind.CASE,
        TokenKind.CHAN,
        TokenKind.CONST,
        TokenKind.CONTINUE,
        TokenKind.DEFAULT,
        TokenKind.DEFER,
        TokenKind.ELSE,
        TokenKind.FALLTHROUGH,
        TokenKind.FOR,
        TokenKind.FUNC,
        TokenKind.GO,
        TokenKind.GOTO,
        TokenKind.IF,
        TokenKind.IMPORT,
        TokenKind.INTERFACE,
        TokenKind.MAP,
        TokenKind.PACKAGE,
        TokenKind.RANGE,
        TokenKind.RETURN,
        TokenKind.SELECT,
        TokenKind.STRUCT,
        TokenKind.SWITCH,
        TokenKind.TYPE,
        TokenKind.VAR,
    )
}

#: Assignment-operator token kinds mapped to the underlying binary operator spelling.
ASSIGN_OPS = {
    TokenKind.ADD_ASSIGN: "+",
    TokenKind.SUB_ASSIGN: "-",
    TokenKind.MUL_ASSIGN: "*",
    TokenKind.QUO_ASSIGN: "/",
    TokenKind.REM_ASSIGN: "%",
    TokenKind.AND_ASSIGN: "&",
    TokenKind.OR_ASSIGN: "|",
    TokenKind.XOR_ASSIGN: "^",
    TokenKind.SHL_ASSIGN: "<<",
    TokenKind.SHR_ASSIGN: ">>",
}

#: Binary operator precedence (Go spec §Operator precedence). Higher binds tighter.
PRECEDENCE = {
    TokenKind.LOR: 1,
    TokenKind.LAND: 2,
    TokenKind.EQL: 3,
    TokenKind.NEQ: 3,
    TokenKind.LSS: 3,
    TokenKind.LEQ: 3,
    TokenKind.GTR: 3,
    TokenKind.GEQ: 3,
    TokenKind.ADD: 4,
    TokenKind.SUB: 4,
    TokenKind.OR: 4,
    TokenKind.XOR: 4,
    TokenKind.MUL: 5,
    TokenKind.QUO: 5,
    TokenKind.REM: 5,
    TokenKind.SHL: 5,
    TokenKind.SHR: 5,
    TokenKind.AND: 5,
    TokenKind.AND_NOT: 5,
}


@dataclass(frozen=True)
class Position:
    """A 1-based source position.

    The lexer interns positions, so one object is shared by every token and
    AST node at the same place: it must stay immutable.
    """

    line: int = 0
    column: int = 0

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.line}:{self.column}"


@dataclass(slots=True)
class Token:
    """A view of one lexical token, built by :func:`repro.golang.lexer.tokenize`
    for tests and tools.  The lexer itself returns parallel lists of kinds,
    texts and positions, and the parser reads those.

    Attributes
    ----------
    kind:
        The :class:`TokenKind` of this token.
    text:
        The literal source text (for identifiers and literals) or the operator
        spelling.
    pos:
        The :class:`Position` of the first character of the token.
    """

    kind: TokenKind
    text: str
    pos: Position

    @property
    def line(self) -> int:
        return self.pos.line

    @property
    def column(self) -> int:
        return self.pos.column

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.text!r})@{self.pos}"
