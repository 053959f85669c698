"""Recursive-descent parser for the Go subset.

The grammar mirrors the relevant portion of the Go specification.  The parser
produces the AST defined in :mod:`repro.golang.ast_nodes`.  It supports the
full statement and expression forms used by the paper's listings and by the
synthetic corpus: functions and methods, closures, goroutines, defer, channel
operations, ``select``, ``switch``, ``for``/``range`` loops, labeled
statements, composite literals (struct, slice, map), type declarations,
pointers, variadic calls, and type assertions.

Every pipeline stage re-parses Go source, so the token loop is kept tight.
The lexer hands over three parallel lists (``kinds``, ``texts`` and
``positions``); the cursor is ``index`` into them and the current token's
kind ``kind``.  The cursor helpers return the index of the token they
consume, and callers read its text or position from the lists.  Hot paths
test ``kind`` by identity against the token kinds bound below as module
globals (``TokenKind.X`` is an attribute lookup through the enum metaclass,
several times slower) and move the cursor in place.  A statement
dispatches on its first token through :data:`_STMT_PARSERS`, and a plain
operand (an identifier or a literal) skips the unary → primary → operand
chain.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional

from repro.errors import GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang.lexer import Lexer
from repro.golang.tokens import ASSIGN_OPS, PRECEDENCE, Position, TokenKind

(ADD, AND, ARROW, ASSIGN, BREAK, CASE, CHAN, CHAR, COLON, COMMA, CONST, CONTINUE,
 DEC, DEFAULT, DEFER, DEFINE, ELLIPSIS, ELSE, EOF, FALLTHROUGH, FLOAT, FOR, FUNC,
 GO, GOTO, IDENT, IF, IMPORT, INC, INT, INTERFACE, LBRACE, LBRACK, LPAREN, MAP,
 MUL, NOT, PACKAGE, PERIOD, RANGE, RBRACE, RBRACK, RETURN, RPAREN, SELECT,
 SEMICOLON, STRING, STRUCT, SUB, SWITCH, TYPE, VAR, XOR) = (TokenKind[name] for name in """
 ADD AND ARROW ASSIGN BREAK CASE CHAN CHAR COLON COMMA CONST CONTINUE
 DEC DEFAULT DEFER DEFINE ELLIPSIS ELSE EOF FALLTHROUGH FLOAT FOR FUNC
 GO GOTO IDENT IF IMPORT INC INT INTERFACE LBRACE LBRACK LPAREN MAP
 MUL NOT PACKAGE PERIOD RANGE RBRACE RBRACK RETURN RPAREN SELECT
 SEMICOLON STRING STRUCT SUB SWITCH TYPE VAR XOR""".split())

# Tokens that may start a type expression.
_TYPE_START = frozenset({IDENT, MUL, LBRACK, MAP, CHAN, FUNC, STRUCT, INTERFACE,
                         ARROW, ELLIPSIS, LPAREN})
# Tokens after a struct field's first identifier that make it a field name.
_FIELD_NAME_FOLLOW = _TYPE_START | {COMMA}
# Type keywords and ``[`` that start an operand (a conversion, ``make``
# argument or composite literal type).
_TYPE_OPERANDS = frozenset({LBRACK, MAP, CHAN, STRUCT, INTERFACE})
_UNARY_OPS = frozenset({ADD, SUB, NOT, XOR, MUL, AND, ARROW})
# Literal token kinds mapped to ``BasicLit.kind``.
_LITERALS: Dict[TokenKind, str] = {INT: "INT", FLOAT: "FLOAT", STRING: "STRING", CHAR: "CHAR"}
# Tokens that may continue a primary expression (selector, call, index,
# composite literal).
_POSTFIX = frozenset({PERIOD, LPAREN, LBRACK, LBRACE})
_ASSIGN_KINDS = frozenset({DEFINE, ASSIGN, *ASSIGN_OPS})
_DECL_KEYWORDS = frozenset({VAR, CONST, TYPE})
# Tokens that implicitly terminate the previous statement.
_STMT_CLOSERS = frozenset({RBRACE, RPAREN, EOF})
# Tokens that end a switch or select clause's body.
_CLAUSE_END = frozenset({CASE, DEFAULT, RBRACE, EOF})


class Parser:
    """Parse a token stream into a :class:`repro.golang.ast_nodes.File`."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.filename = filename
        self.kinds, self.texts, self.positions = Lexer(source, filename).tokenize()
        self.index = 0
        #: The current token's kind, ``kinds[index]``; :meth:`advance` moves both.
        self.kind: TokenKind = self.kinds[0]
        # When > 0, a bare `{` following an identifier is NOT treated as a
        # composite literal (mirrors Go's rule for if/for/switch headers).
        self._no_composite = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def peek(self) -> TokenKind:
        """The kind of the token after the current one (EOF stays EOF)."""
        if self.kind is EOF:
            return EOF
        return self.kinds[self.index + 1]

    def advance(self) -> int:
        """Consume the current token and return its index; EOF is never
        consumed."""
        index = self.index
        if self.kind is not EOF:
            self.index = index + 1
            self.kind = self.kinds[index + 1]
        return index

    def _seek(self, index: int) -> None:
        """Move the cursor back to ``index`` (for backtracking)."""
        self.index = index
        self.kind = self.kinds[index]

    def accept(self, kind: TokenKind) -> bool:
        """Consume the current token if it is a ``kind`` (never EOF)."""
        if self.kind is kind:
            self.index += 1
            self.kind = self.kinds[self.index]
            return True
        return False

    def expect(self, kind: TokenKind, context: str = "") -> int:
        """Consume the current token, which must be a ``kind`` (never EOF),
        and return its index."""
        index = self.index
        if self.kind is kind:
            self.index = index + 1
            self.kind = self.kinds[index + 1]
            return index
        where = f" in {context}" if context else ""
        raise self.error(
            f"expected {kind.value!r}, found {self.kind.value!r} ({self.texts[index]!r}){where}"
        )

    def error(self, message: str) -> GoSyntaxError:
        pos = self.positions[self.index]
        return GoSyntaxError(message, self.filename, pos.line, pos.column)

    def skip_semicolons(self) -> None:
        if self.kind is SEMICOLON:
            # The token list ends with EOF, so the scan stops in range.
            kinds = self.kinds
            index = self.index + 1
            while kinds[index] is SEMICOLON:
                index += 1
            self.index = index
            self.kind = kinds[index]

    def expect_semi(self) -> None:
        """Consume a statement terminator (semicolon/newline); ``}`` and ``)``
        implicitly terminate the previous statement."""
        kind = self.kind
        if kind is SEMICOLON:
            self.index += 1
            self.kind = self.kinds[self.index]
        elif kind not in _STMT_CLOSERS:
            raise self.error(
                f"expected ';' or newline, found {kind.value!r} ({self.texts[self.index]!r})"
            )

    def _skip_type_params(self) -> None:
        """Skip a generic type-parameter list such as ``[T any]``."""
        depth = 0
        while True:
            kind = self.kind
            if kind is LBRACK:
                depth += 1
            elif kind is RBRACK:
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            elif kind is EOF:
                raise self.error("unterminated type parameter list")
            self.advance()

    # ------------------------------------------------------------------
    # File / declarations
    # ------------------------------------------------------------------

    def parse_file(self) -> ast.File:
        """Parse a complete source file.

        The parser recurses on every nesting level, so input nested deeper
        than the interpreter's recursion limit allows raises ``nesting too
        deep`` at the token reached.
        """
        try:
            return self._parse_file()
        except RecursionError:
            raise self.error("nesting too deep") from None

    def _parse_file(self) -> ast.File:
        self.skip_semicolons()
        pos = self.positions[self.index]
        self.expect(PACKAGE, "package clause")
        package = self.texts[self.expect(IDENT, "package clause")]
        self.expect_semi()
        file = ast.File(package=package, name=self.filename, pos=pos)
        self.skip_semicolons()
        while self.kind is IMPORT:
            file.imports.extend(self._parse_import_decl())
            self.skip_semicolons()
        while self.kind is not EOF:
            file.decls.append(self.parse_decl())
            self.skip_semicolons()
        return file

    def _parse_import_decl(self) -> List[ast.ImportSpec]:
        self.expect(IMPORT)
        specs: List[ast.ImportSpec] = []
        if self.accept(LPAREN):
            self.skip_semicolons()
            while self.kind is not RPAREN:
                specs.append(self._parse_import_spec())
                self.skip_semicolons()
            self.expect(RPAREN)
        else:
            specs.append(self._parse_import_spec())
        self.expect_semi()
        return specs

    def _parse_import_spec(self) -> ast.ImportSpec:
        pos = self.positions[self.index]
        name = None
        if self.kind is IDENT or self.kind is PERIOD:
            name = self.texts[self.advance()]
        path = self.texts[self.expect(STRING, "import spec")]
        return ast.ImportSpec(path=path, name=name, pos=pos)

    def parse_decl(self) -> ast.Decl:
        """Parse a top-level declaration."""
        kind = self.kind
        if kind is FUNC:
            return self._parse_func_decl()
        if kind in _DECL_KEYWORDS:
            return self._parse_gen_decl()
        if kind is IMPORT:
            specs = self._parse_import_decl()
            pos = specs[0].pos if specs else self.positions[self.index]
            return ast.GenDecl(tok="import", specs=list(specs), pos=pos)
        raise self.error(f"expected declaration, found {self.texts[self.index]!r}")

    def _parse_gen_decl(self) -> ast.GenDecl:
        index = self.advance()
        keyword = self.texts[index]  # a keyword token's text is its spelling
        specs: List[ast.Node] = []
        if self.accept(LPAREN):
            self.skip_semicolons()
            while self.kind is not RPAREN:
                specs.append(self._parse_spec(keyword))
                self.skip_semicolons()
            self.expect(RPAREN)
        else:
            specs.append(self._parse_spec(keyword))
        return ast.GenDecl(tok=keyword, specs=specs, pos=self.positions[index])

    def _parse_spec(self, keyword: str) -> ast.Node:
        pos = self.positions[self.index]
        if keyword == "type":
            name = self.texts[self.expect(IDENT, "type declaration")]
            # Skip a generic type-parameter list if present, e.g. `Scanner[ROW any]`.
            if self.kind is LBRACK:
                self._skip_type_params()
            self.accept(ASSIGN)  # type alias
            type_ = self.parse_type()
            return ast.TypeSpec(name=name, type_=type_, pos=pos)
        # var / const
        names = [self.texts[self.expect(IDENT, f"{keyword} declaration")]]
        while self.accept(COMMA):
            names.append(self.texts[self.expect(IDENT)])
        type_ = None
        values: List[ast.Expr] = []
        kind = self.kind
        if not (kind is ASSIGN or kind is SEMICOLON or kind is RPAREN or kind is EOF):
            type_ = self.parse_type()
        if self.accept(ASSIGN):
            values = self.parse_expr_list()
        return ast.ValueSpec(names=names, type_=type_, values=values, pos=pos)

    def _parse_func_decl(self) -> ast.FuncDecl:
        pos = self.positions[self.expect(FUNC)]
        recv = None
        if self.kind is LPAREN:
            recv_fields = self._parse_param_list()
            recv = recv_fields[0] if recv_fields else None
        name = self.texts[self.expect(IDENT, "function declaration")]
        # Skip a generic type-parameter list, e.g. `func F[T any](...)`.
        if self.kind is LBRACK:
            self._skip_type_params()
        type_ = self._parse_func_signature()
        body = None
        if self.kind is LBRACE:
            body = self.parse_block()
        return ast.FuncDecl(recv=recv, name=name, type_=type_, body=body, pos=pos)

    def _parse_func_signature(self) -> ast.FuncType:
        pos = self.positions[self.index]
        params = self._parse_param_list()
        results: List[ast.Field] = []
        kind = self.kind
        if kind is LPAREN:
            results = self._parse_param_list()
        elif kind in _TYPE_START:
            # Single unparenthesized result type (the function body's `{` is
            # not a type start, so it is never misread as a struct literal).
            # The field's position is read after its type is parsed.
            results = [ast.Field(type_=self.parse_type(), pos=self.positions[self.index])]
        return ast.FuncType(params=params, results=results, pos=pos)

    def _parse_param_list(self) -> List[ast.Field]:
        """Parse a parenthesized parameter/result/receiver list."""
        self.expect(LPAREN, "parameter list")
        fields: List[ast.Field] = []
        pending: List[ast.Ident] = []  # identifiers that may turn out to be names

        def flush_pending_as_types() -> None:
            for item in pending:
                fields.append(ast.Field(type_=item, pos=item.pos))
            pending.clear()

        while self.kind is not RPAREN:
            self.skip_semicolons()
            kind = self.kind
            if kind is RPAREN:
                break
            pos = self.positions[self.index]
            following = self.peek() if kind is IDENT else None
            if following is COMMA or following is RPAREN:
                # Could be a bare type or a name whose type appears later in the group.
                pending.append(ast.Ident(name=self.texts[self.advance()], pos=pos))
            elif following is PERIOD:
                # Qualified type such as `pkg.Type` — unambiguous bare type.
                type_ = self.parse_type()
                flush_pending_as_types()
                fields.append(ast.Field(type_=type_, pos=pos))
            elif following in _TYPE_START:
                # `name Type` — all pending identifiers are names of the same type.
                name = self.texts[self.advance()]
                variadic = self.accept(ELLIPSIS)
                type_ = self.parse_type()
                names = [item.name for item in pending] + [name]
                pending.clear()
                fields.append(ast.Field(names=names, type_=type_, variadic=variadic, pos=pos))
            else:
                variadic = self.accept(ELLIPSIS)
                type_ = self.parse_type()
                flush_pending_as_types()
                fields.append(ast.Field(type_=type_, variadic=variadic, pos=pos))
            if not self.accept(COMMA):
                break
        flush_pending_as_types()
        self.expect(RPAREN, "parameter list")
        return fields

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def parse_type(self) -> ast.Expr:
        """Parse a type expression."""
        pos = self.positions[self.index]
        kind = self.kind
        if kind is IDENT:
            expr: ast.Expr = ast.Ident(name=self.texts[self.advance()], pos=pos)
            while self.kind is PERIOD:
                self.advance()
                sel = self.texts[self.expect(IDENT, "qualified type")]
                expr = ast.SelectorExpr(x=expr, sel=sel, pos=pos)
            # Generic instantiation such as `Foo[Bar]` — record only the base type.
            if self.kind is LBRACK:
                following = self.peek()
                if following in _TYPE_START and following is not LBRACK:
                    save = self.index
                    try:
                        self.advance()
                        self.parse_type()
                        if not self.accept(RBRACK):
                            self._seek(save)
                    except GoSyntaxError:
                        self._seek(save)
            return expr
        if kind is MUL:
            self.advance()
            return ast.StarExpr(x=self.parse_type(), pos=pos)
        if kind is LBRACK:
            self.advance()
            length = None
            if self.kind is not RBRACK:
                length = self.parse_expression()
            self.expect(RBRACK, "array/slice type")
            return ast.ArrayType(elt=self.parse_type(), length=length, pos=pos)
        if kind is MAP:
            self.advance()
            self.expect(LBRACK, "map type")
            key = self.parse_type()
            self.expect(RBRACK, "map type")
            return ast.MapType(key=key, value=self.parse_type(), pos=pos)
        if kind is CHAN:
            self.advance()
            self.accept(ARROW)  # chan<- T
            return ast.ChanType(value=self.parse_type(), pos=pos)
        if kind is ARROW:
            self.advance()
            self.expect(CHAN, "receive-only channel type")
            return ast.ChanType(value=self.parse_type(), pos=pos)
        if kind is FUNC:
            self.advance()
            return self._parse_func_signature()
        if kind is STRUCT:
            return self._parse_struct_type()
        if kind is INTERFACE:
            return self._parse_interface_type()
        if kind is ELLIPSIS:
            self.advance()
            elt = self.parse_type() if self.kind in _TYPE_START else None
            return ast.Ellipsis(elt=elt, pos=pos)
        if kind is LPAREN:
            self.advance()
            inner = self.parse_type()
            self.expect(RPAREN)
            return ast.ParenExpr(x=inner, pos=pos)
        raise self.error(f"expected type, found {self.texts[self.index]!r}")

    def _parse_struct_type(self) -> ast.StructType:
        pos = self.positions[self.expect(STRUCT)]
        self.expect(LBRACE, "struct type")
        fields: List[ast.Field] = []
        self.skip_semicolons()
        while self.kind is not RBRACE:
            fields.append(self._parse_struct_field())
            self.expect_semi()
            self.skip_semicolons()
        self.expect(RBRACE, "struct type")
        return ast.StructType(fields=fields, pos=pos)

    def _parse_struct_field(self) -> ast.Field:
        pos = self.positions[self.index]
        if self.kind is IDENT and self.peek() in _FIELD_NAME_FOLLOW:
            # Could still be an embedded qualified type (`pkg.Type`).
            if self.peek() is PERIOD:
                return ast.Field(type_=self.parse_type(), pos=pos)
            names = [self.texts[self.advance()]]
            while self.accept(COMMA):
                names.append(self.texts[self.expect(IDENT, "struct field")])
            type_ = self.parse_type()
            self.accept(STRING)  # optional struct tag
            return ast.Field(names=names, type_=type_, pos=pos)
        # Embedded field (`*Base`, `sync.Mutex`, `Mutex`).
        type_ = self.parse_type()
        self.accept(STRING)
        return ast.Field(type_=type_, pos=pos)

    def _parse_interface_type(self) -> ast.InterfaceType:
        pos = self.positions[self.expect(INTERFACE)]
        self.expect(LBRACE, "interface type")
        methods: List[ast.Field] = []
        self.skip_semicolons()
        while self.kind is not RBRACE:
            mpos = self.positions[self.index]
            name = self.texts[self.expect(IDENT, "interface method")]
            if self.kind is LPAREN:
                sig = self._parse_func_signature()
                methods.append(ast.Field(names=[name], type_=sig, pos=mpos))
            else:
                # Embedded interface.
                expr: ast.Expr = ast.Ident(name=name, pos=mpos)
                while self.accept(PERIOD):
                    expr = ast.SelectorExpr(x=expr, sel=self.texts[self.expect(IDENT)], pos=mpos)
                methods.append(ast.Field(type_=expr, pos=mpos))
            self.expect_semi()
            self.skip_semicolons()
        self.expect(RBRACE, "interface type")
        return ast.InterfaceType(methods=methods, pos=pos)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.BlockStmt:
        pos = self.positions[self.expect(LBRACE, "block")]
        stmts: List[ast.Stmt] = []
        self.skip_semicolons()
        kind = self.kind
        while kind is not RBRACE and kind is not EOF:
            stmts.append(self.parse_stmt())
            self.skip_semicolons()
            kind = self.kind
        self.expect(RBRACE, "block")
        return ast.BlockStmt(stmts=stmts, pos=pos)

    def parse_stmt(self) -> ast.Stmt:
        """Parse a single statement (terminator consumed)."""
        kind = self.kind
        if kind is IDENT:
            index = self.index
            if self.kinds[index + 1] is COLON:
                self.index = index + 2  # the label and ':'
                self.kind = self.kinds[index + 2]
                self.skip_semicolons()
                stmt = self.parse_stmt()
                label = self.texts[index]
                if isinstance(stmt, (ast.ForStmt, ast.RangeStmt)):
                    stmt.label = label  # what labeled break/continue match against
                return ast.LabeledStmt(label=label, stmt=stmt, pos=self.positions[index])
        elif kind is LBRACE:
            # Parsed here, not through the table, so that each nested block
            # costs two stack frames.
            block = self.parse_block()
            self.expect_semi()
            return block
        else:
            parse = _STMT_PARSERS.get(kind)
            if parse is not None:
                return parse(self)
        stmt = self.parse_simple_stmt()
        self.expect_semi()
        return stmt

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        pos = self.positions[self.index]
        decl = self._parse_gen_decl()
        self.expect_semi()
        return ast.DeclStmt(decl=decl, pos=pos)

    def _parse_go_or_defer(self) -> ast.Stmt:
        stmt_cls = ast.GoStmt if self.kind is GO else ast.DeferStmt
        pos = self.positions[self.advance()]
        call = self.parse_expression()
        self.expect_semi()
        return stmt_cls(call=_as_call(call, pos), pos=pos)

    def _parse_return_stmt(self) -> ast.ReturnStmt:
        pos = self.positions[self.advance()]
        results: List[ast.Expr] = []
        kind = self.kind
        if kind is not SEMICOLON and kind is not RBRACE:
            results = self.parse_expr_list()
        self.expect_semi()
        return ast.ReturnStmt(results=results, pos=pos)

    def _parse_branch_stmt(self) -> ast.BranchStmt:
        index = self.advance()
        label = None
        if self.kind is IDENT:
            label = self.texts[self.advance()]
        self.expect_semi()
        return ast.BranchStmt(tok=self.texts[index], label=label, pos=self.positions[index])

    def _parse_empty_stmt(self) -> ast.EmptyStmt:
        return ast.EmptyStmt(pos=self.positions[self.advance()])

    def parse_simple_stmt(self, allow_range: bool = False) -> ast.Stmt:
        """Parse a simple statement (no terminator): expression, send,
        inc/dec, assignment, or short variable declaration."""
        pos = self.positions[self.index]
        lhs = self.parse_expr_list()
        kind = self.kind
        if kind in _ASSIGN_KINDS:
            op_text = self.texts[self.index]
            self.index += 1
            self.kind = self.kinds[self.index]
            if allow_range and self.kind is RANGE:
                # Leave `range` for the caller (for-statement) to interpret.
                self.advance()
                x = self.parse_expression()
                key = lhs[0] if lhs else None
                value = lhs[1] if len(lhs) > 1 else None
                return ast.RangeStmt(key=key, value=value, tok=op_text, x=x, pos=pos)
            rhs = self.parse_expr_list()
            return ast.AssignStmt(lhs=lhs, tok=op_text, rhs=rhs, pos=pos)
        if len(lhs) != 1:
            raise self.error("expected assignment after expression list")
        expr = lhs[0]
        if kind is ARROW:
            self.advance()
            value = self.parse_expression()
            return ast.SendStmt(chan=expr, value=value, pos=pos)
        if kind is INC or kind is DEC:
            op = self.texts[self.advance()]
            return ast.IncDecStmt(x=expr, op=op, pos=pos)
        return ast.ExprStmt(x=expr, pos=pos)

    def _parse_if(self) -> ast.IfStmt:
        pos = self.positions[self.expect(IF)]
        self._no_composite += 1
        try:
            init: Optional[ast.Stmt] = None
            stmt = self.parse_simple_stmt()
            if self.accept(SEMICOLON):
                init = stmt
                cond = self.parse_expression()
            else:
                if not isinstance(stmt, ast.ExprStmt):
                    raise self.error("expected condition expression in if statement")
                cond = stmt.x
        finally:
            self._no_composite -= 1
        body = self.parse_block()
        else_: Optional[ast.Stmt] = None
        if self.accept(ELSE):
            if self.kind is IF:
                else_ = self._parse_if()
            else:
                else_ = self.parse_block()
        if self.kind is not ELSE:
            self.expect_semi()
        return ast.IfStmt(init=init, cond=cond, body=body, else_=else_, pos=pos)

    def _parse_for(self) -> ast.Stmt:
        pos = self.positions[self.expect(FOR)]
        self._no_composite += 1
        try:
            init = cond = post = None
            range_stmt = None
            if self.kind is LBRACE:
                pass
            elif self.accept(RANGE):
                # `for range x {`
                x = self.parse_expression()
                range_stmt = ast.RangeStmt(key=None, value=None, tok="", x=x, pos=pos)
            else:
                first = self.parse_simple_stmt(allow_range=True)
                if isinstance(first, ast.RangeStmt):
                    range_stmt = first
                elif self.accept(SEMICOLON):
                    # Three-clause loop.
                    init = first
                    if self.kind is not SEMICOLON:
                        cond = self.parse_expression()
                    self.expect(SEMICOLON, "for statement")
                    if self.kind is not LBRACE:
                        post = self.parse_simple_stmt()
                else:
                    # Condition-only loop.
                    if not isinstance(first, ast.ExprStmt):
                        raise self.error("expected loop condition")
                    cond = first.x
        finally:
            self._no_composite -= 1
        body = self.parse_block()
        self.expect_semi()
        if range_stmt is not None:
            range_stmt.body = body
            return range_stmt
        return ast.ForStmt(init=init, cond=cond, post=post, body=body, pos=pos)

    def _parse_switch(self) -> ast.SwitchStmt:
        pos = self.positions[self.expect(SWITCH)]
        init: Optional[ast.Stmt] = None
        tag: Optional[ast.Expr] = None
        self._no_composite += 1
        try:
            if self.kind is not LBRACE:
                stmt = self.parse_simple_stmt()
                if self.accept(SEMICOLON):
                    init = stmt
                    if self.kind is not LBRACE:
                        tag_stmt = self.parse_simple_stmt()
                        if isinstance(tag_stmt, ast.ExprStmt):
                            tag = tag_stmt.x
                elif isinstance(stmt, ast.ExprStmt):
                    tag = stmt.x
                else:
                    init = stmt
        finally:
            self._no_composite -= 1
        self.expect(LBRACE, "switch statement")
        cases: List[ast.CaseClause] = []
        self.skip_semicolons()
        while self.kind is not RBRACE and self.kind is not EOF:
            cpos = self.positions[self.index]
            exprs: List[ast.Expr] = []
            if self.accept(CASE):
                exprs = self.parse_expr_list()
            else:
                self.expect(DEFAULT, "switch statement")
            self.expect(COLON, "switch case")
            cases.append(ast.CaseClause(exprs=exprs, body=self._parse_clause_body(), pos=cpos))
        self.expect(RBRACE, "switch statement")
        self.expect_semi()
        return ast.SwitchStmt(init=init, tag=tag, cases=cases, pos=pos)

    def _parse_select(self) -> ast.SelectStmt:
        pos = self.positions[self.expect(SELECT)]
        self.expect(LBRACE, "select statement")
        cases: List[ast.CommClause] = []
        self.skip_semicolons()
        while self.kind is not RBRACE and self.kind is not EOF:
            cpos = self.positions[self.index]
            comm: Optional[ast.Stmt] = None
            if self.accept(CASE):
                comm = self.parse_simple_stmt()
            else:
                self.expect(DEFAULT, "select statement")
            self.expect(COLON, "select case")
            cases.append(ast.CommClause(comm=comm, body=self._parse_clause_body(), pos=cpos))
        self.expect(RBRACE, "select statement")
        self.expect_semi()
        return ast.SelectStmt(cases=cases, pos=pos)

    def _parse_clause_body(self) -> List[ast.Stmt]:
        """The statements of a switch or select clause, after its ``:``."""
        body: List[ast.Stmt] = []
        self.skip_semicolons()
        while self.kind not in _CLAUSE_END:
            body.append(self.parse_stmt())
            self.skip_semicolons()
        return body

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr_list(self) -> List[ast.Expr]:
        exprs = [self.parse_expression()]
        while self.kind is COMMA:
            self.index += 1
            self.kind = self.kinds[self.index]
            exprs.append(self.parse_expression())
        return exprs

    def parse_expression(self, min_prec: int = 1) -> ast.Expr:
        """Precedence-climbing binary expression parser."""
        kind = self.kind
        if kind is IDENT or kind in _LITERALS:
            # A plain operand: build it here rather than through
            # parse_unary → parse_operand → _parse_postfix.
            index = self.index
            self.index = index + 1
            self.kind = self.kinds[index + 1]
            if kind is IDENT:
                left: ast.Expr = ast.Ident(name=self.texts[index], pos=self.positions[index])
            else:
                left = ast.BasicLit(kind=_LITERALS[kind], value=self.texts[index],
                                    pos=self.positions[index])
            if self.kind in _POSTFIX:
                left = self._parse_postfix(left)
        else:
            left = self.parse_unary()
        prec = PRECEDENCE.get(self.kind, 0)
        while prec >= min_prec:
            op = self.texts[self.index]
            self.index += 1
            self.kind = self.kinds[self.index]
            right = self.parse_expression(prec + 1)
            left = ast.BinaryExpr(x=left, op=op, y=right, pos=left.pos)
            prec = PRECEDENCE.get(self.kind, 0)
        return left

    def parse_unary(self) -> ast.Expr:
        kind = self.kind
        if kind in _UNARY_OPS:
            index = self.index
            self.index = index + 1
            self.kind = self.kinds[index + 1]
            operand = self.parse_unary()
            if kind is MUL:
                return ast.StarExpr(x=operand, pos=self.positions[index])
            return ast.UnaryExpr(op=self.texts[index], x=operand, pos=self.positions[index])
        return self._parse_postfix(self.parse_operand())

    def _parse_postfix(self, expr: ast.Expr) -> ast.Expr:
        """Selectors, calls, index and slice expressions, type assertions and
        composite literals following the primary expression ``expr``."""
        while True:
            kind = self.kind
            if kind is PERIOD:
                self.advance()
                if self.accept(LPAREN):
                    # Type assertion `x.(T)`.
                    type_: Optional[ast.Expr] = None
                    if not self.accept(TYPE):
                        type_ = self.parse_type()
                    self.expect(RPAREN, "type assertion")
                    expr = ast.TypeAssertExpr(x=expr, type_=type_, pos=expr.pos)
                else:
                    sel = self.texts[self.expect(IDENT, "selector")]
                    expr = ast.SelectorExpr(x=expr, sel=sel, pos=expr.pos)
            elif kind is LPAREN:
                self.advance()
                args: List[ast.Expr] = []
                ellipsis = False
                # Parentheses re-enable composite literals in a statement header.
                saved, self._no_composite = self._no_composite, 0
                try:
                    while self.kind is not RPAREN:
                        self.skip_semicolons()
                        if self.kind is RPAREN:
                            break
                        args.append(self.parse_arg())
                        if self.accept(ELLIPSIS):
                            ellipsis = True
                        if not self.accept(COMMA):
                            break
                        self.skip_semicolons()
                finally:
                    self._no_composite = saved
                self.expect(RPAREN, "call expression")
                expr = ast.CallExpr(fun=expr, args=args, ellipsis=ellipsis, pos=expr.pos)
            elif kind is LBRACK:
                self.advance()
                saved, self._no_composite = self._no_composite, 0
                try:
                    low: Optional[ast.Expr] = None
                    if self.kind is not COLON:
                        low = self.parse_expression()
                    if self.accept(COLON):
                        high: Optional[ast.Expr] = None
                        if self.kind is not RBRACK:
                            high = self.parse_expression()
                        self.expect(RBRACK, "slice expression")
                        expr = ast.SliceExpr(x=expr, low=low, high=high, pos=expr.pos)
                    else:
                        self.expect(RBRACK, "index expression")
                        expr = ast.IndexExpr(x=expr, index=low, pos=expr.pos)
                finally:
                    self._no_composite = saved
            elif kind is LBRACE and self._can_be_composite(expr):
                expr = self._parse_composite_lit(expr)
            else:
                return expr

    def parse_arg(self) -> ast.Expr:
        """Parse a call argument, which may be a type expression (``make``,
        ``new``, conversions to slice/map/chan types)."""
        kind = self.kind
        if kind in _TYPE_OPERANDS:
            type_expr = self.parse_type()
            # A composite literal may follow a slice/map/struct type argument.
            if self.kind is LBRACE:
                return self._parse_composite_lit(type_expr)
            return type_expr
        if kind is FUNC and self.peek() is LPAREN:
            return self._parse_func_lit_or_type()
        return self.parse_expression()

    def parse_operand(self) -> ast.Expr:
        kind = self.kind
        index = self.index
        pos = self.positions[index]
        if kind is IDENT:
            self.advance()
            return ast.Ident(name=self.texts[index], pos=pos)
        if kind in _LITERALS:
            self.advance()
            return ast.BasicLit(kind=_LITERALS[kind], value=self.texts[index], pos=pos)
        if kind is LPAREN:
            self.advance()
            saved, self._no_composite = self._no_composite, 0
            try:
                inner = self.parse_expression()
            finally:
                self._no_composite = saved
            self.expect(RPAREN, "parenthesized expression")
            return ast.ParenExpr(x=inner, pos=pos)
        if kind is FUNC:
            return self._parse_func_lit_or_type()
        if kind in _TYPE_OPERANDS:
            type_expr = self.parse_type()
            if self.kind is LBRACE:
                return self._parse_composite_lit(type_expr)
            return type_expr
        raise self.error(f"expected expression, found {kind.value!r} ({self.texts[index]!r})")

    def _parse_func_lit_or_type(self) -> ast.Expr:
        pos = self.positions[self.expect(FUNC)]
        sig = self._parse_func_signature()
        if self.kind is LBRACE:
            body = self.parse_block()
            return ast.FuncLit(type_=sig, body=body, pos=pos)
        sig.pos = pos
        return sig

    # -- composite literal handling ----------------------------------------------------

    def _can_be_composite(self, expr: ast.Expr) -> bool:
        if isinstance(expr, (ast.ArrayType, ast.MapType, ast.StructType)):
            return True
        if self._no_composite > 0:
            return False
        return isinstance(expr, (ast.Ident, ast.SelectorExpr))

    def _parse_composite_lit(self, type_expr: Optional[ast.Expr]) -> ast.CompositeLit:
        pos = self.positions[self.expect(LBRACE, "composite literal")]
        elts: List[ast.Expr] = []
        # Braces re-enable composite literals in a statement header.
        saved, self._no_composite = self._no_composite, 0
        try:
            self.skip_semicolons()
            while self.kind is not RBRACE and self.kind is not EOF:
                elts.append(self._parse_composite_elt())
                if not self.accept(COMMA):
                    self.skip_semicolons()
                    break
                self.skip_semicolons()
        finally:
            self._no_composite = saved
        self.expect(RBRACE, "composite literal")
        return ast.CompositeLit(type_=type_expr, elts=elts,
                                pos=type_expr.pos if type_expr is not None else pos)

    def _parse_composite_elt(self) -> ast.Expr:
        pos = self.positions[self.index]
        if self.kind is LBRACE:
            # Nested literal with elided type.
            return self._parse_composite_lit(None)
        value = self.parse_arg()
        if self.accept(COLON):
            if self.kind is LBRACE:
                inner: ast.Expr = self._parse_composite_lit(None)
            else:
                inner = self.parse_arg()
            return ast.KeyValueExpr(key=value, value=inner, pos=pos)
        return value


#: Statement parsers by first token; :meth:`Parser.parse_stmt` handles
#: labels, blocks and simple statements itself.
_STMT_PARSERS: Dict[TokenKind, Callable[[Parser], ast.Stmt]] = {
    VAR: Parser._parse_decl_stmt,
    CONST: Parser._parse_decl_stmt,
    TYPE: Parser._parse_decl_stmt,
    GO: Parser._parse_go_or_defer,
    DEFER: Parser._parse_go_or_defer,
    RETURN: Parser._parse_return_stmt,
    BREAK: Parser._parse_branch_stmt,
    CONTINUE: Parser._parse_branch_stmt,
    GOTO: Parser._parse_branch_stmt,
    FALLTHROUGH: Parser._parse_branch_stmt,
    IF: Parser._parse_if,
    FOR: Parser._parse_for,
    SWITCH: Parser._parse_switch,
    SELECT: Parser._parse_select,
    SEMICOLON: Parser._parse_empty_stmt,
}


def _as_call(expr: ast.Expr, pos: Position) -> ast.CallExpr:
    """Coerce a parsed expression into a call (go/defer require call expressions)."""
    if isinstance(expr, ast.CallExpr):
        return expr
    return ast.CallExpr(fun=expr, args=[], pos=pos)


def parse_file(source: str, filename: str = "<source>") -> ast.File:
    """Parse Go source text into a :class:`repro.golang.ast_nodes.File`.

    The tree is shared and read-only: every pipeline stage re-reads the same
    sources, so successful parses are kept in a small process-wide LRU keyed
    by ``(source, filename)`` (``File.name`` records the filename).  Code that
    mutates a tree mutates a copy made with :func:`ast_nodes.clone`.  A syntax
    error is never cached; it raises on every call."""
    return _parse_shared(source, filename)


@functools.lru_cache(maxsize=64)
def _parse_shared(source: str, filename: str) -> ast.File:
    return Parser(source, filename).parse_file()


#: Counters (``hits``, ``misses``, ``currsize``) and reset of the parse cache.
parse_cache_info = _parse_shared.cache_info
clear_parse_cache = _parse_shared.cache_clear


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (useful in tests and fix strategies)."""
    parser = Parser(source, "<expr>")
    try:
        expr = parser.parse_expression()
    except RecursionError:
        raise parser.error("nesting too deep") from None
    parser.skip_semicolons()
    if parser.kind is not EOF:
        raise parser.error("unexpected trailing tokens after expression")
    return expr


def parse_stmts(source: str, filename: str = "<stmts>") -> List[ast.Stmt]:
    """Parse a sequence of statements (wrapped internally in a function body).

    The statements belong to a shared :func:`parse_file` tree: read-only."""
    wrapped = "package p\nfunc __wrapper__() {\n" + source + "\n}\n"
    file = parse_file(wrapped, filename)
    func = file.find_func("__wrapper__")
    assert func is not None and func.body is not None
    return func.body.stmts
