"""Recursive-descent parser for the Go subset.

The grammar mirrors the relevant portion of the Go specification.  The parser
produces the AST defined in :mod:`repro.golang.ast_nodes`.  It supports the
full statement and expression forms used by the paper's listings and by the
synthetic corpus: functions and methods, closures, goroutines, defer, channel
operations, ``select``, ``switch``, ``for``/``range`` loops, labeled
statements, composite literals (struct, slice, map), type declarations,
pointers, variadic calls, and type assertions.
"""

from __future__ import annotations

import functools
from typing import List, Optional

from repro.errors import GoSyntaxError
from repro.golang import ast_nodes as ast
from repro.golang.lexer import tokenize
from repro.golang.tokens import ASSIGN_OPS, PRECEDENCE, Position, Token, TokenKind

# Tokens that may start a type expression.
_TYPE_START = {
    TokenKind.IDENT,
    TokenKind.MUL,
    TokenKind.LBRACK,
    TokenKind.MAP,
    TokenKind.CHAN,
    TokenKind.FUNC,
    TokenKind.STRUCT,
    TokenKind.INTERFACE,
    TokenKind.ARROW,
    TokenKind.ELLIPSIS,
    TokenKind.LPAREN,
}

# Tokens that may start an expression (superset of type starts plus literals and unary ops).
_EXPR_START = _TYPE_START | {
    TokenKind.INT,
    TokenKind.FLOAT,
    TokenKind.STRING,
    TokenKind.CHAR,
    TokenKind.ADD,
    TokenKind.SUB,
    TokenKind.NOT,
    TokenKind.AND,
    TokenKind.XOR,
}


class Parser:
    """Parse a token stream into a :class:`repro.golang.ast_nodes.File`."""

    def __init__(self, source: str, filename: str = "<source>"):
        self.filename = filename
        self.tokens = tokenize(source, filename)
        self.index = 0
        #: The current token, ``tokens[index]``; :meth:`advance` moves both.
        self.tok: Token = self.tokens[0]
        # When > 0, a bare `{` following an identifier is NOT treated as a
        # composite literal (mirrors Go's rule for if/for/switch headers).
        self._no_composite = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def at(self, *kinds: TokenKind) -> bool:
        return self.tok.kind in kinds

    def advance(self) -> Token:
        token = self.tok
        if token.kind is not TokenKind.EOF:
            self.index += 1
            self.tok = self.tokens[self.index]
        return token

    def _seek(self, index: int) -> None:
        """Move the cursor back to ``index`` (for backtracking)."""
        self.index = index
        self.tok = self.tokens[index]

    def accept(self, kind: TokenKind) -> Optional[Token]:
        if self.tok.kind is kind:
            return self.advance()
        return None

    def expect(self, kind: TokenKind, context: str = "") -> Token:
        if self.tok.kind is kind:
            return self.advance()
        where = f" in {context}" if context else ""
        raise self.error(
            f"expected {kind.value!r}, found {self.tok.kind.value!r} ({self.tok.text!r}){where}"
        )

    def error(self, message: str) -> GoSyntaxError:
        return GoSyntaxError(message, self.filename, self.tok.line, self.tok.column)

    def skip_semicolons(self) -> None:
        while self.at(TokenKind.SEMICOLON):
            self.advance()

    def expect_semi(self) -> None:
        """Consume a statement terminator (semicolon/newline); ``}`` and ``)``
        implicitly terminate the previous statement."""
        if self.at(TokenKind.SEMICOLON):
            self.advance()
        elif self.at(TokenKind.RBRACE, TokenKind.RPAREN, TokenKind.EOF):
            return
        else:
            raise self.error(
                f"expected ';' or newline, found {self.tok.kind.value!r} ({self.tok.text!r})"
            )

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
        pos = self.tok.pos
        self.expect(TokenKind.PACKAGE, "package clause")
        package = self.expect(TokenKind.IDENT, "package clause").text
        self.expect_semi()
        file = ast.File(package=package, name=self.filename, pos=pos)
        self.skip_semicolons()
        while self.at(TokenKind.IMPORT):
            file.imports.extend(self._parse_import_decl())
            self.skip_semicolons()
        while not self.at(TokenKind.EOF):
            file.decls.append(self.parse_decl())
            self.skip_semicolons()
        return file

    def _parse_import_decl(self) -> List[ast.ImportSpec]:
        self.expect(TokenKind.IMPORT)
        specs: List[ast.ImportSpec] = []
        if self.accept(TokenKind.LPAREN):
            self.skip_semicolons()
            while not self.at(TokenKind.RPAREN):
                specs.append(self._parse_import_spec())
                self.skip_semicolons()
            self.expect(TokenKind.RPAREN)
        else:
            specs.append(self._parse_import_spec())
        self.expect_semi()
        return specs

    def _parse_import_spec(self) -> ast.ImportSpec:
        pos = self.tok.pos
        name = None
        if self.at(TokenKind.IDENT, TokenKind.PERIOD):
            name = self.advance().text
        path = self.expect(TokenKind.STRING, "import spec").text
        return ast.ImportSpec(path=path, name=name, pos=pos)

    def parse_decl(self) -> ast.Decl:
        """Parse a top-level declaration."""
        if self.at(TokenKind.FUNC):
            return self._parse_func_decl()
        if self.at(TokenKind.VAR, TokenKind.CONST, TokenKind.TYPE):
            return self._parse_gen_decl()
        if self.at(TokenKind.IMPORT):
            specs = self._parse_import_decl()
            return ast.GenDecl(tok="import", specs=list(specs), pos=specs[0].pos if specs else self.tok.pos)
        raise self.error(f"expected declaration, found {self.tok.text!r}")

    def _parse_gen_decl(self) -> ast.GenDecl:
        pos = self.tok.pos
        tok = self.advance()
        keyword = tok.kind.value
        decl = ast.GenDecl(tok=keyword, pos=pos)
        if self.accept(TokenKind.LPAREN):
            self.skip_semicolons()
            while not self.at(TokenKind.RPAREN):
                decl.specs.append(self._parse_spec(keyword))
                self.skip_semicolons()
            self.expect(TokenKind.RPAREN)
        else:
            decl.specs.append(self._parse_spec(keyword))
        return decl

    def _parse_spec(self, keyword: str) -> ast.Node:
        if keyword == "type":
            pos = self.tok.pos
            name = self.expect(TokenKind.IDENT, "type declaration").text
            # Skip a generic type-parameter list if present, e.g. `Scanner[ROW any]`.
            if self.at(TokenKind.LBRACK):
                depth = 0
                while True:
                    if self.at(TokenKind.LBRACK):
                        depth += 1
                    elif self.at(TokenKind.RBRACK):
                        depth -= 1
                        if depth == 0:
                            self.advance()
                            break
                    elif self.at(TokenKind.EOF):
                        raise self.error("unterminated type parameter list")
                    self.advance()
            self.accept(TokenKind.ASSIGN)  # type alias
            type_ = self.parse_type()
            return ast.TypeSpec(name=name, type_=type_, pos=pos)
        # var / const
        pos = self.tok.pos
        names = [self.expect(TokenKind.IDENT, f"{keyword} declaration").text]
        while self.accept(TokenKind.COMMA):
            names.append(self.expect(TokenKind.IDENT).text)
        type_ = None
        values: List[ast.Expr] = []
        if not self.at(TokenKind.ASSIGN, TokenKind.SEMICOLON, TokenKind.RPAREN, TokenKind.EOF):
            type_ = self.parse_type()
        if self.accept(TokenKind.ASSIGN):
            values = self.parse_expr_list()
        return ast.ValueSpec(names=names, type_=type_, values=values, pos=pos)

    def _parse_func_decl(self) -> ast.FuncDecl:
        pos = self.expect(TokenKind.FUNC).pos
        recv = None
        if self.at(TokenKind.LPAREN):
            recv_fields = self._parse_param_list()
            recv = recv_fields[0] if recv_fields else None
        name = self.expect(TokenKind.IDENT, "function declaration").text
        # Skip a generic type-parameter list, e.g. `func F[T any](...)`.
        if self.at(TokenKind.LBRACK):
            depth = 0
            while True:
                if self.at(TokenKind.LBRACK):
                    depth += 1
                elif self.at(TokenKind.RBRACK):
                    depth -= 1
                    if depth == 0:
                        self.advance()
                        break
                elif self.at(TokenKind.EOF):
                    raise self.error("unterminated type parameter list")
                self.advance()
        type_ = self._parse_func_signature()
        body = None
        if self.at(TokenKind.LBRACE):
            body = self.parse_block()
        return ast.FuncDecl(recv=recv, name=name, type_=type_, body=body, pos=pos)

    def _parse_func_signature(self) -> ast.FuncType:
        pos = self.tok.pos
        params = self._parse_param_list()
        results: List[ast.Field] = []
        if self.at(TokenKind.LPAREN):
            results = self._parse_param_list()
        elif self.tok.kind in _TYPE_START and not self.at(TokenKind.LBRACE):
            # Single unparenthesized result type. Guard against the function
            # body brace being misread as a struct literal.
            results = [ast.Field(type_=self.parse_type(), pos=self.tok.pos)]
        return ast.FuncType(params=params, results=results, pos=pos)

    def _parse_param_list(self) -> List[ast.Field]:
        """Parse a parenthesized parameter/result/receiver list."""
        self.expect(TokenKind.LPAREN, "parameter list")
        fields: List[ast.Field] = []
        pending: List[ast.Ident] = []  # identifiers that may turn out to be names

        def flush_pending_as_types() -> None:
            for item in pending:
                fields.append(ast.Field(type_=item, pos=item.pos))
            pending.clear()

        while not self.at(TokenKind.RPAREN):
            self.skip_semicolons()
            if self.at(TokenKind.RPAREN):
                break
            pos = self.tok.pos
            if self.at(TokenKind.IDENT) and self.peek().kind in (TokenKind.COMMA, TokenKind.RPAREN):
                # Could be a bare type or a name whose type appears later in the group.
                pending.append(ast.Ident(name=self.advance().text, pos=pos))
            elif self.at(TokenKind.IDENT) and self.peek().kind is TokenKind.PERIOD:
                # Qualified type such as `pkg.Type` — unambiguous bare type.
                type_ = self.parse_type()
                flush_pending_as_types()
                fields.append(ast.Field(type_=type_, pos=pos))
            elif self.at(TokenKind.IDENT) and self.peek().kind in _TYPE_START:
                # `name Type` — all pending identifiers are names of the same type.
                name = self.advance().text
                variadic = False
                if self.at(TokenKind.ELLIPSIS):
                    variadic = True
                    self.advance()
                type_ = self.parse_type()
                names = [item.name for item in pending] + [name]
                pending.clear()
                fields.append(ast.Field(names=names, type_=type_, variadic=variadic, pos=pos))
            else:
                variadic = False
                if self.at(TokenKind.ELLIPSIS):
                    variadic = True
                    self.advance()
                type_ = self.parse_type()
                flush_pending_as_types()
                fields.append(ast.Field(type_=type_, variadic=variadic, pos=pos))
            if not self.accept(TokenKind.COMMA):
                break
        flush_pending_as_types()
        self.expect(TokenKind.RPAREN, "parameter list")
        return fields

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def parse_type(self) -> ast.Expr:
        """Parse a type expression."""
        pos = self.tok.pos
        kind = self.tok.kind
        if kind is TokenKind.IDENT:
            expr: ast.Expr = ast.Ident(name=self.advance().text, pos=pos)
            while self.at(TokenKind.PERIOD):
                self.advance()
                sel = self.expect(TokenKind.IDENT, "qualified type").text
                expr = ast.SelectorExpr(x=expr, sel=sel, pos=pos)
            # Generic instantiation such as `Foo[Bar]` — record only the base type.
            if self.at(TokenKind.LBRACK) and self.peek().kind in _TYPE_START and self.peek().kind is not TokenKind.LBRACK:
                save = self.index
                try:
                    self.advance()
                    self.parse_type()
                    if self.at(TokenKind.RBRACK):
                        self.advance()
                    else:
                        self._seek(save)
                except GoSyntaxError:
                    self._seek(save)
            return expr
        if kind is TokenKind.MUL:
            self.advance()
            return ast.StarExpr(x=self.parse_type(), pos=pos)
        if kind is TokenKind.LBRACK:
            self.advance()
            length = None
            if not self.at(TokenKind.RBRACK):
                length = self.parse_expression()
            self.expect(TokenKind.RBRACK, "array/slice type")
            return ast.ArrayType(elt=self.parse_type(), length=length, pos=pos)
        if kind is TokenKind.MAP:
            self.advance()
            self.expect(TokenKind.LBRACK, "map type")
            key = self.parse_type()
            self.expect(TokenKind.RBRACK, "map type")
            return ast.MapType(key=key, value=self.parse_type(), pos=pos)
        if kind is TokenKind.CHAN:
            self.advance()
            self.accept(TokenKind.ARROW)  # chan<- T
            return ast.ChanType(value=self.parse_type(), pos=pos)
        if kind is TokenKind.ARROW:
            self.advance()
            self.expect(TokenKind.CHAN, "receive-only channel type")
            return ast.ChanType(value=self.parse_type(), pos=pos)
        if kind is TokenKind.FUNC:
            self.advance()
            return self._parse_func_signature()
        if kind is TokenKind.STRUCT:
            return self._parse_struct_type()
        if kind is TokenKind.INTERFACE:
            return self._parse_interface_type()
        if kind is TokenKind.ELLIPSIS:
            self.advance()
            elt = self.parse_type() if self.tok.kind in _TYPE_START else None
            return ast.Ellipsis(elt=elt, pos=pos)
        if kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_type()
            self.expect(TokenKind.RPAREN)
            return ast.ParenExpr(x=inner, pos=pos)
        raise self.error(f"expected type, found {self.tok.text!r}")

    def _parse_struct_type(self) -> ast.StructType:
        pos = self.expect(TokenKind.STRUCT).pos
        self.expect(TokenKind.LBRACE, "struct type")
        fields: List[ast.Field] = []
        self.skip_semicolons()
        while not self.at(TokenKind.RBRACE):
            fields.append(self._parse_struct_field())
            self.expect_semi()
            self.skip_semicolons()
        self.expect(TokenKind.RBRACE, "struct type")
        return ast.StructType(fields=fields, pos=pos)

    def _parse_struct_field(self) -> ast.Field:
        pos = self.tok.pos
        if self.at(TokenKind.IDENT) and self.peek().kind in _TYPE_START | {TokenKind.COMMA}:
            # Could still be an embedded qualified type (`pkg.Type`).
            if self.peek().kind is TokenKind.PERIOD:
                return ast.Field(type_=self.parse_type(), pos=pos)
            names = [self.advance().text]
            while self.accept(TokenKind.COMMA):
                names.append(self.expect(TokenKind.IDENT, "struct field").text)
            type_ = self.parse_type()
            # Optional struct tag.
            if self.at(TokenKind.STRING):
                self.advance()
            return ast.Field(names=names, type_=type_, pos=pos)
        # Embedded field (`*Base`, `sync.Mutex`, `Mutex`).
        type_ = self.parse_type()
        if self.at(TokenKind.STRING):
            self.advance()
        return ast.Field(type_=type_, pos=pos)

    def _parse_interface_type(self) -> ast.InterfaceType:
        pos = self.expect(TokenKind.INTERFACE).pos
        self.expect(TokenKind.LBRACE, "interface type")
        methods: List[ast.Field] = []
        self.skip_semicolons()
        while not self.at(TokenKind.RBRACE):
            mpos = self.tok.pos
            name = self.expect(TokenKind.IDENT, "interface method").text
            if self.at(TokenKind.LPAREN):
                sig = self._parse_func_signature()
                methods.append(ast.Field(names=[name], type_=sig, pos=mpos))
            else:
                # Embedded interface.
                expr: ast.Expr = ast.Ident(name=name, pos=mpos)
                while self.accept(TokenKind.PERIOD):
                    expr = ast.SelectorExpr(x=expr, sel=self.expect(TokenKind.IDENT).text, pos=mpos)
                methods.append(ast.Field(type_=expr, pos=mpos))
            self.expect_semi()
            self.skip_semicolons()
        self.expect(TokenKind.RBRACE, "interface type")
        return ast.InterfaceType(methods=methods, pos=pos)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_block(self) -> ast.BlockStmt:
        pos = self.expect(TokenKind.LBRACE, "block").pos
        block = ast.BlockStmt(pos=pos)
        self.skip_semicolons()
        while not self.at(TokenKind.RBRACE, TokenKind.EOF):
            block.stmts.append(self.parse_stmt())
            self.skip_semicolons()
        self.expect(TokenKind.RBRACE, "block")
        return block

    def parse_stmt(self) -> ast.Stmt:
        """Parse a single statement (terminator consumed)."""
        kind = self.tok.kind
        pos = self.tok.pos
        if kind in (TokenKind.VAR, TokenKind.CONST, TokenKind.TYPE):
            decl = self._parse_gen_decl()
            self.expect_semi()
            return ast.DeclStmt(decl=decl, pos=pos)
        if kind is TokenKind.GO:
            self.advance()
            call = self.parse_expression()
            self.expect_semi()
            return ast.GoStmt(call=_as_call(call, pos), pos=pos)
        if kind is TokenKind.DEFER:
            self.advance()
            call = self.parse_expression()
            self.expect_semi()
            return ast.DeferStmt(call=_as_call(call, pos), pos=pos)
        if kind is TokenKind.RETURN:
            self.advance()
            results: List[ast.Expr] = []
            if not self.at(TokenKind.SEMICOLON, TokenKind.RBRACE):
                results = self.parse_expr_list()
            self.expect_semi()
            return ast.ReturnStmt(results=results, pos=pos)
        if kind in (TokenKind.BREAK, TokenKind.CONTINUE, TokenKind.GOTO, TokenKind.FALLTHROUGH):
            self.advance()
            label = None
            if self.at(TokenKind.IDENT):
                label = self.advance().text
            self.expect_semi()
            return ast.BranchStmt(tok=kind.value, label=label, pos=pos)
        if kind is TokenKind.IF:
            return self._parse_if()
        if kind is TokenKind.FOR:
            return self._parse_for()
        if kind is TokenKind.SWITCH:
            return self._parse_switch()
        if kind is TokenKind.SELECT:
            return self._parse_select()
        if kind is TokenKind.LBRACE:
            block = self.parse_block()
            self.expect_semi()
            return block
        if kind is TokenKind.SEMICOLON:
            self.advance()
            return ast.EmptyStmt(pos=pos)
        if kind is TokenKind.IDENT and self.peek().kind is TokenKind.COLON:
            label = self.advance().text
            self.advance()  # ':'
            self.skip_semicolons()
            stmt = self.parse_stmt()
            if isinstance(stmt, (ast.ForStmt, ast.RangeStmt)):
                stmt.label = label  # what labeled break/continue match against
            return ast.LabeledStmt(label=label, stmt=stmt, pos=pos)
        stmt = self.parse_simple_stmt()
        self.expect_semi()
        return stmt

    def parse_simple_stmt(self, allow_range: bool = False) -> ast.Stmt:
        """Parse a simple statement (no terminator): expression, send,
        inc/dec, assignment, or short variable declaration."""
        pos = self.tok.pos
        lhs = self.parse_expr_list()
        tok_kind = self.tok.kind
        if tok_kind is TokenKind.DEFINE or tok_kind is TokenKind.ASSIGN or tok_kind in ASSIGN_OPS:
            op_token = self.advance()
            if allow_range and self.at(TokenKind.RANGE):
                # Leave `range` for the caller (for-statement) to interpret.
                self.advance()
                x = self.parse_expression()
                key = lhs[0] if lhs else None
                value = lhs[1] if len(lhs) > 1 else None
                return ast.RangeStmt(key=key, value=value, tok=op_token.text, x=x, pos=pos)
            rhs = self.parse_expr_list()
            tok_text = op_token.text if op_token.kind is not TokenKind.DEFINE else ":="
            return ast.AssignStmt(lhs=lhs, tok=tok_text, rhs=rhs, pos=pos)
        if len(lhs) != 1:
            raise self.error("expected assignment after expression list")
        expr = lhs[0]
        if self.at(TokenKind.ARROW):
            self.advance()
            value = self.parse_expression()
            return ast.SendStmt(chan=expr, value=value, pos=pos)
        if self.at(TokenKind.INC, TokenKind.DEC):
            op = self.advance().text
            return ast.IncDecStmt(x=expr, op=op, pos=pos)
        return ast.ExprStmt(x=expr, pos=pos)

    def _parse_if(self) -> ast.IfStmt:
        pos = self.expect(TokenKind.IF).pos
        self._no_composite += 1
        try:
            init: Optional[ast.Stmt] = None
            stmt = self.parse_simple_stmt()
            if self.at(TokenKind.SEMICOLON):
                self.advance()
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
        if self.accept(TokenKind.ELSE):
            if self.at(TokenKind.IF):
                else_ = self._parse_if()
            else:
                else_ = self.parse_block()
        if not self.at(TokenKind.ELSE):
            self.expect_semi()
        return ast.IfStmt(init=init, cond=cond, body=body, else_=else_, pos=pos)

    def _parse_for(self) -> ast.Stmt:
        pos = self.expect(TokenKind.FOR).pos
        self._no_composite += 1
        try:
            if self.at(TokenKind.LBRACE):
                init = cond = post = None
                range_stmt = None
            elif self.at(TokenKind.RANGE):
                # `for range x {`
                self.advance()
                x = self.parse_expression()
                range_stmt = ast.RangeStmt(key=None, value=None, tok="", x=x, pos=pos)
                init = cond = post = None
            else:
                first = self.parse_simple_stmt(allow_range=True)
                if isinstance(first, ast.RangeStmt):
                    range_stmt = first
                    init = cond = post = None
                elif self.at(TokenKind.SEMICOLON):
                    # Three-clause loop.
                    range_stmt = None
                    self.advance()
                    init = first
                    cond = None
                    if not self.at(TokenKind.SEMICOLON):
                        cond = self.parse_expression()
                    self.expect(TokenKind.SEMICOLON, "for statement")
                    post = None
                    if not self.at(TokenKind.LBRACE):
                        post = self.parse_simple_stmt()
                else:
                    # Condition-only loop.
                    range_stmt = None
                    if not isinstance(first, ast.ExprStmt):
                        raise self.error("expected loop condition")
                    init = None
                    cond = first.x
                    post = None
        finally:
            self._no_composite -= 1
        body = self.parse_block()
        self.expect_semi()
        if range_stmt is not None:
            range_stmt.body = body
            return range_stmt
        return ast.ForStmt(init=init, cond=cond, post=post, body=body, pos=pos)

    def _parse_switch(self) -> ast.SwitchStmt:
        pos = self.expect(TokenKind.SWITCH).pos
        init: Optional[ast.Stmt] = None
        tag: Optional[ast.Expr] = None
        self._no_composite += 1
        try:
            if not self.at(TokenKind.LBRACE):
                stmt = self.parse_simple_stmt()
                if self.at(TokenKind.SEMICOLON):
                    self.advance()
                    init = stmt
                    if not self.at(TokenKind.LBRACE):
                        tag_stmt = self.parse_simple_stmt()
                        if isinstance(tag_stmt, ast.ExprStmt):
                            tag = tag_stmt.x
                elif isinstance(stmt, ast.ExprStmt):
                    tag = stmt.x
                else:
                    init = stmt
        finally:
            self._no_composite -= 1
        self.expect(TokenKind.LBRACE, "switch statement")
        cases: List[ast.CaseClause] = []
        self.skip_semicolons()
        while not self.at(TokenKind.RBRACE, TokenKind.EOF):
            cpos = self.tok.pos
            exprs: List[ast.Expr] = []
            if self.accept(TokenKind.CASE):
                exprs = self.parse_expr_list()
            else:
                self.expect(TokenKind.DEFAULT, "switch statement")
            self.expect(TokenKind.COLON, "switch case")
            body: List[ast.Stmt] = []
            self.skip_semicolons()
            while not self.at(TokenKind.CASE, TokenKind.DEFAULT, TokenKind.RBRACE, TokenKind.EOF):
                body.append(self.parse_stmt())
                self.skip_semicolons()
            cases.append(ast.CaseClause(exprs=exprs, body=body, pos=cpos))
        self.expect(TokenKind.RBRACE, "switch statement")
        self.expect_semi()
        return ast.SwitchStmt(init=init, tag=tag, cases=cases, pos=pos)

    def _parse_select(self) -> ast.SelectStmt:
        pos = self.expect(TokenKind.SELECT).pos
        self.expect(TokenKind.LBRACE, "select statement")
        cases: List[ast.CommClause] = []
        self.skip_semicolons()
        while not self.at(TokenKind.RBRACE, TokenKind.EOF):
            cpos = self.tok.pos
            comm: Optional[ast.Stmt] = None
            if self.accept(TokenKind.CASE):
                comm = self.parse_simple_stmt()
            else:
                self.expect(TokenKind.DEFAULT, "select statement")
            self.expect(TokenKind.COLON, "select case")
            body: List[ast.Stmt] = []
            self.skip_semicolons()
            while not self.at(TokenKind.CASE, TokenKind.DEFAULT, TokenKind.RBRACE, TokenKind.EOF):
                body.append(self.parse_stmt())
                self.skip_semicolons()
            cases.append(ast.CommClause(comm=comm, body=body, pos=cpos))
        self.expect(TokenKind.RBRACE, "select statement")
        self.expect_semi()
        return ast.SelectStmt(cases=cases, pos=pos)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expr_list(self) -> List[ast.Expr]:
        exprs = [self.parse_expression()]
        while self.accept(TokenKind.COMMA):
            exprs.append(self.parse_expression())
        return exprs

    def parse_expression(self, min_prec: int = 1) -> ast.Expr:
        """Precedence-climbing binary expression parser."""
        left = self.parse_unary()
        while True:
            prec = PRECEDENCE.get(self.tok.kind, 0)
            if prec < min_prec:
                return left
            op = self.advance()
            right = self.parse_expression(prec + 1)
            left = ast.BinaryExpr(x=left, op=op.text, y=right, pos=left.pos)

    def parse_unary(self) -> ast.Expr:
        pos = self.tok.pos
        kind = self.tok.kind
        if kind in (TokenKind.ADD, TokenKind.SUB, TokenKind.NOT, TokenKind.XOR,
                    TokenKind.MUL, TokenKind.AND, TokenKind.ARROW):
            op = self.advance().text
            operand = self.parse_unary()
            if op == "*":
                return ast.StarExpr(x=operand, pos=pos)
            return ast.UnaryExpr(op=op, x=operand, pos=pos)
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        expr = self.parse_operand()
        while True:
            kind = self.tok.kind
            if kind is TokenKind.PERIOD:
                self.advance()
                if self.at(TokenKind.LPAREN):
                    # Type assertion `x.(T)`.
                    self.advance()
                    type_: Optional[ast.Expr] = None
                    if self.at(TokenKind.TYPE):
                        self.advance()
                    else:
                        type_ = self.parse_type()
                    self.expect(TokenKind.RPAREN, "type assertion")
                    expr = ast.TypeAssertExpr(x=expr, type_=type_, pos=expr.pos)
                else:
                    sel = self.expect(TokenKind.IDENT, "selector").text
                    expr = ast.SelectorExpr(x=expr, sel=sel, pos=expr.pos)
            elif kind is TokenKind.LPAREN:
                self.advance()
                args: List[ast.Expr] = []
                ellipsis = False
                self._composite_ok_scope_begin()
                try:
                    while not self.at(TokenKind.RPAREN):
                        self.skip_semicolons()
                        if self.at(TokenKind.RPAREN):
                            break
                        args.append(self.parse_arg())
                        if self.at(TokenKind.ELLIPSIS):
                            self.advance()
                            ellipsis = True
                        if not self.accept(TokenKind.COMMA):
                            break
                        self.skip_semicolons()
                finally:
                    self._composite_ok_scope_end()
                self.expect(TokenKind.RPAREN, "call expression")
                expr = ast.CallExpr(fun=expr, args=args, ellipsis=ellipsis, pos=expr.pos)
            elif kind is TokenKind.LBRACK:
                self.advance()
                self._composite_ok_scope_begin()
                try:
                    low: Optional[ast.Expr] = None
                    if not self.at(TokenKind.COLON):
                        low = self.parse_expression()
                    if self.at(TokenKind.COLON):
                        self.advance()
                        high: Optional[ast.Expr] = None
                        if not self.at(TokenKind.RBRACK):
                            high = self.parse_expression()
                        self.expect(TokenKind.RBRACK, "slice expression")
                        expr = ast.SliceExpr(x=expr, low=low, high=high, pos=expr.pos)
                    else:
                        self.expect(TokenKind.RBRACK, "index expression")
                        expr = ast.IndexExpr(x=expr, index=low, pos=expr.pos)
                finally:
                    self._composite_ok_scope_end()
            elif kind is TokenKind.LBRACE and self._can_be_composite(expr):
                expr = self._parse_composite_lit(expr)
            else:
                return expr

    def parse_arg(self) -> ast.Expr:
        """Parse a call argument, which may be a type expression (``make``,
        ``new``, conversions to slice/map/chan types)."""
        if self.at(TokenKind.LBRACK, TokenKind.MAP, TokenKind.CHAN, TokenKind.STRUCT,
                   TokenKind.INTERFACE):
            type_expr = self.parse_type()
            # A composite literal may follow a slice/map/struct type argument.
            if self.at(TokenKind.LBRACE):
                return self._parse_composite_lit(type_expr)
            return type_expr
        if self.at(TokenKind.FUNC) and self.peek().kind is TokenKind.LPAREN:
            return self._parse_func_lit_or_type()
        return self.parse_expression()

    def parse_operand(self) -> ast.Expr:
        pos = self.tok.pos
        kind = self.tok.kind
        if kind is TokenKind.IDENT:
            return ast.Ident(name=self.advance().text, pos=pos)
        if kind in (TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING, TokenKind.CHAR):
            token = self.advance()
            return ast.BasicLit(kind=token.kind.name, value=token.text, pos=pos)
        if kind is TokenKind.LPAREN:
            self.advance()
            self._composite_ok_scope_begin()
            try:
                inner = self.parse_expression()
            finally:
                self._composite_ok_scope_end()
            self.expect(TokenKind.RPAREN, "parenthesized expression")
            return ast.ParenExpr(x=inner, pos=pos)
        if kind is TokenKind.FUNC:
            return self._parse_func_lit_or_type()
        if kind in (TokenKind.LBRACK, TokenKind.MAP, TokenKind.CHAN, TokenKind.STRUCT,
                    TokenKind.INTERFACE):
            type_expr = self.parse_type()
            if self.at(TokenKind.LBRACE):
                return self._parse_composite_lit(type_expr)
            return type_expr
        raise self.error(f"expected expression, found {self.tok.kind.value!r} ({self.tok.text!r})")

    def _parse_func_lit_or_type(self) -> ast.Expr:
        pos = self.expect(TokenKind.FUNC).pos
        sig = self._parse_func_signature()
        if self.at(TokenKind.LBRACE):
            body = self.parse_block()
            return ast.FuncLit(type_=sig, body=body, pos=pos)
        sig.pos = pos
        return sig

    # -- composite literal handling ----------------------------------------------------

    def _composite_ok_scope_begin(self) -> None:
        """Entering parens/brackets re-enables composite literals even inside
        an if/for/switch header."""
        self._saved_levels = getattr(self, "_saved_levels", [])
        self._saved_levels.append(self._no_composite)
        self._no_composite = 0

    def _composite_ok_scope_end(self) -> None:
        self._no_composite = self._saved_levels.pop()

    def _can_be_composite(self, expr: ast.Expr) -> bool:
        if isinstance(expr, (ast.ArrayType, ast.MapType, ast.StructType)):
            return True
        if self._no_composite > 0:
            return False
        return isinstance(expr, (ast.Ident, ast.SelectorExpr))

    def _parse_composite_lit(self, type_expr: Optional[ast.Expr]) -> ast.CompositeLit:
        pos = self.expect(TokenKind.LBRACE, "composite literal").pos
        lit = ast.CompositeLit(type_=type_expr, elts=[], pos=type_expr.pos if type_expr is not None else pos)
        self._composite_ok_scope_begin()
        try:
            self.skip_semicolons()
            while not self.at(TokenKind.RBRACE, TokenKind.EOF):
                lit.elts.append(self._parse_composite_elt())
                if not self.accept(TokenKind.COMMA):
                    self.skip_semicolons()
                    break
                self.skip_semicolons()
        finally:
            self._composite_ok_scope_end()
        self.expect(TokenKind.RBRACE, "composite literal")
        return lit

    def _parse_composite_elt(self) -> ast.Expr:
        pos = self.tok.pos
        if self.at(TokenKind.LBRACE):
            # Nested literal with elided type.
            return self._parse_composite_lit(None)
        value = self.parse_arg()
        if self.accept(TokenKind.COLON):
            if self.at(TokenKind.LBRACE):
                inner: ast.Expr = self._parse_composite_lit(None)
            else:
                inner = self.parse_arg()
            return ast.KeyValueExpr(key=value, value=inner, pos=pos)
        return value


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
    if not parser.at(TokenKind.EOF):
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
