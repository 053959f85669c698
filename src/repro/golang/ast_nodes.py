"""AST node definitions for the Go subset.

Every node carries a :class:`~repro.golang.tokens.Position` (``pos``) pointing
at its first token so that the race detector, the skeletonizer, and the
patcher can all refer back to source lines.  Nodes are plain dataclasses.

Trees returned by :func:`repro.golang.parser.parse_file` are shared between
every caller that parses the same source, so they are read-only.  Code that
transforms a program (fix strategies, the skeletonizer) first takes a private
copy with :func:`clone` and mutates that copy in place before pretty-printing
it back to source; code that only rearranges a file's top-level declarations
(the patcher) copies the ``File`` with a fresh ``decls`` list instead.
Nothing writes to a tree after parsing: the runtime keeps what it derives
from a tree in its own caches, keyed by node identity.

The generic walkers (:meth:`Node.children`, :func:`clone`) read each class's
dataclass fields by name, never the instance dictionary: on CPython 3.11+
asking for it allocates a GC-tracked dict per node visited.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict, Iterator, List, Optional, Tuple

from repro.golang.tokens import Position


# ---------------------------------------------------------------------------
# Base node
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """Base class for all AST nodes."""

    pos: Position = field(default_factory=Position, kw_only=True)

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (used by generic walkers)."""
        for name in _field_names(type(self)):
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, Node):
                        yield item


#: Per node class, its dataclass field names in declaration order, ``pos``
#: excluded (positions are frozen leaves); filled on first use.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(cls: type) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            f.name for f in dataclass_fields(cls) if f.name != "pos")
    return names


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant in depth-first pre-order."""
    yield node
    for child in node.children():
        yield from walk(child)


def clone(node: Node) -> Node:
    """A private, mutable copy of ``node``'s tree.

    Every node and list is fresh; the frozen positions and the strings are
    shared, which is what makes this much cheaper than ``copy.deepcopy``."""
    cls = type(node)
    copy = object.__new__(cls)
    # Attributes are set in ``__init__``'s order, so the copy keeps its
    # values inline exactly like a parsed node.
    copy.pos = node.pos
    for name in _field_names(cls):
        value = getattr(node, name)
        if isinstance(value, Node):
            value = clone(value)
        elif isinstance(value, list):
            value = [_clone_value(item) for item in value]
        setattr(copy, name, value)
    return copy


def _clone_value(value):
    if isinstance(value, Node):
        return clone(value)
    if isinstance(value, list):
        return [_clone_value(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class BasicLit(Expr):
    """Integer, float, string, or rune literal. ``kind`` is one of
    ``"INT" | "FLOAT" | "STRING" | "CHAR"``."""

    kind: str = "INT"
    value: str = ""


@dataclass
class SelectorExpr(Expr):
    """``x.Sel`` — field access, method value, or package-qualified name."""

    x: Expr = None
    sel: str = ""


@dataclass
class IndexExpr(Expr):
    """``x[index]``"""

    x: Expr = None
    index: Expr = None


@dataclass
class SliceExpr(Expr):
    """``x[low:high]`` (either bound may be ``None``)."""

    x: Expr = None
    low: Optional[Expr] = None
    high: Optional[Expr] = None


@dataclass
class CallExpr(Expr):
    """``fun(args...)``; ``ellipsis`` marks a final ``...`` spread argument."""

    fun: Expr = None
    args: List[Expr] = field(default_factory=list)
    ellipsis: bool = False


@dataclass
class UnaryExpr(Expr):
    """Unary operation; ``op`` in ``- ! & * <- ^``. ``*`` is dereference,
    ``&`` is address-of, ``<-`` is channel receive."""

    op: str = ""
    x: Expr = None


@dataclass
class BinaryExpr(Expr):
    x: Expr = None
    op: str = ""
    y: Expr = None


@dataclass
class ParenExpr(Expr):
    x: Expr = None


@dataclass
class TypeAssertExpr(Expr):
    """``x.(Type)``; ``type_`` is ``None`` for ``x.(type)`` in type switches."""

    x: Expr = None
    type_: Optional[Expr] = None


@dataclass
class KeyValueExpr(Expr):
    """``key: value`` inside a composite literal."""

    key: Expr = None
    value: Expr = None


@dataclass
class CompositeLit(Expr):
    """``Type{elts...}``; ``type_`` may be ``None`` inside nested literals."""

    type_: Optional[Expr] = None
    elts: List[Expr] = field(default_factory=list)


@dataclass
class FuncLit(Expr):
    """Anonymous function (closure)."""

    type_: "FuncType" = None
    body: "BlockStmt" = None


# ---------------------------------------------------------------------------
# Type expressions (types are expressions in this subset, mirroring go/ast)
# ---------------------------------------------------------------------------


@dataclass
class StarExpr(Expr):
    """``*T`` as a type, or pointer dereference when used as a value."""

    x: Expr = None


@dataclass
class ArrayType(Expr):
    """``[]T`` (slices only — fixed-size arrays degrade to slices)."""

    elt: Expr = None
    length: Optional[Expr] = None


@dataclass
class MapType(Expr):
    key: Expr = None
    value: Expr = None


@dataclass
class ChanType(Expr):
    """``chan T`` — direction annotations are accepted but not preserved."""

    value: Expr = None


@dataclass
class Field(Node):
    """A struct field, parameter, or result: ``names type``; anonymous fields
    and unnamed parameters have an empty ``names`` list."""

    names: List[str] = field(default_factory=list)
    type_: Expr = None
    variadic: bool = False


@dataclass
class StructType(Expr):
    fields: List[Field] = field(default_factory=list)


@dataclass
class InterfaceType(Expr):
    """Interface type; method sets are kept only as printable fields."""

    methods: List[Field] = field(default_factory=list)


@dataclass
class FuncType(Expr):
    params: List[Field] = field(default_factory=list)
    results: List[Field] = field(default_factory=list)


@dataclass
class Ellipsis(Expr):
    """``...T`` in a parameter list or ``...`` in an index-free context."""

    elt: Optional[Expr] = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class ExprStmt(Stmt):
    x: Expr = None


@dataclass
class SendStmt(Stmt):
    """``chan <- value``"""

    chan: Expr = None
    value: Expr = None


@dataclass
class IncDecStmt(Stmt):
    x: Expr = None
    op: str = "++"


@dataclass
class AssignStmt(Stmt):
    """Assignment or short variable declaration.

    ``tok`` is ``"="`` for plain assignment, ``":="`` for short declaration or
    an augmented operator such as ``"+="``.
    """

    lhs: List[Expr] = field(default_factory=list)
    tok: str = "="
    rhs: List[Expr] = field(default_factory=list)


@dataclass
class DeclStmt(Stmt):
    """A ``var``/``const``/``type`` declaration used in statement position."""

    decl: "GenDecl" = None


@dataclass
class GoStmt(Stmt):
    call: CallExpr = None


@dataclass
class DeferStmt(Stmt):
    call: CallExpr = None


@dataclass
class ReturnStmt(Stmt):
    results: List[Expr] = field(default_factory=list)


@dataclass
class BranchStmt(Stmt):
    """``break``, ``continue``, ``goto``, or ``fallthrough`` with optional label."""

    tok: str = "break"
    label: Optional[str] = None


@dataclass
class BlockStmt(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class IfStmt(Stmt):
    init: Optional[Stmt] = None
    cond: Expr = None
    body: BlockStmt = None
    else_: Optional[Stmt] = None  # BlockStmt or IfStmt


@dataclass
class CaseClause(Node):
    """A case inside a ``switch``; ``exprs`` empty means ``default``."""

    exprs: List[Expr] = field(default_factory=list)
    body: List[Stmt] = field(default_factory=list)


@dataclass
class SwitchStmt(Stmt):
    init: Optional[Stmt] = None
    tag: Optional[Expr] = None
    cases: List[CaseClause] = field(default_factory=list)


@dataclass
class CommClause(Node):
    """A case inside a ``select``; ``comm`` is ``None`` for ``default``."""

    comm: Optional[Stmt] = None
    body: List[Stmt] = field(default_factory=list)


@dataclass
class SelectStmt(Stmt):
    cases: List[CommClause] = field(default_factory=list)


@dataclass
class ForStmt(Stmt):
    """Three-clause or condition-only ``for`` loop (``for {}`` has all None).
    ``label`` names the loop when it is the statement of a
    :class:`LabeledStmt` (set by the parser)."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    post: Optional[Stmt] = None
    body: BlockStmt = None
    label: Optional[str] = None


@dataclass
class RangeStmt(Stmt):
    """``for key, value := range x { ... }``; ``tok`` is ``":="`` or ``"="``
    or ``""`` when no variables are bound.  ``label`` as for
    :class:`ForStmt`."""

    key: Optional[Expr] = None
    value: Optional[Expr] = None
    tok: str = ":="
    x: Expr = None
    body: BlockStmt = None
    label: Optional[str] = None


@dataclass
class LabeledStmt(Stmt):
    label: str = ""
    stmt: Stmt = None


@dataclass
class EmptyStmt(Stmt):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Decl(Node):
    """Base class for top-level declarations."""


@dataclass
class ImportSpec(Node):
    path: str = ""
    name: Optional[str] = None


@dataclass
class ValueSpec(Node):
    """``names [type] [= values]`` inside a var/const declaration."""

    names: List[str] = field(default_factory=list)
    type_: Optional[Expr] = None
    values: List[Expr] = field(default_factory=list)


@dataclass
class TypeSpec(Node):
    name: str = ""
    type_: Expr = None


@dataclass
class GenDecl(Decl):
    """A ``import``/``var``/``const``/``type`` declaration (possibly grouped)."""

    tok: str = "var"
    specs: List[Node] = field(default_factory=list)


@dataclass
class FuncDecl(Decl):
    """A function or method declaration; ``recv`` is ``None`` for functions."""

    recv: Optional[Field] = None
    name: str = ""
    type_: FuncType = None
    body: Optional[BlockStmt] = None


@dataclass
class File(Node):
    """A single Go source file."""

    package: str = "main"
    imports: List[ImportSpec] = field(default_factory=list)
    decls: List[Decl] = field(default_factory=list)
    name: str = "<source>"

    def func_decls(self) -> List[FuncDecl]:
        """Return all top-level function/method declarations."""
        return [d for d in self.decls if isinstance(d, FuncDecl)]

    def find_func(self, name: str) -> Optional[FuncDecl]:
        """Return the first function/method declaration named ``name``."""
        for decl in self.func_decls():
            if decl.name == name:
                return decl
        return None

    def type_decls(self) -> List[TypeSpec]:
        """Return every type spec declared at the top level."""
        specs: List[TypeSpec] = []
        for decl in self.decls:
            if isinstance(decl, GenDecl) and decl.tok == "type":
                specs.extend(s for s in decl.specs if isinstance(s, TypeSpec))
        return specs

    def find_type(self, name: str) -> Optional[TypeSpec]:
        for spec in self.type_decls():
            if spec.name == name:
                return spec
        return None


# ---------------------------------------------------------------------------
# Helpers used throughout the code base
# ---------------------------------------------------------------------------


def ident(name: str, pos: Position | None = None) -> Ident:
    """Construct an :class:`Ident` (convenience for fix strategies)."""
    return Ident(name=name, pos=pos or Position())


def selector(path: str) -> Expr:
    """Build a selector expression from a dotted path such as ``"sync.Mutex"``."""
    parts = path.split(".")
    expr: Expr = Ident(name=parts[0])
    for part in parts[1:]:
        expr = SelectorExpr(x=expr, sel=part)
    return expr


def call(fun: str | Expr, *args: Expr) -> CallExpr:
    """Build a call expression; ``fun`` may be a dotted path string."""
    fun_expr = selector(fun) if isinstance(fun, str) else fun
    return CallExpr(fun=fun_expr, args=list(args))


def string_lit(value: str) -> BasicLit:
    return BasicLit(kind="STRING", value=value)


def int_lit(value: int) -> BasicLit:
    return BasicLit(kind="INT", value=str(value))


def expr_to_string(expr: Expr | None) -> str:
    """Render an expression to compact source text (used for diagnostics)."""
    from repro.golang.printer import print_node

    if expr is None:
        return ""
    return print_node(expr)


def base_name(expr: Expr | None) -> str | None:
    """Return the left-most identifier name of an lvalue expression.

    ``a.b.c[i]`` → ``"a"``; returns ``None`` when the expression does not
    bottom out at an identifier (e.g. a call result).
    """
    while expr is not None:
        if isinstance(expr, Ident):
            return expr.name
        if isinstance(expr, (SelectorExpr, IndexExpr, SliceExpr)):
            expr = expr.x
        elif isinstance(expr, (StarExpr, ParenExpr, UnaryExpr)):
            expr = expr.x
        elif isinstance(expr, TypeAssertExpr):
            expr = expr.x
        else:
            return None
    return None
