"""AST node definitions for the Go subset.

Every node carries a :class:`~repro.golang.tokens.Position` (``pos``) pointing
at its first token so that the race detector, the skeletonizer, and the
patcher can all refer back to source lines.  Nodes are plain dataclasses; a
node built without a position (by a fix strategy or the compiler) shares the
one frozen :data:`NO_POSITION`.

Trees returned by :func:`repro.golang.parser.parse_file` are shared between
every caller that parses the same source, so they are read-only.  Code that
transforms a program (fix strategies, the skeletonizer) first takes a private
copy with :func:`clone` and mutates that copy in place before pretty-printing
it back to source; code that only rearranges a file's top-level declarations
(the patcher) copies the ``File`` with a fresh ``decls`` list instead.
Nothing writes to a tree after parsing: the runtime keeps what it derives
from a tree in its own caches, keyed by node identity.

Every analysis walks trees, so the generic traversal is built for speed.
Each node class gets its own :meth:`Node.children`, generated once when this
module loads from the class's dataclass fields (the way ``dataclasses``
generates ``__init__``): straight-line code that reads exactly the fields
whose annotation names a node class or a list of one, in declaration order,
and returns a new list.  :func:`walk` is an explicit-stack pre-order loop
over it, so a tree of any depth walks, and :func:`clone` copies through the
same per-class field layout.  Neither reads the instance dictionary: on
CPython 3.11+ asking for it allocates a GC-tracked dict per node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Iterator, List, Optional

from repro.golang.tokens import Position

#: The position of every node built without one.  Positions are frozen, so
#: one object serves them all.
NO_POSITION = Position()


# ---------------------------------------------------------------------------
# Base node
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """Base class for all AST nodes."""

    pos: Position = field(default=NO_POSITION, kw_only=True)

    # Per class, its fields other than ``pos`` as ``(name, kind)`` pairs in
    # declaration order, ``kind`` one of the ``_NODE``, ``_NODE_LIST`` and
    # ``_SCALAR`` markers; set with ``children`` by :func:`_install`.  (Not
    # annotated, so it is not a dataclass field.)
    _layout = ()

    def children(self) -> List["Node"]:
        """The direct child nodes, in field order, as a new list (used by
        the generic walkers).  Every subclass gets its own, generated by
        :func:`_install`."""
        return []


_NODE, _NODE_LIST, _SCALAR = "node", "node list", "scalar"


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and every descendant in depth-first pre-order.

    A node's children are read when the walk expands it, right after the
    consumer has been handed that node: a consumer that rewrites the node it
    was handed sees the walk descend into the new children, but a change to
    a node the walk has already expanded is not seen."""
    stack = [node]
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        children = node.children()
        if children:
            children.reverse()
            stack += children


def clone(node: Node) -> Node:
    """A private, mutable copy of ``node``'s tree.

    Every node and list is fresh; the frozen positions and the strings are
    shared, which is what makes this much cheaper than ``copy.deepcopy``."""
    cls = type(node)
    copy = object.__new__(cls)
    # Attributes are set in ``__init__``'s order, so the copy keeps its
    # values inline exactly like a parsed node.
    copy.pos = node.pos
    for name, kind in cls._layout:
        value = getattr(node, name)
        if kind is _NODE:
            if value is not None:
                value = clone(value)
        elif kind is _NODE_LIST:
            value = [clone(item) for item in value]
        elif type(value) is list:  # names
            value = value[:]
        setattr(copy, name, value)
    return copy


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
    return Ident(name=name, pos=pos or NO_POSITION)


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


def int_lit(value: int) -> BasicLit:
    return BasicLit(kind="INT", value=str(value))


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


# ---------------------------------------------------------------------------
# Per-class child accessors
# ---------------------------------------------------------------------------


def _field_kind(annotation: str) -> str:
    """``_NODE``, ``_NODE_LIST`` or ``_SCALAR`` for a field annotation such
    as ``"Optional[Expr]"``, ``"List[Stmt]"`` or ``"List[str]"``."""
    match = re.fullmatch(r"(List|Optional)\[(.*)\]", annotation)
    inner = match[2] if match else annotation
    target = globals().get(inner.strip("'\""))
    if not (isinstance(target, type) and issubclass(target, Node)):
        return _SCALAR
    return _NODE_LIST if match and match[1] == "List" else _NODE


def _install(cls: type) -> None:
    """Give ``cls`` its field layout and its generated ``children``."""
    cls._layout = tuple((f.name, _field_kind(f.type))
                        for f in dataclass_fields(cls) if f.name != "pos")
    lines = ["def children(self):", "    out = []"]
    for name, kind in cls._layout:
        if kind is _NODE:
            lines += [f"    value = self.{name}",
                      "    if value is not None:",
                      "        out.append(value)"]
        elif kind is _NODE_LIST:
            lines.append(f"    out += self.{name}")
    lines.append("    return out")
    namespace: dict = {}
    exec("\n".join(lines), {}, namespace)
    children = namespace["children"]
    children.__qualname__ = f"{cls.__qualname__}.children"
    children.__doc__ = Node.children.__doc__
    cls.children = children


def _node_classes(cls: type = Node) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


for _cls in _node_classes():
    _install(_cls)
del _cls
