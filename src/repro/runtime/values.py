"""Runtime value representations for the Go-subset interpreter.

Primitive Go values map onto Python natives (``int``, ``float``, ``str``,
``bool``, ``None`` for ``nil``).  Composite and reference values get explicit
wrapper classes so that sharing, pointer identity, and per-location race
detection behave like Go:

* :class:`StructValue` — named fields, each backed by a :class:`~repro.runtime.memory.Cell`;
* :class:`PointerValue` — points at a cell (``&x``) or a struct value;
* :class:`SliceValue` — shared backing store plus a header cell (len changes race
  with element reads, mirroring Go's slice semantics);
* :class:`MapValue` — one logical memory location (Go's built-in map is not
  thread-safe and the runtime flags any unsynchronized concurrent access);
* :class:`FuncValue` — a closure: function AST plus defining environment;
* :class:`ErrorValue` — the ubiquitous ``error`` interface carrying a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.golang import ast_nodes as ast
from repro.runtime.memory import Cell, Environment


class GoValue:
    """Marker base class for non-primitive runtime values."""

    __slots__ = ()


@dataclass(slots=True)
class ErrorValue(GoValue):
    """A Go ``error`` value."""

    message: str

    def __str__(self) -> str:
        return self.message


@dataclass(slots=True)
class StructValue(GoValue):
    """An instance of a struct type; each field is an addressable cell."""

    type_name: str = ""
    fields: Dict[str, Cell] = field(default_factory=dict)

    def field_cell(self, name: str, owner_name: str = "") -> Cell:
        cell = self.fields.get(name)
        if cell is None:
            label = f"{owner_name}.{name}" if owner_name else f"{self.type_name}.{name}"
            cell = Cell(value=None, name=label)
            self.fields[name] = cell
        return cell

    def copy(self) -> "StructValue":
        """A shallow Go-style struct copy: fresh cells, same field values."""
        clone = StructValue(type_name=self.type_name)
        for name, cell in self.fields.items():
            clone.fields[name] = Cell(value=cell.value, name=cell.name)
        return clone


@dataclass(slots=True)
class PointerValue(GoValue):
    """A pointer to a cell (``&x``, ``&s.f``) or directly to a struct value."""

    cell: Optional[Cell] = None
    struct: Optional[StructValue] = None

    def target_struct(self) -> Optional[StructValue]:
        if self.struct is not None:
            return self.struct
        if self.cell is not None and isinstance(self.cell.value, StructValue):
            return self.cell.value
        if self.cell is not None and isinstance(self.cell.value, PointerValue):
            return self.cell.value.target_struct()
        return None


@dataclass(slots=True)
class SliceValue(GoValue):
    """A slice sharing a backing list; ``header`` models the len/cap/data word."""

    elements: List[Any] = field(default_factory=list)
    header: Cell = field(default_factory=lambda: Cell(name="slice.header"))
    name: str = ""

    def __post_init__(self) -> None:
        if self.name and not self.header.name.startswith(self.name):
            self.header.name = f"{self.name}(slice header)"

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(slots=True)
class MapValue(GoValue):
    """A Go built-in map — not safe for concurrent use.

    ``value_type`` is the declared value type, whose zero value a read of a
    missing key returns."""

    entries: Dict[Any, Any] = field(default_factory=dict)
    location: Cell = field(default_factory=lambda: Cell(name="map"))
    name: str = ""
    value_type: Optional[ast.Expr] = None

    def __post_init__(self) -> None:
        if self.name:
            self.location.name = f"{self.name}(map)"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(slots=True)
class FuncValue(GoValue):
    """A callable: a named function, a method bound to a receiver, or a closure."""

    decl: Optional[ast.FuncDecl] = None
    lit: Optional[ast.FuncLit] = None
    env: Optional[Environment] = None
    bound_receiver: Any = None
    name: str = ""
    file: str = ""

    @property
    def func_type(self) -> ast.FuncType:
        if self.decl is not None:
            return self.decl.type_
        assert self.lit is not None
        return self.lit.type_

    @property
    def body(self) -> Optional[ast.BlockStmt]:
        if self.decl is not None:
            return self.decl.body
        assert self.lit is not None
        return self.lit.body

    def display_name(self) -> str:
        if self.name:
            return self.name
        if self.decl is not None:
            return self.decl.name
        return "func literal"


@dataclass(slots=True)
class BuiltinFunc(GoValue):
    """A builtin or stdlib-shim function implemented in Python.

    ``handler`` is a generator function ``(interp, goroutine, args, node) -> value``
    so that builtins can yield scheduling points (e.g. ``time.Sleep``).
    """

    name: str
    handler: Any


@dataclass(slots=True)
class TypeValue(GoValue):
    """A type used as a value (conversion target, ``make`` argument, composite literal)."""

    expr: ast.Expr
    name: str = ""


@dataclass(slots=True)
class TupleValue(GoValue):
    """Multiple return values in flight."""

    values: List[Any] = field(default_factory=list)


def is_truthy(value: Any) -> bool:
    """Go conditions are boolean, but the corpus occasionally compares to nil."""
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return value != ""
    return True


def zero_value(type_expr: ast.Expr | None) -> Any:
    """The Go zero value for a declared type."""
    if type_expr is None:
        return None
    if isinstance(type_expr, ast.Ident):
        name = type_expr.name
        if name in ("int", "int8", "int16", "int32", "int64",
                    "uint", "uint8", "uint16", "uint32", "uint64", "byte", "rune", "uintptr"):
            return 0
        if name in ("float32", "float64"):
            return 0.0
        if name == "string":
            return ""
        if name == "bool":
            return False
        if name == "error":
            return None
        return None
    if isinstance(type_expr, ast.ArrayType):
        return SliceValue()
    if isinstance(type_expr, ast.MapType):
        return None  # nil map — reads yield zero values, writes panic (like Go)
    if isinstance(type_expr, ast.StructType):
        struct = StructValue()
        for fld in type_expr.fields:
            for name in fld.names:
                struct.fields[name] = Cell(value=zero_value(fld.type_), name=name)
        return struct
    if isinstance(type_expr, (ast.StarExpr, ast.ChanType, ast.FuncType, ast.InterfaceType)):
        return None
    if isinstance(type_expr, ast.SelectorExpr):
        # Qualified types: sync.Mutex etc. are materialized lazily by the
        # interpreter; other packages' types default to nil.
        return None
    return None


def format_value(value: Any) -> str:
    """Render a runtime value roughly like ``fmt.Sprintf("%v", value)``."""
    if value is None:
        return "<nil>"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, ErrorValue):
        return value.message
    if isinstance(value, StructValue):
        inner = " ".join(format_value(cell.value) for cell in value.fields.values())
        return "{" + inner + "}"
    if isinstance(value, SliceValue):
        return "[" + " ".join(format_value(v) for v in value.elements) + "]"
    if isinstance(value, MapValue):
        items = sorted(value.entries.items(), key=lambda kv: str(kv[0]))
        return "map[" + " ".join(f"{k}:{format_value(v)}" for k, v in items) + "]"
    if isinstance(value, PointerValue):
        target = value.target_struct()
        return "&" + format_value(target) if target is not None else "<ptr>"
    if isinstance(value, FuncValue):
        return f"<func {value.display_name()}>"
    return str(value)
