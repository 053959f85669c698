"""Shared-memory cells and memory locations.

Every mutable storage slot the interpreter can read or write — a local
variable, a struct field, a map, a slice header, a slice element, a package-
level variable — is backed by a :class:`Cell`.  Cells have stable integer
addresses so race reports can print ThreadSanitizer-style ``0x...`` addresses,
and they carry a human-readable description (variable name / field path) used
both in reports and by the skeletonizer's notion of "racy variable".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Where the next cell's address comes from.  Read at every allocation, so
#: rebinding it (see :func:`repro.testing.reset_addresses`) restarts the
#: numbering.
_address_counter = itertools.count(0xC000000000, 0x10)


@dataclass(slots=True, init=False)
class Cell:
    """A single addressable storage slot."""

    value: Any
    name: str
    address: int
    #: When True the cell belongs to an internally synchronized object
    #: (e.g. ``sync.Map`` buckets) and accesses are never reported as races.
    synchronized: bool

    def __init__(self, value: Any = None, name: str = "", address: Optional[int] = None,
                 synchronized: bool = False):
        # Hand-written so the address comes from the counter without a
        # default-factory call per cell.
        self.value = value
        self.name = name
        self.address = next(_address_counter) if address is None else address
        self.synchronized = synchronized

    def describe(self) -> str:
        return self.name or f"0x{self.address:012x}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Cell({self.name!r}={self.value!r})"


class Environment:
    """A lexical environment mapping names to :class:`Cell` objects.

    Closures share the parent environment's cells, which is exactly how Go's
    capture-by-reference works and what produces the paper's dominant race
    category.
    """

    __slots__ = ("parent", "cells")

    def __init__(self, parent: Optional["Environment"] = None):
        self.parent = parent
        self.cells: Dict[str, Cell] = {}

    def declare(self, name: str, value: Any = None) -> Cell:
        """Create a fresh cell for ``name`` in this environment."""
        cell = Cell(value=value, name=name)
        if name != "_":
            self.cells[name] = cell
        return cell

    def lookup(self, name: str) -> Optional[Cell]:
        env: Optional[Environment] = self
        while env is not None:
            cell = env.cells.get(name)
            if cell is not None:
                return cell
            env = env.parent
        return None

    def is_local(self, name: str) -> bool:
        return name in self.cells

    def child(self) -> "Environment":
        return Environment(parent=self)

    def flat_names(self) -> Dict[str, Cell]:
        """All visible names (outer shadowed by inner); used in diagnostics."""
        chain = []
        env: Optional[Environment] = self
        while env is not None:
            chain.append(env)
            env = env.parent
        result: Dict[str, Cell] = {}
        for env in reversed(chain):
            result.update(env.cells)
        return result
