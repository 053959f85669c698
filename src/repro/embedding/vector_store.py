"""An in-memory exact-nearest-neighbour vector store (ChromaDB substitute).

The store keeps ``(id, vector, document, metadata)`` tuples and answers cosine
nearest-neighbour queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import RetrievalError
from repro.embedding.similarity import cosine_similarity_matrix, top_k


@dataclass
class StoredItem:
    """One entry of the vector store."""

    item_id: str
    vector: np.ndarray
    document: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)


@dataclass
class QueryResult:
    """One nearest-neighbour match."""

    item: StoredItem
    score: float

    @property
    def item_id(self) -> str:
        return self.item.item_id

    @property
    def metadata(self) -> Dict[str, Any]:
        return self.item.metadata

    @property
    def document(self) -> str:
        return self.item.document


class VectorStore:
    """Exact cosine-similarity vector store."""

    def __init__(self, dimensions: int):
        if dimensions <= 0:
            raise RetrievalError("vector store dimensionality must be positive")
        self.dimensions = dimensions
        self._items: List[StoredItem] = []
        self._matrix: Optional[np.ndarray] = None
        #: How many leading items ``_matrix`` currently covers.  Appends past
        #: this point are folded in lazily (one stack per query batch) instead
        #: of recomputing the whole matrix; replacements force a full rebuild.
        self._matrix_rows: int = 0
        self._matrix_stale: bool = False
        self._ids: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._ids

    def items(self) -> List[StoredItem]:
        return list(self._items)

    def get(self, item_id: str) -> Optional[StoredItem]:
        index = self._ids.get(item_id)
        if index is None:
            return None
        return self._items[index]

    # ------------------------------------------------------------------

    def add(
        self,
        item_id: str,
        vector: Sequence[float] | np.ndarray,
        document: str = "",
        metadata: Optional[Dict[str, Any]] = None,
    ) -> StoredItem:
        """Add or replace an entry.

        Adding never recomputes the similarity matrix — a new row is folded
        in lazily on the next query, so populating a database is O(n) instead
        of O(n²) in matrix work."""
        array = np.asarray(vector, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise RetrievalError(
                f"vector has shape {array.shape}, expected ({self.dimensions},)"
            )
        item = StoredItem(item_id=item_id, vector=array, document=document,
                          metadata=dict(metadata or {}))
        existing = self._ids.get(item_id)
        if existing is not None:
            self._items[existing] = item
            if existing < self._matrix_rows:
                # An already-materialized row changed; the next query rebuilds.
                self._matrix_stale = True
        else:
            self._ids[item_id] = len(self._items)
            self._items.append(item)
        return item

    def add_many(
        self,
        items: "Sequence[tuple] | Any",
    ) -> List[StoredItem]:
        """Batch insert/replace ``(item_id, vector, document, metadata)`` rows.

        A convenience wrapper over :meth:`add` for population call sites
        (e.g. :class:`repro.core.database.ExampleDatabase`); the laziness
        that makes population O(n) — no matrix work on add, appends folded in
        on the next query — lives in :meth:`add`/:meth:`_ensure_matrix`
        themselves."""
        return [self.add(*item) for item in items]

    def _ensure_matrix(self) -> np.ndarray:
        items = self._items
        if self._matrix_stale or self._matrix is None:
            if items:
                self._matrix = np.vstack([item.vector for item in items])
            else:
                self._matrix = np.zeros((0, self.dimensions))
            self._matrix_rows = len(items)
            self._matrix_stale = False
        elif self._matrix_rows < len(items):
            # Pure appends since the last build: stack only the new rows.
            new_rows = [item.vector for item in items[self._matrix_rows:]]
            self._matrix = np.vstack([self._matrix] + new_rows) \
                if self._matrix.size else np.vstack(new_rows)
            self._matrix_rows = len(items)
        return self._matrix

    def query(
        self,
        vector: Sequence[float] | np.ndarray,
        k: int = 1,
        where: Optional[Dict[str, Any]] = None,
    ) -> List[QueryResult]:
        """Return the ``k`` nearest entries by cosine similarity.

        ``where`` filters on exact metadata equality (a small subset of
        ChromaDB's filtering API, sufficient for the pipeline and tests).
        """
        array = np.asarray(vector, dtype=np.float64)
        if array.shape != (self.dimensions,):
            raise RetrievalError(
                f"query vector has shape {array.shape}, expected ({self.dimensions},)"
            )
        candidates = list(range(len(self._items)))
        if where:
            candidates = [
                index
                for index in candidates
                if all(self._items[index].metadata.get(key) == value for key, value in where.items())
            ]
        if not candidates:
            return []
        matrix = self._ensure_matrix()[candidates]
        scores = cosine_similarity_matrix(array, matrix)
        best = top_k(scores, k)
        return [
            QueryResult(item=self._items[candidates[index]], score=float(scores[index]))
            for index in best
        ]
