"""The example database: skeletonize → embed → store → retrieve (Sections 3.1, 4.1).

Each entry binds the embedding of a buggy example's *concurrency skeleton* to
the (racy code, fixed code) pair.  Queries embed the new racy code item the
same way and retrieve the nearest example by cosine similarity.  A raw-text
mode (no skeletonization) is provided for the Figure 3 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from repro.core.config import DrFixConfig
from repro.core.race_info import CodeItem
from repro.core.skeleton import Skeletonizer
from repro.embedding.embedder import CodeEmbedder
from repro.embedding.vector_store import QueryResult, VectorStore


@dataclass
class ExampleEntry:
    """One curated example: a previously fixed data race."""

    example_id: str
    buggy_code: str
    fixed_code: str
    skeleton: str = ""
    category: str = ""
    strategy: str = ""
    metadata: dict = field(default_factory=dict)

    def as_pair(self) -> tuple[str, str]:
        return self.buggy_code, self.fixed_code


class ExampleDatabase:
    """Vector database of previously fixed races."""

    def __init__(self, config: Optional[DrFixConfig] = None):
        self.config = (config or DrFixConfig()).validated()
        self.embedder = CodeEmbedder(self.config.embedder)
        self.skeletonizer = Skeletonizer()
        self.store = VectorStore(dimensions=self.embedder.dimensions)
        self._entries: dict[str, ExampleEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> List[ExampleEntry]:
        return list(self._entries.values())

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def _prepare(self, entry: ExampleEntry, racy_variable: str = "") -> tuple:
        """Skeletonize + embed one example into a vector-store row."""
        if not entry.skeleton:
            entry.skeleton = self.skeletonizer.skeletonize_source(
                entry.buggy_code, racy_variables=[racy_variable] if racy_variable else ()
            ).text
        key_text = entry.skeleton if self.config.use_skeleton else entry.buggy_code
        vector = self.embedder.embed(key_text)
        return (
            entry.example_id,
            vector,
            key_text,
            {"category": entry.category, "strategy": entry.strategy},
        )

    def add_example(self, entry: ExampleEntry, racy_variable: str = "") -> ExampleEntry:
        """Skeletonize, embed, and store one example."""
        self.store.add(*self._prepare(entry, racy_variable))
        self._entries[entry.example_id] = entry
        return entry

    def add_examples(self, entries: Iterable[ExampleEntry],
                     racy_variables: Sequence[str] = ()) -> None:
        """Batch population through :meth:`VectorStore.add_many` (no per-item
        similarity-matrix work).  ``racy_variables``, when given, pairs up
        with ``entries`` for skeletonization."""
        entries = list(entries)
        variables = list(racy_variables) + [""] * (len(entries) - len(racy_variables))
        self.store.add_many(
            self._prepare(entry, racy_variable)
            for entry, racy_variable in zip(entries, variables)
        )
        for entry in entries:
            self._entries[entry.example_id] = entry

    @classmethod
    def from_cases(cls, cases: Sequence["RaceCase"], config: Optional[DrFixConfig] = None
                   ) -> "ExampleDatabase":
        """Build a database from corpus cases (the curated fixed examples)."""
        database = cls(config)
        database.add_examples(
            [ExampleEntry(
                example_id=case.case_id,
                buggy_code=case.racy_source(),
                fixed_code=case.fixed_source(),
                category=case.category.value,
                strategy=case.fix_strategy,
            ) for case in cases],
            racy_variables=[case.racy_variable for case in cases],
        )
        return database

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def query_code(self, code: str, racy_variable: str = "",
                   racy_lines: Sequence[int] = (),
                   filename: str = "<source>") -> Optional[QueryResult]:
        """Retrieve the nearest example for a racy code item.

        ``filename`` names the code's file, so that skeletonizing a whole file
        reuses the tree the build already parsed."""
        if not code.strip() or len(self.store) == 0:
            return None
        if self.config.use_skeleton:
            key_text = self.skeletonizer.skeletonize_source(
                code,
                racy_lines=racy_lines,
                racy_variables=[racy_variable] if racy_variable else (),
                filename=filename,
            ).text
        else:
            key_text = code
        vector = self.embedder.embed(key_text)
        results = self.store.query(vector, k=1)
        return results[0] if results else None

    def best_example(self, item: CodeItem) -> Optional[ExampleEntry]:
        """The nearest example for a pipeline code item (or None)."""
        result = self.query_code(
            item.code, racy_variable=item.racy_variable, racy_lines=item.racy_lines,
            filename=item.file_name,
        )
        if result is None:
            return None
        return self._entries.get(result.item_id)
