"""Dataset container and corpus statistics (feeds Table 1 and Table 3)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.diagnosis.categories import CategoryDistribution, RaceCategory
from repro.corpus.ground_truth import RaceCase


@dataclass
class CorpusStatistics:
    """Aggregate size statistics of a set of cases (the Table 1 analogue)."""

    packages: int = 0
    files: int = 0
    test_files: int = 0
    product_files: int = 0
    lines: int = 0
    test_lines: int = 0
    product_lines: int = 0
    concurrency_files: int = 0
    concurrency_lines: int = 0

    def as_rows(self) -> List[tuple[str, int, int, int]]:
        """Rows shaped like Table 1: (metric, total, product, test)."""
        return [
            ("Files", self.files, self.product_files, self.test_files),
            ("Lines of code", self.lines, self.product_lines, self.test_lines),
        ]


@dataclass
class Dataset:
    """The two corpus splits plus derived statistics."""

    db_examples: List[RaceCase] = field(default_factory=list)
    evaluation: List[RaceCase] = field(default_factory=list)
    config: Optional[object] = None

    # ------------------------------------------------------------------

    def all_cases(self) -> List[RaceCase]:
        return list(self.db_examples) + list(self.evaluation)

    def fixable_eval_cases(self) -> List[RaceCase]:
        return [case for case in self.evaluation if case.expected_unfixed_reason is None]

    def unfixable_eval_cases(self) -> List[RaceCase]:
        return [case for case in self.evaluation if case.expected_unfixed_reason is not None]

    def category_distribution(self, cases: Optional[List[RaceCase]] = None) -> CategoryDistribution:
        cases = cases if cases is not None else self.evaluation
        counts: Dict[RaceCategory, int] = {}
        for case in cases:
            counts[case.category] = counts.get(case.category, 0) + 1
        return CategoryDistribution(counts=counts)

    # ------------------------------------------------------------------

    def statistics(self, cases: Optional[List[RaceCase]] = None) -> CorpusStatistics:
        cases = cases if cases is not None else self.all_cases()
        stats = CorpusStatistics()
        stats.packages = len(cases)
        for case in cases:
            for file in case.package.files:
                lines = len(file.source.splitlines())
                stats.files += 1
                stats.lines += lines
                if file.is_test_file():
                    stats.test_files += 1
                    stats.test_lines += lines
                else:
                    stats.product_files += 1
                    stats.product_lines += lines
                if _mentions_concurrency(file.source):
                    stats.concurrency_files += 1
                    stats.concurrency_lines += lines
        return stats


def _mentions_concurrency(source: str) -> bool:
    markers = ("go func", "sync.", "chan ", "<-", "atomic.", "t.Parallel")
    return any(marker in source for marker in markers)
