"""Ground-truth records for corpus cases.

A :class:`RaceCase` couples a racy package with the human (ground-truth) fix,
the race's category and difficulty, and the structural attributes the
evaluation relies on (does the fix need file scope? is the right fix location
the test or the LCA? how many lines did the human change?).
"""

from __future__ import annotations

import difflib
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.diagnosis.categories import RaceCategory, UnfixedReason
from repro.runtime.harness import GoPackage, PackageRunResult, run_package_tests
from repro.runtime.race_report import RaceReport


class Difficulty(enum.Enum):
    """How much guidance the fix needs (drives the RAG ablation mechanism)."""

    #: A well-known idiom any modern LLM produces unaided (redeclaration,
    #: loop-variable privatization).
    SIMPLE = "simple"
    #: Requires picking the right structural change; base models often manage,
    #: guided models reliably do.
    MODERATE = "moderate"
    #: Requires non-local restructuring (type changes, new synchronization
    #: objects, channel rewiring) — the cases Table 4 attributes to RAG.
    COMPLEX = "complex"


@dataclass
class RaceCase:
    """One synthetic data race with its ground truth."""

    case_id: str
    category: RaceCategory
    package: GoPackage
    fixed_package: GoPackage
    racy_file: str
    racy_function: str
    racy_variable: str
    fix_strategy: str
    difficulty: Difficulty = Difficulty.MODERATE
    description: str = ""
    #: True when the correct fix touches declarations outside the racy function
    #: (struct fields, other functions, package-level state).
    requires_file_scope: bool = False
    #: True when the fix must be applied at the goroutines' lowest common
    #: ancestor rather than at a leaf function.
    requires_lca: bool = False
    #: True when the root cause (and fix) is in the test, not the code under test.
    fix_in_test: bool = False
    #: Set for cases designed to defeat the pipeline (Table 5).
    expected_unfixed_reason: Optional[UnfixedReason] = None
    #: Name of the test function that exercises the race.
    test_function: str = ""
    #: Model ThreadSanitizer's two-level ancestry limit / truncated calling
    #: contexts: creation stacks and non-leaf frames are dropped from reports.
    truncate_ancestry: bool = False
    #: Ground-truth label: False for sync-injected (race-free) mutants, whose
    #: package must build, pass its tests, and report no race.
    expected_race: bool = True
    #: ``case_id`` of the template case this mutant derives from ("" for
    #: template-generated bases).
    base_case_id: str = ""
    #: Mutation provenance, in application order (``op(key=value,...)``).
    mutations: List[str] = field(default_factory=list)
    seed: int = 0
    #: Detection results by ``(runs, seed)``; ``None`` means empty.  Replaced,
    #: never mutated, so a ``dataclasses.replace`` copy cannot write through.
    _detection_cache: Optional[Dict[Tuple[int, int], PackageRunResult]] = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------

    def human_fix_loc(self) -> int:
        """Lines of code changed by the ground-truth fix (added + removed)."""
        changed = 0
        for racy_file in self.package.files:
            fixed_file = self.fixed_package.file(racy_file.name)
            if fixed_file is None:
                changed += len(racy_file.source.splitlines())
                continue
            diff = difflib.unified_diff(
                racy_file.source.splitlines(), fixed_file.source.splitlines(), lineterm=""
            )
            for line in diff:
                if line.startswith(("+", "-")) and not line.startswith(("+++", "---")):
                    changed += 1
        for fixed_file in self.fixed_package.files:
            if self.package.file(fixed_file.name) is None:
                changed += len(fixed_file.source.splitlines())
        return changed

    def racy_source(self) -> str:
        file = self.package.file(self.racy_file)
        return file.source if file is not None else ""

    def fixed_source(self) -> str:
        file = self.fixed_package.file(self.racy_file)
        return file.source if file is not None else ""

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def detect(self, runs: int = 10, seed: int = 0, force: bool = False) -> PackageRunResult:
        """Run the racy package under the detector, cached per ``(runs, seed)``."""
        cache = self._detection_cache or {}
        result = cache.get((runs, seed))
        if result is None or force:
            result = run_package_tests(self.package, runs=runs, seed=seed)
            self._detection_cache = {**cache, (runs, seed): result}
        return result

    def race_report(self, runs: int = 10, seed: int = 0) -> Optional[RaceReport]:
        """The first detected race report for this case (None if not reproduced)."""
        result = self.detect(runs=runs, seed=seed)
        preferred = [
            report for report in result.reports
            if self.racy_variable and self.racy_variable in (report.variable or "")
        ]
        report = preferred[0] if preferred else (result.reports[0] if result.reports else None)
        if report is not None and self.truncate_ancestry:
            report = _truncate_report(report)
        return report

    def reproduces(self, runs: int = 10, seed: int = 0) -> bool:
        return self.race_report(runs=runs, seed=seed) is not None

    def ground_truth_eliminates_race(self, runs: int = 10, seed: int = 0) -> bool:
        """Sanity check used by tests: the human fix passes validation."""
        result = run_package_tests(self.fixed_package, runs=runs, seed=seed)
        return result.built and not result.reports


def _truncate_report(report: RaceReport) -> RaceReport:
    """Drop creation stacks and non-leaf frames, modelling a truncated calling
    context (the reports Dr.Fix cannot map back to a test, Section 5.6)."""
    import copy

    truncated = copy.deepcopy(report)
    for trace in (truncated.first, truncated.second):
        trace.frames = trace.frames[:1]
        trace.creation_frames = []
    return truncated


@dataclass
class CaseFilter:
    """A reusable predicate over race cases (used by experiments)."""

    categories: Optional[List[RaceCategory]] = None
    max_difficulty: Optional[Difficulty] = None
    fixable_only: bool = False

    def matches(self, case: RaceCase) -> bool:
        if self.categories is not None and case.category not in self.categories:
            return False
        if self.fixable_only and case.expected_unfixed_reason is not None:
            return False
        if self.max_difficulty is not None:
            order = [Difficulty.SIMPLE, Difficulty.MODERATE, Difficulty.COMPLEX]
            if order.index(case.difficulty) > order.index(self.max_difficulty):
                return False
        return True
