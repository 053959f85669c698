"""Metamorphic ground-truth validation for corpus cases.

Every case a corpus emits — template-generated or mutant — must satisfy the
metamorphic contract its label promises:

* ``expected_race=True``: the detector reports a race **at the labeled
  symbols** (the racy variable appears in the report), the attached human fix
  validates clean (builds, no reports, no test failures), and — for fixable
  cases — the diagnosis layer agrees with the labeled category;
* ``expected_race=False`` (sync-injected mutants): the package builds, its
  tests pass, and **no** race is reported.

The harness is reusable: :func:`validate_case` checks one case,
:func:`validate_corpus` sweeps a whole corpus and aggregates the failures.
``tests/corpus/test_mutation_metamorphic.py`` drives it over a sampled mutant
corpus, and ``drfix corpus generate --validate-sample N`` over a sample of a
generated one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.corpus.ground_truth import RaceCase
from repro.diagnosis.diagnose import RaceDiagnoser
from repro.runtime.harness import run_package_tests


@dataclass
class CaseValidation:
    """Outcome of validating one case against its ground-truth label."""

    case_id: str
    expected_race: bool
    problems: List[str] = field(default_factory=list)
    #: Diagnosis category value when one was computed (racy cases only).
    diagnosed_category: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    def render(self) -> str:
        label = "racy" if self.expected_race else "race-free"
        status = "ok" if self.ok else "; ".join(self.problems)
        return f"{self.case_id} [{label}]: {status}"


@dataclass
class CorpusValidation:
    """Aggregated validation outcome over a set of cases."""

    results: List[CaseValidation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def failures(self) -> List[CaseValidation]:
        return [result for result in self.results if not result.ok]

    def summary(self) -> str:
        failures = self.failures()
        head = (f"validated {len(self.results)} case(s): "
                f"{len(self.results) - len(failures)} ok, {len(failures)} failing")
        if not failures:
            return head
        lines = [head] + [f"  {failure.render()}" for failure in failures[:20]]
        if len(failures) > 20:
            lines.append(f"  ... and {len(failures) - 20} more")
        return "\n".join(lines)


def validate_case(case: RaceCase, runs: int = 10, seed: int = 0) -> CaseValidation:
    """Check one case's metamorphic contract (see module docstring)."""
    result = CaseValidation(case_id=case.case_id, expected_race=case.expected_race)
    if not case.expected_race:
        outcome = run_package_tests(case.package, runs=runs, seed=seed)
        if not outcome.built:
            result.problems.append("race-free mutant does not build")
            return result
        if outcome.reports:
            variables = ", ".join(sorted({r.variable or "?" for r in outcome.reports}))
            result.problems.append(f"race-free mutant still races (on {variables})")
        if outcome.test_failures:
            result.problems.append("race-free mutant fails its tests")
        return result

    report = case.race_report(runs=runs, seed=seed)
    if report is None:
        result.problems.append("labeled race does not reproduce")
    else:
        # Map/slice races report the runtime object (`map[string]int(map)`),
        # not the labeled field name — for those, the racy *function* must
        # appear in the report's stacks instead.
        variable_ok = bool(
            case.racy_variable and case.racy_variable in (report.variable or "")
        )
        function_ok = bool(case.racy_function) and any(
            case.racy_function in fn for fn in report.involved_functions()
        )
        if not variable_ok and not function_ok:
            result.problems.append(
                f"race reported on `{report.variable}` in "
                f"{sorted(report.involved_functions())}, expected symbol "
                f"`{case.racy_variable}` (function `{case.racy_function}`)"
            )
        diagnosis = RaceDiagnoser(case.package).diagnose(report)
        result.diagnosed_category = diagnosis.category.value
        if case.expected_unfixed_reason is None and diagnosis.category is not case.category:
            result.problems.append(
                f"diagnosed {diagnosis.category.value}, labeled {case.category.value}"
            )
    fixed = run_package_tests(case.fixed_package, runs=runs, seed=seed)
    if not fixed.built:
        result.problems.append("human fix does not build")
    else:
        if fixed.reports:
            result.problems.append("human fix still races")
        if fixed.test_failures:
            result.problems.append("human fix fails its tests")
    return result


def validate_corpus(
    cases: Sequence[RaceCase], runs: int = 10, seed: int = 0
) -> CorpusValidation:
    """Validate every case; the result aggregates per-case failures."""
    return CorpusValidation(
        results=[validate_case(case, runs=runs, seed=seed) for case in cases]
    )


__all__ = ["CaseValidation", "CorpusValidation", "validate_case", "validate_corpus"]
