"""The Dr.Fix orchestrator — Listing 13 of the paper.

For a new race report the pipeline iterates over candidate fix locations
(test, leaf, LCA), scopes (function, file), and examples (retrieved + empty),
generating a candidate fix for each and validating it by rebuilding and
re-running the package tests under the race detector.  The first validated fix
wins; if every combination fails, a final retry at file scope feeds the
accumulated failure messages back to the model (Section 4.4.2).

Candidates are validated one at a time, in attempt order, and the loop stops
at the first that validates; the reproduction parallelises across races
(cases, service requests), never inside one fix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.config import DrFixConfig, FixLocation, FixScope
from repro.core.database import ExampleDatabase
from repro.core.fix_generator import FixGenerator, GeneratedFix
from repro.core.patcher import Patch, Patcher
from repro.core.race_info import CodeItem, RaceInfo, RaceInfoExtractor
from repro.core.validator import FixValidator, ValidationResult, Verdicts
from repro.diagnosis import Diagnosis, RaceDiagnoser
from repro.errors import PatchError

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (corpus imports core)
    from repro.corpus.ground_truth import RaceCase
from repro.llm.base import LLMClient
from repro.runtime.harness import GoPackage
from repro.runtime.race_report import RaceReport


@dataclass
class FixAttempt:
    """Bookkeeping for one (location, scope, example, retry) attempt."""

    location: str
    scope: str
    file_name: str
    example_id: str = ""
    strategy: str = ""
    used_feedback: bool = False
    patched: bool = False
    validated: bool = False
    failure: str = ""


@dataclass
class FixOutcome:
    """Final result of running Dr.Fix on one race."""

    bug_hash: str
    fixed: bool = False
    patch: Optional[Patch] = None
    #: The diagnosis layer's interpretation of the report (None when the
    #: outcome was rehydrated from a run store without diagnosis data).
    diagnosis: Optional[Diagnosis] = None
    strategy: str = ""
    location: str = ""
    scope: str = ""
    guided_by_example: bool = False
    example_id: str = ""
    lines_changed: int = 0
    attempts: List[FixAttempt] = field(default_factory=list)
    duration_seconds: float = 0.0
    failure_reason: str = ""
    model_calls: int = 0
    validations: int = 0

    @property
    def attempted(self) -> bool:
        return bool(self.attempts)


class DrFix:
    """Automatically fix data races in one Go package."""

    def __init__(
        self,
        package: GoPackage,
        config: Optional[DrFixConfig] = None,
        database: Optional[ExampleDatabase] = None,
        client: Optional[LLMClient] = None,
        verdicts: Optional[Verdicts] = None,
    ):
        self.package = package
        self.config = (config or DrFixConfig()).validated()
        self.database = database
        self.extractor = RaceInfoExtractor(package, self.config)
        self.diagnoser = RaceDiagnoser(package)
        self.generator = FixGenerator(self.config, database=database, client=client)
        self.validator = FixValidator(self.config, verdicts)
        self.patcher = Patcher(package, self.config)

    # ------------------------------------------------------------------

    def fix_report(self, report: RaceReport,
                   baseline_hashes: Optional[List[str]] = None) -> FixOutcome:
        """Produce (or fail to produce) a validated patch for one race report."""
        start = time.time()
        info = self.extractor.extract(report)
        diagnosis = self.diagnoser.diagnose(report)
        outcome = FixOutcome(bug_hash=info.bug_hash, diagnosis=diagnosis)
        self._baseline_hashes = list(baseline_hashes or [])
        failure_log: List[str] = []

        items = info.ordered_items(self.config)
        if not items:
            outcome.failure_reason = "no candidate fix locations could be extracted from the report"
            outcome.duration_seconds = time.time() - start
            return outcome

        attempt_index = 0
        # Each item's examples, reused by the final retry.
        examples_of: List[Sequence] = []
        for item in items:
            examples = self.generator.candidate_examples(item)
            examples_of.append(examples)
            validated, consumed = self._attempt_item(
                outcome, info, item, examples, feedback="",
                start_index=attempt_index, salt_prefix="a", failure_log=failure_log,
            )
            attempt_index += consumed
            if validated:
                outcome.duration_seconds = time.time() - start
                outcome.model_calls = self.generator.model_calls
                outcome.validations = self.validator.validations
                return outcome

        if self.config.final_feedback_retry and failure_log:
            # The retry prompt carries the diagnosis's candidate repair
            # patterns alongside the accumulated validation failures, so the
            # model re-anchors on the category's known fixes.
            hints = ", ".join(diagnosis.candidate_patterns[:4])
            failure_text = " | ".join(dict.fromkeys(failure_log[-4:]))
            feedback = failure_text
            if hints:
                feedback = (
                    f"{failure_text} | diagnosed as {diagnosis.category.value}; "
                    f"consider the {hints} repair patterns"
                )
            tried = list(zip(items, examples_of))
            retry = [(item, examples) for item, examples in tried
                     if item.scope is FixScope.FILE] or tried
            for item, examples in retry:
                # The retry loop does not feed failure_log: the final
                # failure_reason reports the main loop's last failure.
                validated, consumed = self._attempt_item(
                    outcome, info, item, examples, feedback=feedback,
                    start_index=attempt_index, salt_prefix="retry",
                    failure_log=None,
                )
                attempt_index += consumed
                if validated:
                    outcome.duration_seconds = time.time() - start
                    outcome.model_calls = self.generator.model_calls
                    outcome.validations = self.validator.validations
                    return outcome

        outcome.failure_reason = outcome.failure_reason or (
            failure_log[-1] if failure_log else "no applicable fix was produced"
        )
        outcome.duration_seconds = time.time() - start
        outcome.model_calls = self.generator.model_calls
        outcome.validations = self.validator.validations
        return outcome

    def fix_case(self, case: "RaceCase") -> FixOutcome:
        """Convenience entry point used by the evaluation: detect then fix."""
        runs, seed = self.config.detection_runs, self.config.validator_seed
        report = case.race_report(runs=runs, seed=seed)
        if report is None:
            outcome = FixOutcome(bug_hash="")
            outcome.failure_reason = "the race could not be reproduced by the detector"
            return outcome
        baseline = case.detect(runs=runs, seed=seed).race_hashes()
        return self.fix_report(report, baseline_hashes=baseline)

    # ------------------------------------------------------------------

    def _attempt_item(
        self,
        outcome: FixOutcome,
        info: RaceInfo,
        item: CodeItem,
        examples: Sequence,
        feedback: str,
        start_index: int,
        salt_prefix: str,
        failure_log: Optional[List[str]],
    ) -> Tuple[bool, int]:
        """Try every example for one (location, scope) item; first win stops.

        Returns ``(validated, consumed)`` where ``consumed`` is the number of
        attempts made (the winner's 1-based position, or the full batch size
        on failure).
        """
        for offset, example in enumerate(examples):
            validated = self._attempt(
                outcome, info, item, example, feedback=feedback,
                salt=f"{salt_prefix}{start_index + offset + 1}",
            )
            if validated:
                return True, offset + 1
            if failure_log is not None and outcome.attempts[-1].failure:
                failure_log.append(outcome.attempts[-1].failure)
        return False, len(examples)

    def _attempt(self, outcome: FixOutcome, info: RaceInfo, item: CodeItem,
                 example, feedback: str, salt: str) -> bool:
        """One attempt: generate, patch, validate, record."""
        attempt = FixAttempt(
            location=item.location.value,
            scope=item.scope.value,
            file_name=item.file_name,
            example_id=example.example_id if example is not None else "",
            used_feedback=bool(feedback),
        )
        outcome.attempts.append(attempt)
        generated: GeneratedFix = self.generator.generate(
            item, example, feedback=feedback, attempt_salt=salt,
            diagnosis=outcome.diagnosis,
        )
        attempt.strategy = generated.response.strategy
        if generated.is_noop:
            attempt.failure = "; ".join(generated.response.notes) or "the model produced no change"
            return False
        try:
            patch = self.patcher.apply(item, generated.code)
        except PatchError as exc:
            attempt.failure = str(exc)
            return False
        attempt.patched = True
        validation: ValidationResult = self.validator.validate(
            patch.package, info.bug_hash,
            baseline_hashes=getattr(self, "_baseline_hashes", []),
        )
        if not validation.ok:
            attempt.failure = validation.feedback()
            return False
        attempt.validated = True
        outcome.fixed = True
        outcome.patch = patch
        outcome.strategy = generated.response.strategy
        outcome.guided_by_example = generated.response.guided_by_example
        outcome.example_id = attempt.example_id
        outcome.location = item.location.value
        outcome.scope = item.scope.value
        outcome.lines_changed = patch.lines_changed(self.package)
        return True
