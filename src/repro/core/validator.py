"""Fix validation: build and repeatedly run package tests under the detector
(Section 4.4.1).

Validation succeeds when the package builds, every test passes, the targeted
race (identified by its stable bug hash) no longer appears, and no new race is
introduced.  On failure the validator produces the developer-readable feedback
that Dr.Fix feeds back to the model on the retry (Section 4.4.2).

With :attr:`DrFixConfig.adaptive_runs` on, the number of per-candidate
detector runs is the smallest count meeting the configured
detection-probability bound
(:func:`~repro.runtime.scheduler.runs_for_detection_probability`) instead of
a fixed ``validator_runs``.

Within one fix, the model often proposes a candidate it already proposed
(the same patched package for the same race).  :class:`FixValidator`
remembers each verdict until :meth:`FixValidator.forget`, so each distinct
candidate runs the harness once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DrFixConfig
from repro.runtime.compiler import package_fingerprint
from repro.runtime.harness import GoPackage, PackageRunResult, run_package_tests
from repro.runtime.scheduler import runs_for_detection_probability


@dataclass
class ValidationResult:
    """Outcome of validating one candidate patch."""

    ok: bool
    build_errors: List[str] = field(default_factory=list)
    test_failures: List[str] = field(default_factory=list)
    race_still_present: bool = False
    new_race_hashes: List[str] = field(default_factory=list)
    runs: int = 0
    raw: Optional[PackageRunResult] = None

    def feedback(self) -> str:
        """A concise failure description for the next prompt."""
        if self.ok:
            return ""
        parts: List[str] = []
        if self.build_errors:
            parts.append("build failed: " + "; ".join(self.build_errors[:2]))
        if self.race_still_present:
            parts.append("the data race is still reported by the race detector after the change")
        if self.new_race_hashes:
            parts.append(
                f"the change introduced {len(self.new_race_hashes)} new data race(s)"
            )
        if self.test_failures:
            parts.append("tests failed: " + "; ".join(self.test_failures[:2]))
        return " | ".join(parts) if parts else "validation failed"


def planned_validator_runs(config: DrFixConfig) -> int:
    """The per-candidate run count: fixed, or bounded by detection probability.

    With ``adaptive_runs`` on, re-running a candidate stops once the chance of
    having missed a surviving race (per-run hit rate ``adaptive_hit_rate``)
    drops below ``1 - adaptive_confidence`` — typically well under the fixed
    ``validator_runs`` budget.
    """
    if not config.adaptive_runs:
        return config.validator_runs
    return runs_for_detection_probability(
        config.adaptive_hit_rate, config.adaptive_confidence, config.validator_runs
    )


def _validate_candidate(config: DrFixConfig, bug_hash: str,
                        baseline_hashes: Sequence[str],
                        package: GoPackage) -> ValidationResult:
    """Validate one candidate: a pure function of its arguments.

    It maintains no counters; :meth:`FixValidator.validate` counts.
    """
    baseline = set(baseline_hashes)
    baseline.add(bug_hash)
    result = run_package_tests(
        package,
        runs=planned_validator_runs(config),
        seed=config.validator_seed,
    )
    if not result.built:
        return ValidationResult(
            ok=False, build_errors=list(result.build_errors), runs=result.runs, raw=result
        )
    observed = result.race_hashes()
    race_still_present = bug_hash in observed
    new_races = [h for h in observed if h not in baseline]
    ok = (
        not race_still_present
        and not new_races
        and not result.test_failures
    )
    return ValidationResult(
        ok=ok,
        test_failures=list(result.test_failures),
        race_still_present=race_still_present,
        new_race_hashes=new_races,
        runs=result.runs,
        raw=result,
    )


class FixValidator:
    """Run a patched package's tests many times under the race detector."""

    def __init__(self, config: Optional[DrFixConfig] = None):
        self.config = (config or DrFixConfig()).validated()
        #: Number of validations requested, repeats included (exposed for
        #: evaluation statistics).
        self.validations = 0
        #: Verdicts by (package fingerprint, bug hash, baseline) since the
        #: last :meth:`forget`.
        self._verdicts: Dict[Tuple[str, str, Tuple[str, ...]], ValidationResult] = {}

    def validate(self, package: GoPackage, bug_hash: str,
                 baseline_hashes: Optional[List[str]] = None) -> ValidationResult:
        """Validate ``package`` against the targeted ``bug_hash``.

        ``baseline_hashes`` are races already present before the patch (other,
        untargeted races in the same package do not fail validation — the
        paper distinguishes the targeted race via the stable hash).  A repeat
        of a remembered candidate returns its verdict without running the
        harness; it still counts in :attr:`validations`.
        """
        self.validations += 1
        baseline = tuple(baseline_hashes or ())
        key = (package_fingerprint(package), bug_hash, baseline)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = _validate_candidate(self.config, bug_hash, baseline, package)
            self._verdicts[key] = verdict
        return verdict

    def forget(self) -> None:
        """Drop every remembered verdict (one fix's candidates)."""
        self._verdicts.clear()

    def validate_batch(
        self,
        packages: Sequence[GoPackage],
        bug_hash: str,
        baseline_hashes: Optional[List[str]] = None,
    ) -> List[ValidationResult]:
        """Uncounted first-win loop; kept only because ``e2e_bench/spans.py`` wraps it."""
        results: List[ValidationResult] = []
        for package in packages:
            results.append(_validate_candidate(
                self.config, bug_hash, tuple(baseline_hashes or ()), package))
            if results[-1].ok:
                break
        return results
