"""One validation per distinct candidate: within one ``fix_report``, a patched
package proposed again for the same race reuses its verdict instead of
re-running the harness, and nothing a caller sees changes."""

from dataclasses import replace

import pytest

from repro.core import validator as validator_module
from repro.core.config import DrFixConfig, FixScope
from repro.core.pipeline import DrFix
from repro.core.validator import FixValidator
from repro.llm.base import ModelResponse
from repro.runtime.compiler import package_fingerprint
from repro.runtime.harness import run_package_tests
from tests.conftest import LISTING1_SOURCE


class ScriptedClient:
    """A model that proposes the same code at every attempt."""

    name = "scripted"

    def __init__(self, code: str):
        self.code = code

    def complete(self, messages) -> ModelResponse:
        return ModelResponse(content=self.code, strategy="scripted")


class UnmemoisedValidator(FixValidator):
    """The reference arm: every validation runs the harness."""

    def validate(self, package, bug_hash, baseline_hashes=None):
        self.forget()
        return super().validate(package, bug_hash, baseline_hashes)


@pytest.fixture
def harness_runs(monkeypatch):
    """Fingerprints of the packages the validator ran the harness on."""
    runs = []
    real = validator_module.run_package_tests

    def counting(package, **kwargs):
        runs.append(package_fingerprint(package))
        return real(package, **kwargs)

    monkeypatch.setattr(validator_module, "run_package_tests", counting)
    return runs


@pytest.fixture
def config():
    # Function scope only, so the final retry repeats every item.
    return replace(DrFixConfig(validator_runs=4, detection_runs=6).without_rag(),
                   scopes=(FixScope.FUNCTION,))


@pytest.fixture
def report(listing1_package):
    return run_package_tests(listing1_package, runs=6).reports[0]


#: The racy function unchanged: the leaf and LCA items (both this function)
#: propose one candidate, it fails, and the final retry proposes it again.
UNCHANGED = LISTING1_SOURCE[LISTING1_SOURCE.index("func SomeFunction"):]


def _drfix(package, config, validator_cls=FixValidator):
    drfix = DrFix(package, config=config, client=ScriptedClient(UNCHANGED))
    drfix.validator = validator_cls(drfix.config)
    return drfix


def _failures(outcome):
    return [attempt.failure for attempt in outcome.attempts]


def test_a_repeated_candidate_runs_the_harness_once(listing1_package, config, report,
                                                     harness_runs):
    outcome = _drfix(listing1_package, config).fix_report(report)
    assert not outcome.fixed
    assert len(harness_runs) == len(set(harness_runs))
    assert len(harness_runs) < outcome.validations

    harness_runs.clear()
    expected = _drfix(listing1_package, config, UnmemoisedValidator).fix_report(report)
    assert len(harness_runs) == expected.validations
    assert outcome.validations == expected.validations
    assert _failures(outcome) == _failures(expected)


def test_reports_with_different_bug_hashes_never_share_a_verdict(
        listing1_package, config, report, harness_runs):
    drfix = _drfix(listing1_package, config)
    first = drfix.fix_report(report)
    first_runs = len(harness_runs)
    # Same package, same candidates, another race: its verdicts are fresh.
    other = replace(report, variable=report.variable + "2")
    assert other.bug_hash() != report.bug_hash()
    second = drfix.fix_report(other)
    assert len(harness_runs) - first_runs == len(set(harness_runs[first_runs:])) > 0
    assert any("still reported" in failure for failure in _failures(first))
    assert not any("still reported" in failure for failure in _failures(second))
    assert any("new data race" in failure for failure in _failures(second))


def test_the_memo_lives_for_one_fix_report(listing1_package, config, report, harness_runs):
    drfix = _drfix(listing1_package, config)
    drfix.fix_report(report)
    first_runs = len(harness_runs)
    drfix.fix_report(report)
    assert len(harness_runs) == 2 * first_runs


def test_one_package_against_two_bug_hashes_runs_twice(listing1_package, config, report,
                                                       harness_runs):
    validator = FixValidator(config)
    other = replace(report, variable=report.variable + "2")
    targeted = validator.validate(listing1_package, report.bug_hash())
    untargeted = validator.validate(listing1_package, other.bug_hash())
    assert len(harness_runs) == 2
    assert targeted.race_still_present and not untargeted.race_still_present
