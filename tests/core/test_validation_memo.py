"""One validation per distinct candidate: a patched package proposed again
for the same race reuses its verdict instead of re-running the harness, and
nothing a caller sees changes.  A validator's memo lives as long as the
validator (one case); an :class:`ExperimentContext` shares one across every
arm of an evaluation, and nothing shares one across evaluations."""

from dataclasses import replace

import pytest

from repro.core import validator as validator_module
from repro.core.config import DrFixConfig, FixScope
from repro.core.pipeline import DrFix
from repro.core.validator import FixValidator
from repro.corpus.generator import CorpusConfig
from repro.evaluation.runner import EvaluationRunner, ExperimentContext, evaluate_single_case
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
        self._verdicts = {}
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
def harness_keys(monkeypatch):
    """The (runs, seed, candidate, target, baseline) of every harness run."""
    keys = []
    real = validator_module._validate_candidate

    def recording(config, bug_hash, baseline_hashes, package):
        keys.append((config.validator_runs, config.validator_seed,
                     package_fingerprint(package), bug_hash, tuple(baseline_hashes)))
        return real(config, bug_hash, baseline_hashes, package)

    monkeypatch.setattr(validator_module, "_validate_candidate", recording)
    return keys


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


def test_the_memo_lives_as_long_as_the_validator(listing1_package, config, report,
                                                 harness_runs):
    drfix = _drfix(listing1_package, config)
    first = drfix.fix_report(report)
    first_runs = len(harness_runs)
    second = drfix.fix_report(report)
    assert first_runs > 0 and len(harness_runs) == first_runs
    assert _failures(second) == _failures(first)
    # A new validator starts with an empty memo.
    _drfix(listing1_package, config).fix_report(report)
    assert len(harness_runs) == 2 * first_runs


def test_a_shared_memo_keys_on_the_validator_runs_and_seed(listing1_package, config,
                                                          report, harness_keys):
    verdicts = {}
    FixValidator(config, verdicts).validate(listing1_package, report.bug_hash())
    FixValidator(config, verdicts).validate(listing1_package, report.bug_hash())
    assert len(harness_keys) == 1
    for other in (replace(config, validator_runs=5), replace(config, validator_seed=7)):
        FixValidator(other, verdicts).validate(listing1_package, report.bug_hash())
    assert len(harness_keys) == len(set(harness_keys)) == 3


def test_one_package_against_two_bug_hashes_runs_twice(listing1_package, config, report,
                                                       harness_runs):
    validator = FixValidator(config)
    other = replace(report, variable=report.variable + "2")
    targeted = validator.validate(listing1_package, report.bug_hash())
    untargeted = validator.validate(listing1_package, other.bug_hash())
    assert len(harness_runs) == 2
    assert targeted.race_still_present and not untargeted.race_still_present


def test_a_patch_that_deletes_every_test_is_not_a_fix(listing1_package, report):
    """Product code answered for the test file's file-scope item replaces
    ``service_test.go``: the package still builds but runs no test, so the
    race cannot show and the candidate must not validate."""
    config = DrFixConfig(validator_runs=4, detection_runs=6).without_rag()
    drfix = DrFix(listing1_package, config=config, client=ScriptedClient(LISTING1_SOURCE))
    outcome = drfix.fix_report(report)
    assert not outcome.fixed
    assert any("no test" in failure for failure in _failures(outcome))


def test_zero_tests_fail_validation_with_their_own_feedback(listing1_package, report):
    validator = FixValidator(DrFixConfig(validator_runs=4))
    untested = listing1_package.replace_file("service_test.go", LISTING1_SOURCE)
    verdict = validator.validate(untested, report.bug_hash())
    assert verdict.raw.built and verdict.raw.tests_discovered == 0
    assert not verdict.ok
    assert verdict.feedback() == "the changed package runs no test, so the race cannot be checked"
    # Every other failure keeps its text.
    racy = validator.validate(listing1_package, report.bug_hash())
    assert racy.feedback() == (
        "the data race is still reported by the race detector after the change")


#: A small evaluation: few enough cases to run four arms in a test.
SMALL_CORPUS = CorpusConfig(db_examples=8, eval_fixable=6, eval_unfixable=2, seed=8)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(corpus_config=SMALL_CORPUS)


def _signature(run):
    return [(r.case.case_id, r.fixed, r.outcome.strategy, r.outcome.failure_reason,
             r.outcome.validations, [a.failure for a in r.outcome.attempts])
            for r in run.results]


def test_one_evaluation_runs_each_distinct_candidate_once(context, harness_keys):
    arms = [("full", context.base_config),
            ("without-lca", context.base_config.without_lca())]
    cases = context.dataset.evaluation
    # Reference: each case's validator keeps only its own memo.
    unshared = [
        EvaluationRunner(config, context.database_for(config), context.reviewer)
        .run(cases, label=label)
        for label, config in arms
    ]
    unshared_keys = list(harness_keys)
    harness_keys.clear()
    shared = [context.run_arm(label, config) for label, config in arms]
    assert [_signature(run) for run in shared] == [_signature(run) for run in unshared]
    # The second arm proposes candidates the first already validated.
    assert len(unshared_keys) > len(set(unshared_keys))
    assert len(harness_keys) == len(set(harness_keys))
    assert set(harness_keys) == set(unshared_keys)


def test_separate_evaluations_of_one_case_each_run_the_harness(context, harness_keys):
    case = context.dataset.evaluation[0]
    config = context.base_config
    first = evaluate_single_case(case, config, context.skeleton_database)
    first_runs = len(harness_keys)
    assert first_runs > 0
    second = evaluate_single_case(case, config, context.skeleton_database)
    assert harness_keys[first_runs:] == harness_keys[:first_runs]
    assert second.outcome.validations == first.outcome.validations


@pytest.mark.parametrize("executor, shared", [("serial", True), ("thread", True),
                                              ("process", False)])
def test_only_in_process_workers_share_the_memo(executor, shared):
    verdicts = {}
    runner = EvaluationRunner(DrFixConfig(), None, jobs=2, executor=executor,
                              verdicts=verdicts)
    assert (runner.verdicts is verdicts) is shared
