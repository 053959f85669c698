"""End-to-end tests of the Dr.Fix pipeline (Listing 13)."""

import pytest

from repro.core import DrFix, DrFixConfig, ExampleDatabase
from repro.diagnosis.categories import RaceCategory
from repro.corpus.generator import generate_cases
from repro.runtime.harness import run_package_tests


@pytest.fixture(scope="module")
def pipeline_config():
    return DrFixConfig(model="gpt-4o", validator_runs=8, detection_runs=10)


@pytest.fixture(scope="module")
def pipeline_database(pipeline_config):
    db_cases = generate_cases(
        [RaceCategory.CAPTURE_BY_REFERENCE, RaceCategory.MISSING_SYNCHRONIZATION,
         RaceCategory.CONCURRENT_MAP_ACCESS, RaceCategory.PARALLEL_TEST_SUITE,
         RaceCategory.CONCURRENT_SLICE_ACCESS, RaceCategory.OTHERS],
        count_per_category=2, seed=3000, noise_level=1,
    )
    return ExampleDatabase.from_cases(db_cases, pipeline_config)


class TestPipelineFixesSimpleRaces:
    def test_listing1_style_race_is_fixed_and_validated(self, err_capture_case,
                                                        pipeline_config, pipeline_database):
        drfix = DrFix(err_capture_case.package, config=pipeline_config,
                      database=pipeline_database)
        outcome = drfix.fix_case(err_capture_case)
        assert outcome.fixed
        assert outcome.strategy == "redeclare"
        assert outcome.patch is not None
        # The produced patch genuinely eliminates the race.
        result = run_package_tests(outcome.patch.package, runs=10)
        assert not result.has_race(outcome.bug_hash)

    def test_loop_variable_race_is_fixed_without_rag(self, loop_var_case, pipeline_config):
        drfix = DrFix(loop_var_case.package, config=pipeline_config.without_rag())
        outcome = drfix.fix_case(loop_var_case)
        assert outcome.fixed and outcome.strategy == "loop_var_copy"

    def test_waitgroup_misplacement_is_fixed(self, waitgroup_case, pipeline_config,
                                             pipeline_database):
        drfix = DrFix(waitgroup_case.package, config=pipeline_config,
                      database=pipeline_database)
        outcome = drfix.fix_case(waitgroup_case)
        assert outcome.fixed and outcome.strategy == "move_wg_add"

    def test_outcome_records_attempts_and_counters(self, err_capture_case, pipeline_config,
                                                   pipeline_database):
        drfix = DrFix(err_capture_case.package, config=pipeline_config,
                      database=pipeline_database)
        outcome = drfix.fix_case(err_capture_case)
        assert outcome.attempts
        assert outcome.model_calls >= 1
        assert outcome.validations >= 1
        assert outcome.lines_changed > 0
        assert outcome.location in {"test", "leaf", "lca"}
        assert outcome.scope in {"function", "file"}


class TestPipelineAblationBehaviour:
    def test_complex_map_race_needs_rag(self, shard_map_case, pipeline_config,
                                        pipeline_database):
        without_rag = DrFix(shard_map_case.package,
                            config=pipeline_config.without_rag()).fix_case(shard_map_case)
        with_rag = DrFix(shard_map_case.package, config=pipeline_config,
                         database=pipeline_database).fix_case(shard_map_case)
        assert not without_rag.fixed
        assert with_rag.fixed and with_rag.strategy == "sync_map_convert"
        assert with_rag.guided_by_example

    def test_file_scope_fix_is_not_found_at_function_scope(self, pipeline_config,
                                                           pipeline_database):
        case = generate_cases([RaceCategory.MISSING_SYNCHRONIZATION], 2, seed=610)[1]
        assert case.requires_file_scope
        func_only = DrFix(case.package, config=pipeline_config.function_scope_only(),
                          database=pipeline_database).fix_case(case)
        full = DrFix(case.package, config=pipeline_config,
                     database=pipeline_database).fix_case(case)
        assert not func_only.fixed
        assert full.fixed

    def test_unreproducible_race_is_reported(self, pipeline_config, err_capture_case):
        # The fixed package has no race to reproduce.
        drfix = DrFix(err_capture_case.fixed_package, config=pipeline_config)
        fixed_case = type(err_capture_case)(
            case_id="synthetic", category=err_capture_case.category,
            package=err_capture_case.fixed_package,
            fixed_package=err_capture_case.fixed_package,
            racy_file=err_capture_case.racy_file,
            racy_function=err_capture_case.racy_function,
            racy_variable=err_capture_case.racy_variable,
            fix_strategy=err_capture_case.fix_strategy,
        )
        outcome = drfix.fix_case(fixed_case)
        assert not outcome.fixed
        assert "could not be reproduced" in outcome.failure_reason

    def test_vendor_races_are_not_patched(self, pipeline_config, pipeline_database):
        from repro.corpus.templates.unfixable import make_external_vendor_case

        case = make_external_vendor_case(611, 1)
        outcome = DrFix(case.package, config=pipeline_config,
                        database=pipeline_database).fix_case(case)
        assert not outcome.fixed

    def test_multi_file_races_are_not_fixed(self, pipeline_config, pipeline_database):
        from repro.corpus.templates.unfixable import make_multi_file_case

        case = make_multi_file_case(612, 1)
        outcome = DrFix(case.package, config=pipeline_config,
                        database=pipeline_database).fix_case(case)
        assert not outcome.fixed

    def test_deterministic_outcomes(self, err_capture_case, pipeline_config, pipeline_database):
        first = DrFix(err_capture_case.package, config=pipeline_config,
                      database=pipeline_database).fix_case(err_capture_case)
        second = DrFix(err_capture_case.package, config=pipeline_config,
                       database=pipeline_database).fix_case(err_capture_case)
        assert first.fixed == second.fixed
        assert first.strategy == second.strategy


class TestConcurrentCandidateValidation:
    """Validator work per candidate, and the uncounted ``validate_batch`` loop."""

    def test_validate_batch_preserves_submission_order(self, err_capture_case,
                                                       pipeline_config):
        from repro.core.validator import FixValidator

        report = err_capture_case.race_report(runs=10)
        validator = FixValidator(pipeline_config)
        racy, fixed = err_capture_case.package, err_capture_case.fixed_package
        results = validator.validate_batch(
            [racy, fixed, racy], report.bug_hash()
        )
        # Submission order is preserved and the batch stops at the first
        # winner — the third candidate is never paid for.
        assert [r.ok for r in results] == [False, True]
        # The batch loop leaves the ``validations`` counter alone.
        assert validator.validations == 0

    def test_validate_batch_without_a_winner_checks_every_candidate(
            self, err_capture_case, pipeline_config):
        from repro.core.validator import FixValidator

        report = err_capture_case.race_report(runs=10)
        validator = FixValidator(pipeline_config)
        racy = err_capture_case.package
        results = validator.validate_batch([racy, racy, racy], report.bug_hash())
        assert [r.ok for r in results] == [False, False, False]
        assert all(r.race_still_present for r in results)
        assert validator.validate_batch([], report.bug_hash()) == []
        assert validator.validations == 0

    def test_validate_batch_agrees_with_validate(self, err_capture_case,
                                                 pipeline_config):
        from repro.core.validator import FixValidator

        report = err_capture_case.race_report(runs=10)
        racy, fixed = err_capture_case.package, err_capture_case.fixed_package
        batch = FixValidator(pipeline_config).validate_batch(
            [racy, fixed], report.bug_hash())
        counted = FixValidator(pipeline_config)
        single = [counted.validate(package, report.bug_hash())
                  for package in (racy, fixed)]
        assert counted.validations == 2
        assert [(r.ok, r.race_still_present, r.new_race_hashes, r.runs)
                for r in batch] == \
            [(r.ok, r.race_still_present, r.new_race_hashes, r.runs)
             for r in single]


def _outcome_signature(outcome):
    """Everything observable about a FixOutcome except wall-clock durations."""
    return (
        outcome.fixed, outcome.strategy, outcome.location, outcome.scope,
        outcome.guided_by_example, outcome.example_id, outcome.lines_changed,
        outcome.failure_reason, outcome.model_calls, outcome.validations,
        [(a.location, a.scope, a.example_id, a.strategy, a.used_feedback,
          a.patched, a.validated, a.failure) for a in outcome.attempts],
    )


def _assert_first_win_accounting(outcome):
    """One model call per attempt, one validation per patched attempt, and a
    win (if any) is the last attempt made."""
    assert outcome.model_calls == len(outcome.attempts)
    assert outcome.validations == sum(a.patched for a in outcome.attempts)
    validated = [i for i, a in enumerate(outcome.attempts) if a.validated]
    if outcome.fixed:
        assert validated == [len(outcome.attempts) - 1]
    else:
        assert validated == []


class TestSerialFirstWin:
    """Candidates are validated one at a time and the first win stops the loop."""

    @pytest.mark.parametrize("case_fixture", ["err_capture_case", "waitgroup_case",
                                              "shard_map_case"])
    def test_repeat_runs_are_identical(self, request, case_fixture,
                                       pipeline_config, pipeline_database):
        case = request.getfixturevalue(case_fixture)
        first = DrFix(case.package, config=pipeline_config,
                      database=pipeline_database).fix_case(case)
        second = DrFix(case.package, config=pipeline_config,
                       database=pipeline_database).fix_case(case)
        assert first.fixed
        assert _outcome_signature(first) == _outcome_signature(second)

    @pytest.mark.parametrize("case_fixture", ["err_capture_case", "waitgroup_case",
                                              "shard_map_case"])
    def test_counters_match_the_attempts(self, request, case_fixture,
                                         pipeline_config, pipeline_database):
        case = request.getfixturevalue(case_fixture)
        outcome = DrFix(case.package, config=pipeline_config,
                        database=pipeline_database).fix_case(case)
        assert outcome.fixed
        _assert_first_win_accounting(outcome)

    def test_unfixed_case_counts_every_attempt(self, pipeline_config, shard_map_case):
        # Without RAG this case exhausts every attempt, the final retry
        # included.
        outcome = DrFix(shard_map_case.package,
                        config=pipeline_config.without_rag()).fix_case(shard_map_case)
        assert not outcome.fixed
        assert outcome.failure_reason
        _assert_first_win_accounting(outcome)


class TestFixCaseDetection:
    def test_report_and_baseline_use_the_configured_runs_and_seed(self, monkeypatch):
        from repro.corpus.templates.capture_by_ref import make_err_capture_case

        case = make_err_capture_case(4243, 1)
        config = DrFixConfig(model="gpt-4o", detection_runs=4, validator_seed=3)
        drfix = DrFix(case.package, config=config)
        calls = []
        detect = case.detect

        def recording_detect(runs=10, seed=0, force=False):
            calls.append((runs, seed))
            return detect(runs=runs, seed=seed, force=force)

        baselines = []
        monkeypatch.setattr(case, "detect", recording_detect)
        monkeypatch.setattr(drfix, "fix_report", lambda report, baseline_hashes=None:
                            baselines.append(baseline_hashes))
        drfix.fix_case(case)
        assert calls == [(4, 3), (4, 3)]
        assert baselines == [detect(runs=4, seed=3).race_hashes()]
        assert detect(runs=4, seed=3).runs == 4
