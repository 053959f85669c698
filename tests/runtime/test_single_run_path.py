"""The harness has one run path: every planned (seed, policy) run executes.

A sweep of ``runs`` runs executes exactly that many interleavings, each one a
pure function of the harness configuration, so a repeat sweep re-executes
and reproduces every run.  PCT draws its change points once per scheduler,
straight from the run seed.  The old schedule-class dedup knobs are gone:
``DRFIX_DEDUP`` is no longer read (and never fails fast), and ``--dedup`` /
``dedup=`` / ``saturation_after=`` are rejected as unknown.
"""

from __future__ import annotations

import random

import pytest

from repro.cli import main
from repro.core.config import DrFixConfig
from repro.runtime.harness import (
    DEFAULT_POLICIES,
    GoTestHarness,
    run_package_tests,
)
from repro.runtime.schedule_index import SCHEDULE_CLASS_REGISTRY
from repro.runtime.scheduler import Scheduler, SchedulerPolicy, derive_run_seed
from repro.testing import detection_outcome, reset_addresses


def _observables(result):
    return (result.race_hashes(), result.scheduler_steps, result.test_failures,
            result.output, result.runs)


class TestRunBudget:
    def test_sweep_spends_its_full_budget(self, listing1_package):
        result = run_package_tests(listing1_package, runs=12, seed=3)
        assert result.runs == 12
        assert result.reports, "Listing 1 must race"
        assert result.runs_deduped == 0

    def test_repeat_invocation_reproduces_the_sweep(self, listing1_package):
        first = run_package_tests(listing1_package, runs=12, seed=3)
        second = run_package_tests(listing1_package, runs=12, seed=3)
        assert _observables(second) == _observables(first)

    def test_repeat_sweep_executes_every_run_again(self, listing1_package):
        """No run of a repeat sweep is replayed from memory: each one is
        executed and pays its scheduler steps."""
        single = run_package_tests(listing1_package, runs=1, seed=3)
        first = run_package_tests(listing1_package, runs=4, seed=3)
        second = run_package_tests(listing1_package, runs=4, seed=3)
        assert second.runs == 4
        assert second.scheduler_steps == first.scheduler_steps
        assert second.scheduler_steps > single.scheduler_steps

    def test_different_seeds_plan_different_runs(self, listing1_package):
        three = GoTestHarness(listing1_package, runs=12, seed=3).plan_runs()
        four = GoTestHarness(listing1_package, runs=12, seed=4).plan_runs()
        assert [seed for seed, _ in three] != [seed for seed, _ in four]
        assert [policy for _, policy in three] == [policy for _, policy in four]

    def test_every_policy_gets_a_run(self, listing1_package):
        plan = GoTestHarness(listing1_package, runs=12, seed=3).plan_runs()
        for policy in DEFAULT_POLICIES:
            assert sum(1 for _, p in plan if p is policy) == 12 // len(DEFAULT_POLICIES)

    def test_plan_is_seed_policy_pairs(self, listing1_package):
        harness = GoTestHarness(listing1_package, runs=8, seed=3)
        plan = harness.plan_runs()
        assert len(plan) == 8
        for run_index, (seed, policy) in enumerate(plan):
            assert policy is DEFAULT_POLICIES[run_index % len(DEFAULT_POLICIES)]
            assert seed == derive_run_seed(3, run_index, policy)


class TestPCTChangePoints:
    def test_change_points_are_a_single_unbiased_draw(self):
        scheduler = Scheduler(seed=99, policy=SchedulerPolicy.PCT)
        reference = frozenset(random.Random(99).sample(range(1, 1000), 2))
        assert scheduler._pct_change_points == reference

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_change_points_depend_only_on_the_seed(self, seed):
        first = Scheduler(seed=seed, policy=SchedulerPolicy.PCT)
        second = Scheduler(seed=seed, policy=SchedulerPolicy.PCT)
        assert first._pct_change_points == second._pct_change_points
        assert len(first._pct_change_points) == first.pct_depth - 1

    def test_depth_one_has_no_change_points(self):
        scheduler = Scheduler(seed=5, policy=SchedulerPolicy.PCT, pct_depth=1)
        assert scheduler._pct_change_points == frozenset()

    @pytest.mark.parametrize("policy", [
        SchedulerPolicy.RANDOM,
        SchedulerPolicy.NEWEST_FIRST,
        SchedulerPolicy.OLDEST_FIRST,
    ])
    def test_only_pct_draws_from_the_run_seed_up_front(self, policy):
        scheduler = Scheduler(seed=5, policy=policy)
        assert scheduler._pct_change_points == frozenset()
        assert scheduler.random.random() == random.Random(5).random()


class TestRemovedDedupKnobs:
    @pytest.mark.parametrize("value", ["on", "off", "maybe", ""])
    def test_drfix_dedup_env_is_ignored(self, listing1_package, monkeypatch, value):
        monkeypatch.delenv("DRFIX_DEDUP", raising=False)
        reset_addresses()
        reference = detection_outcome(listing1_package, 3, runs=2)
        monkeypatch.setenv("DRFIX_DEDUP", value)
        reset_addresses()
        assert detection_outcome(listing1_package, 3, runs=2) == reference

    @pytest.mark.parametrize("argv", [
        ["detect", ".", "--dedup", "on"],
        ["fix", ".", "--dedup", "off"],
        ["serve", "--dedup", "on"],
    ])
    def test_cli_rejects_the_dedup_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --dedup" in capsys.readouterr().err

    def test_cli_detect_runs_with_an_unknown_drfix_dedup(
        self, listing1_package, tmp_path, monkeypatch, capsys
    ):
        for go_file in listing1_package.files:
            (tmp_path / go_file.name).write_text(go_file.source)
        monkeypatch.setenv("DRFIX_DEDUP", "maybe")
        assert main(["detect", str(tmp_path), "--runs", "6"]) == 1
        assert "DATA RACE" in capsys.readouterr().out

    @pytest.mark.parametrize("field", ["dedup", "saturation_after"])
    def test_config_has_no_dedup_fields(self, field):
        with pytest.raises(TypeError):
            DrFixConfig(**{field: 1})
        assert not hasattr(DrFixConfig(), field)

    @pytest.mark.parametrize("keyword", ["dedup", "saturation_after"])
    def test_harness_rejects_dedup_arguments(self, listing1_package, keyword):
        with pytest.raises(TypeError):
            run_package_tests(listing1_package, runs=1, **{keyword: 1})

    def test_service_metrics_have_no_dedup_section(self):
        from repro.service.metrics import MetricsRecorder

        snapshot = MetricsRecorder().snapshot()
        payload = snapshot.as_dict()
        assert "dedup" not in payload
        assert "program_cache" in payload


class TestBenchmarkStandIns:
    """Two no-op names stay for the benchmark harness, which reads them."""

    def test_schedule_class_registry_clear_is_a_noop(self, listing1_package):
        before = run_package_tests(listing1_package, runs=4, seed=3)
        assert SCHEDULE_CLASS_REGISTRY.clear() is None
        SCHEDULE_CLASS_REGISTRY.clear()
        after = run_package_tests(listing1_package, runs=4, seed=3)
        assert _observables(after) == _observables(before)

    def test_runs_deduped_is_always_zero(self, listing1_package, listing1_fixed_package):
        for package in (listing1_package, listing1_fixed_package):
            assert run_package_tests(package, runs=6, seed=1).runs_deduped == 0
