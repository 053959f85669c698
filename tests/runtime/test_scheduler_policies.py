"""Tests for scheduler policies (incl. PCT), per-run seed derivation, the
adaptive run-count bound, and the parallel go-test harness."""

from __future__ import annotations

import pytest

from repro.runtime.goroutine import Goroutine, STEP
from repro.runtime.harness import DEFAULT_POLICIES, GoFile, GoPackage, GoTestHarness, run_package_tests
from repro.runtime.scheduler import (
    Scheduler,
    SchedulerPolicy,
    derive_run_seed,
    runs_for_detection_probability,
)

ALL_POLICIES = list(SchedulerPolicy)


def run_fanout(policy: SchedulerPolicy, seed: int, goroutines: int = 3,
               steps: int = 25, **scheduler_kwargs):
    """Drive N plain step-yielding goroutines; return the execution order."""
    scheduler = Scheduler(seed=seed, policy=policy, **scheduler_kwargs)
    order: list[str] = []

    def body(tag: str):
        for _ in range(steps):
            order.append(tag)
            yield STEP

    main = None
    for index in range(goroutines):
        goroutine = Goroutine(gid=scheduler.new_gid(), name=f"g{index}")
        goroutine.generator = body(f"g{index}")
        scheduler.register(goroutine)
        if main is None:
            main = goroutine
    scheduler.run(main)
    return order, scheduler


class TestPolicyDeterminismAndFairness:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_same_seed_replays_the_same_schedule(self, policy):
        first, _ = run_fanout(policy, seed=7)
        second, _ = run_fanout(policy, seed=7)
        assert first == second

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_different_seeds_explore_different_schedules(self, policy):
        if policy is SchedulerPolicy.ROUND_ROBIN:
            pytest.skip("round-robin is seed-independent by design")
        schedules = {tuple(run_fanout(policy, seed=s)[0]) for s in range(12)}
        assert len(schedules) > 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_goroutine_runs_to_completion(self, policy):
        order, _ = run_fanout(policy, seed=3, goroutines=4, steps=20)
        counts = {tag: order.count(tag) for tag in set(order)}
        assert counts == {f"g{i}": 20 for i in range(4)}

    @pytest.mark.parametrize(
        "policy", [SchedulerPolicy.RANDOM, SchedulerPolicy.PCT]
    )
    def test_randomized_policies_vary_the_first_scheduled_goroutine(self, policy):
        first_picks = {run_fanout(policy, seed=s)[0][0] for s in range(40)}
        assert first_picks == {"g0", "g1", "g2"}


class TestPCT:
    def test_change_points_are_sampled_within_the_horizon(self):
        scheduler = Scheduler(policy=SchedulerPolicy.PCT, seed=5,
                              pct_depth=4, pct_horizon=50)
        assert len(scheduler._pct_change_points) == 3
        assert all(0 < p < 50 for p in scheduler._pct_change_points)
        # Non-PCT schedulers carry no change points.
        assert Scheduler(policy=SchedulerPolicy.RANDOM, seed=5)._pct_change_points == frozenset()

    def test_change_points_demote_the_running_goroutine(self):
        _, scheduler = run_fanout(
            SchedulerPolicy.PCT, seed=11, goroutines=3, steps=30,
            pct_depth=3, pct_horizon=40,
        )
        # 90 steps span two full 40-step windows, so at least four change
        # points fired (two per window) and demoted priorities into the
        # strictly negative low band.
        assert scheduler._pct_low <= -4.0
        demoted = [p for p in scheduler._pct_priorities.values() if p < 1.0]
        assert demoted and all(p < 0 for p in demoted)

    def test_change_points_are_resampled_past_the_horizon(self):
        # A run much longer than the window keeps demoting: preemptions are
        # reachable throughout the run, not only in the first window.
        _, scheduler = run_fanout(
            SchedulerPolicy.PCT, seed=4, goroutines=2, steps=200,
            pct_depth=2, pct_horizon=50,
        )
        assert scheduler._pct_window_start >= 300  # 400 steps, window 50
        assert scheduler._pct_low <= -6.0

    def test_priorities_are_distinct_and_highest_runs(self):
        _, scheduler = run_fanout(SchedulerPolicy.PCT, seed=2)
        priorities = list(scheduler._pct_priorities.values())
        assert len(set(priorities)) == len(priorities)

    def test_pct_detects_the_listing1_race(self, listing1_package):
        harness = GoTestHarness(
            listing1_package, runs=8, policies=[SchedulerPolicy.PCT]
        )
        assert harness.run().reports


class TestRunSeedDerivation:
    def test_regression_base_seeds_differing_by_7919_diverge(self):
        # The old derivation (base + index * 7919) made harness(seed=0)'s run 1
        # replay harness(seed=7919)'s run 0 exactly.
        policy = SchedulerPolicy.RANDOM
        assert derive_run_seed(0, 1, policy) != derive_run_seed(7919, 0, policy)

    def test_pure_function_of_all_inputs(self):
        policy = SchedulerPolicy.RANDOM
        assert derive_run_seed(1, 2, policy) == derive_run_seed(1, 2, policy)
        assert derive_run_seed(1, 2, policy) != derive_run_seed(2, 2, policy)
        assert derive_run_seed(1, 2, policy) != derive_run_seed(1, 3, policy)
        assert derive_run_seed(1, 2, policy) != derive_run_seed(1, 2, SchedulerPolicy.PCT)

    def test_harness_plan_uses_hashed_seeds(self, listing1_package):
        plan = GoTestHarness(listing1_package, runs=4, seed=9).plan_runs()
        assert len(plan) == 4
        assert [policy for _, policy in plan] == list(DEFAULT_POLICIES)
        assert len({seed for seed, _ in plan}) == 4


class TestAdaptiveRunBound:
    def test_bound_matches_the_closed_form(self):
        # 1 - (1 - 0.5)^r >= 0.999  =>  r >= 10
        assert runs_for_detection_probability(0.5, 0.999, 20) == 10
        assert runs_for_detection_probability(0.55, 0.999, 10) == 9

    def test_bound_is_clamped_and_degenerate_cases(self):
        assert runs_for_detection_probability(0.1, 0.9999, 10) == 10  # clamp to max
        assert runs_for_detection_probability(1.0, 0.999, 10) == 1
        assert runs_for_detection_probability(0.0, 0.999, 10) == 10
        assert runs_for_detection_probability(0.5, 0.999, 1) == 1


class TestParallelHarness:
    def _signature(self, result):
        return (
            result.runs,
            result.tests_discovered,
            [r.bug_hash() for r in result.reports],
            result.test_failures,
            result.output,
            result.output_lines_truncated,
        )

    def test_stop_on_first_race_returns_the_serial_prefix(self, listing1_package):
        full = run_package_tests(listing1_package, runs=12)
        early = run_package_tests(listing1_package, runs=12, stop_on_first_race=True)
        assert early.reports
        assert early.runs <= full.runs
        # The early-exit result is the prefix of the full sweep that ends at
        # the first racy run, and it is deterministic.
        prefix = run_package_tests(listing1_package, runs=early.runs)
        assert self._signature(early) == self._signature(prefix)
        assert self._signature(early) == self._signature(
            run_package_tests(listing1_package, runs=12, stop_on_first_race=True))

    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_stop_on_first_race_stops_at_the_first_racy_run(self, listing1_package,
                                                            seed):
        early = run_package_tests(listing1_package, runs=12, seed=seed,
                                  stop_on_first_race=True)
        assert early.reports
        # Every run before the last was race-free: one run fewer finds nothing.
        shorter = run_package_tests(listing1_package, runs=early.runs - 1, seed=seed)
        assert not shorter.reports
        assert self._signature(early) == self._signature(
            run_package_tests(listing1_package, runs=early.runs, seed=seed))

    def test_stop_on_first_race_runs_a_clean_package_to_the_end(
            self, listing1_fixed_package):
        early = run_package_tests(listing1_fixed_package, runs=8,
                                  stop_on_first_race=True)
        assert early.runs == 8 and early.passed
        assert self._signature(early) == self._signature(
            run_package_tests(listing1_fixed_package, runs=8))

    def test_output_is_capped_per_run_with_marker(self):
        package = GoPackage(
            name="p",
            files=[
                GoFile(
                    "loud_test.go",
                    'package p\n\nimport "testing"\n\n'
                    "func TestLoud(t *testing.T) {\n"
                    '\tt.Logf("one")\n\tt.Logf("two")\n\tt.Logf("three")\n}\n',
                ),
            ],
        )
        result = run_package_tests(package, runs=2, max_output_lines=1)
        assert result.output_lines_truncated == 4  # 2 dropped lines x 2 runs
        markers = [line for line in result.output if "truncated" in line]
        assert markers == ["... [2 output line(s) truncated]"] * 2
        uncapped = run_package_tests(package, runs=2)
        assert uncapped.output_lines_truncated == 0
        assert len(uncapped.output) == 6
