"""Tests for the fix strategies: detection, application, and end-to-end validity."""

import pytest

from repro.corpus.templates import TEMPLATE_REGISTRY
from repro.corpus.templates.capture_by_ref import (
    make_ctx_select_err_case,
    make_err_capture_case,
    make_limit_capture_case,
)
from repro.corpus.templates.advanced_sync import (
    make_atomic_counter_case,
    make_once_init_case,
    make_rwmutex_read_case,
)
from repro.corpus.templates.concurrent_map import make_shard_map_case
from repro.corpus.templates.loop_var import make_loop_var_case
from repro.corpus.templates.missing_sync import make_counter_case, make_waitgroup_add_case
from repro.corpus.templates.parallel_test import make_shared_hash_case
from repro.corpus.templates.others import make_config_copy_case, make_rand_source_case
from repro.diagnosis import infer_pattern_from_example
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies import (
    STRATEGY_ORDER,
    STRATEGY_REGISTRY,
    ordered_strategies,
    parse_scope,
)
from repro.runtime.harness import run_package_tests


def task_for(case, scope_kind: str = "file") -> FixTask:
    report = case.race_report(runs=12)
    assert report is not None
    return FixTask(
        code=case.racy_source() if scope_kind == "file" else case.racy_source(),
        scope=scope_kind,
        file_name=case.racy_file,
        racy_variable=case.racy_variable,
        racy_functions=report.involved_functions(),
    )


def apply_strategy(case, strategy_name: str) -> str:
    task = task_for(case)
    scope = parse_scope(task.code)
    strategy = STRATEGY_REGISTRY[strategy_name]
    plan = strategy.detect(task, scope)
    assert plan is not None, f"{strategy_name} did not detect its pattern"
    revised = strategy.apply(task, scope, plan)
    assert revised and revised != task.code
    return revised


def validates(case, revised: str) -> bool:
    report = case.race_report(runs=12)
    patched = case.package.replace_file(case.racy_file, revised)
    result = run_package_tests(patched, runs=12)
    return result.built and not result.has_race(report.bug_hash()) and not result.test_failures


# ---------------------------------------------------------------------------
# Registry basics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_every_strategy_has_a_unique_name(self):
        assert len(STRATEGY_REGISTRY) == len(set(STRATEGY_REGISTRY))

    def test_order_covers_exactly_the_registry(self):
        assert set(STRATEGY_ORDER) == set(STRATEGY_REGISTRY)

    def test_ordered_strategies_respects_allowed_filter(self):
        names = [s.name for s in ordered_strategies({"redeclare", "mutex_guard"})]
        assert names == ["redeclare", "mutex_guard"]


# ---------------------------------------------------------------------------
# Individual strategies
# ---------------------------------------------------------------------------


class TestIndividualStrategies:
    def test_redeclare_changes_assignment_to_declaration(self):
        case = make_err_capture_case(21, 0)
        revised = apply_strategy(case, "redeclare")
        assert revised.count(":=") == case.racy_source().count(":=") + 1
        assert validates(case, revised)

    def test_privatize_introduces_local_copy(self):
        case = make_limit_capture_case(22, 0)
        revised = apply_strategy(case, "privatize_local_copy")
        assert "localLimit := limit" in revised.replace("\t", "")
        assert validates(case, revised)

    def test_loop_var_copy_inserts_self_assignment(self):
        case = make_loop_var_case(23, 0)
        revised = apply_strategy(case, "loop_var_copy")
        assert f"{case.racy_variable} := {case.racy_variable}" in revised
        assert validates(case, revised)

    def test_move_wg_add_relocates_add_before_go(self):
        case = make_waitgroup_add_case(24, 0)
        revised = apply_strategy(case, "move_wg_add")
        add_index = revised.index("wg.Add(1)")
        go_index = revised.index("go func(")
        assert add_index < go_index
        assert validates(case, revised)

    @pytest.mark.parametrize("clause", ["case <-ch:", "case 1:"])
    def test_move_wg_add_reaches_a_go_in_a_clause_body(self, clause):
        header = "select {" if clause.startswith("case <-") else "switch n {"
        source = f"""package p

import "sync"

func Run(ch chan int, n int) {{
\tvar wg sync.WaitGroup
\tgo func() {{
\t\twg.Add(1)
\t\tdefer wg.Done()
\t}}()
\t{header}
\t{clause}
\t\tgo func() {{
\t\t\twg.Add(1)
\t\t\tdefer wg.Done()
\t\t}}()
\t}}
\twg.Wait()
}}
"""
        task = FixTask(code=source, scope="file", file_name="p.go",
                       racy_variable="wg", racy_functions=["p.Run"])
        scope = parse_scope(source)
        strategy = STRATEGY_REGISTRY["move_wg_add"]
        revised = strategy.apply(task, scope, strategy.detect(task, scope))
        assert revised.count("wg.Add(1)") == 2
        clause_body = revised[revised.index(clause):]
        assert clause_body.index("wg.Add(1)") < clause_body.index("go func(")
        assert revised.index("wg.Add(1)") < revised.index("go func(")

    def test_mutex_guard_adds_field_and_locks_methods(self):
        case = make_counter_case(25, 0)
        revised = apply_strategy(case, "mutex_guard")
        assert "mu sync.Mutex" in revised
        assert revised.count(".Lock()") >= 2
        assert validates(case, revised)

    def test_sync_map_convert_rewrites_all_operations(self):
        case = make_shard_map_case(26, 0)
        revised = apply_strategy(case, "sync_map_convert")
        assert "sync.Map" in revised
        assert ".Range(func(" in revised
        assert ".Delete(" in revised
        assert ".Store(" in revised
        assert validates(case, revised)

    def test_channel_error_adds_error_channel(self):
        case = make_ctx_select_err_case(27, 0)
        revised = apply_strategy(case, "channel_error")
        assert "errChan := make(chan error, 1)" in revised
        assert "errChan <- err" in revised
        assert validates(case, revised)

    def test_struct_copy_copies_before_mutation(self):
        case = make_config_copy_case(28, 0)
        revised = apply_strategy(case, "struct_copy")
        assert ":= *" in revised
        assert validates(case, revised)

    def test_rand_per_request_creates_fresh_source(self):
        case = make_rand_source_case(29, 0)
        revised = apply_strategy(case, "rand_per_request")
        assert "rand.New(rand.NewSource(" in revised
        assert validates(case, revised)

    def test_parallel_test_isolation_removes_shared_fixture(self):
        case = make_shared_hash_case(30, 0)
        report = case.race_report(runs=12)
        task = FixTask(
            code=case.racy_source(), scope="file", file_name=case.racy_file,
            racy_variable=case.racy_variable, racy_functions=report.involved_functions(),
        )
        scope = parse_scope(task.code)
        strategy = STRATEGY_REGISTRY["parallel_test_isolation"]
        plan = strategy.detect(task, scope)
        assert plan is not None and plan.data["variable"] == "sampleHash"
        revised = strategy.apply(task, scope, plan)
        assert "sampleHash :=" not in revised
        assert validates(case, revised)

    def test_strategies_do_not_misfire_on_clean_code(self):
        clean = """
package p

import "sync"

func Clean() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return 1
}
"""
        task = FixTask(code=clean, scope="file", racy_variable="")
        scope = parse_scope(clean)
        for name in ("redeclare", "loop_var_copy", "move_wg_add", "sync_map_convert",
                     "channel_error", "struct_copy", "parallel_test_isolation",
                     "rand_per_request"):
            assert STRATEGY_REGISTRY[name].detect(task, scope) is None, name


# ---------------------------------------------------------------------------
# Example-pattern inference
# ---------------------------------------------------------------------------


class TestExampleInference:
    @pytest.mark.parametrize(
        "maker, expected",
        [
            (make_err_capture_case, "redeclare"),
            (make_limit_capture_case, "privatize_local_copy"),
            (make_loop_var_case, "loop_var_copy"),
            (make_waitgroup_add_case, "move_wg_add"),
            (make_counter_case, "mutex_guard"),
            (make_shard_map_case, "sync_map_convert"),
            (make_ctx_select_err_case, "channel_error"),
            (make_config_copy_case, "struct_copy"),
            (make_rand_source_case, "rand_per_request"),
            (make_shared_hash_case, "parallel_test_isolation"),
            (make_atomic_counter_case, "atomic_counter"),
            (make_rwmutex_read_case, "rwmutex_read_lock"),
            (make_once_init_case, "once_lazy_init"),
        ],
    )
    def test_demonstrated_strategy_is_inferred_from_example(self, maker, expected):
        case = maker(31, 1)
        assert infer_pattern_from_example(case.racy_source(), case.fixed_source()) == expected

    def test_empty_example_infers_nothing(self):
        assert infer_pattern_from_example("", "") is None

    def test_identical_code_infers_nothing(self):
        code = "package p\nfunc F() {}\n"
        assert infer_pattern_from_example(code, code) is None

    def test_inference_accuracy_over_every_fixable_template(self):
        hits = 0
        total = 0
        for category, templates in TEMPLATE_REGISTRY.items():
            for template in templates:
                case = template(97, 1)
                total += 1
                inferred = infer_pattern_from_example(case.racy_source(), case.fixed_source())
                if inferred == case.fix_strategy:
                    hits += 1
        assert hits / total >= 0.85
