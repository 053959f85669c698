"""Tests for race-info extraction (Section 4.2) and prompt construction."""

import pytest

from repro.core.config import DrFixConfig, FixLocation, FixScope
from repro.core.race_info import RaceInfoExtractor, resolve_function
from repro.diagnosis import clean_variable_name
from repro.errors import ConfigError
from repro.golang.parser import parse_file
from repro.runtime.harness import GoPackage
from repro.runtime.race_report import GoroutineTrace, RaceReport, StackFrame


class TestConfig:
    def test_default_config_is_valid(self):
        config = DrFixConfig().validated()
        assert config.locations == (FixLocation.TEST, FixLocation.LEAF, FixLocation.LCA)

    def test_invalid_configs_raise(self):
        with pytest.raises(ConfigError):
            DrFixConfig(locations=()).validated()
        with pytest.raises(ConfigError):
            DrFixConfig(validator_runs=0).validated()

    def test_ablation_constructors(self):
        base = DrFixConfig()
        assert not base.without_rag().use_rag
        assert not base.with_raw_retrieval().use_skeleton
        assert base.function_scope_only().scopes == (FixScope.FUNCTION,)
        assert FixLocation.LCA not in base.without_lca().locations
        assert base.with_model("o1-preview").model == "o1-preview"


class TestRaceInfoExtraction:
    def test_locations_and_scopes_are_extracted(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        info = RaceInfoExtractor(err_capture_case.package, drfix_config).extract(report)
        assert info.bug_hash == report.bug_hash()
        assert info.racy_variable == "err"
        locations = {item.location for item in info.items}
        assert FixLocation.LEAF in locations and FixLocation.TEST in locations
        scopes = {item.scope for item in info.items}
        assert scopes == {FixScope.FUNCTION, FixScope.FILE}

    def test_leaf_function_scope_contains_the_racy_function(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        info = RaceInfoExtractor(err_capture_case.package, drfix_config).extract(report)
        leaf_items = info.items_for(FixLocation.LEAF, FixScope.FUNCTION)
        assert leaf_items
        assert f"func (" in leaf_items[0].code or "func " in leaf_items[0].code
        assert err_capture_case.racy_function in leaf_items[0].code

    def test_test_location_points_at_the_test_file(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        info = RaceInfoExtractor(err_capture_case.package, drfix_config).extract(report)
        test_items = info.items_for(FixLocation.TEST, FixScope.FUNCTION)
        assert test_items and test_items[0].file_name.endswith("_test.go")

    def test_lca_is_the_common_ancestor(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        info = RaceInfoExtractor(err_capture_case.package, drfix_config).extract(report)
        assert info.lca_function is not None

    def test_find_lca_is_the_deepest_shared_frame(self):
        def trace(path):
            # ``path`` is root-first; a trace stores its frames leaf-first.
            frames = [StackFrame(name, "a.go", 1) for name in reversed(path)]
            return GoroutineTrace(goroutine_id=1, is_write=True, frames=frames)

        def lca(first, second):
            report = RaceReport(first=trace(first), second=trace(second))
            return RaceInfoExtractor(GoPackage(name="p", files=[]))._find_lca(report)

        assert lca(["main", "A", "B"], ["main", "A", "C"]) == ("A", "a.go")
        assert lca(["main"], ["main"]) == ("main", "a.go")
        assert lca(["x"], ["y"]) == (None, None)

    def test_ordered_items_follow_config_order(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        info = RaceInfoExtractor(err_capture_case.package, drfix_config).extract(report)
        ordered = info.ordered_items(drfix_config)
        assert ordered[0].location is FixLocation.TEST
        function_first = [i for i in ordered if i.location is FixLocation.LEAF]
        assert function_first[0].scope is FixScope.FUNCTION

    def test_external_files_are_flagged(self, drfix_config):
        from repro.corpus.templates.unfixable import make_external_vendor_case

        case = make_external_vendor_case(55, 1)
        report = case.race_report(runs=10)
        info = RaceInfoExtractor(case.package, drfix_config).extract(report)
        leaf_items = info.items_for(FixLocation.LEAF, FixScope.FILE)
        assert any(item.external for item in leaf_items)

    def test_truncated_reports_lose_the_test_location(self, drfix_config):
        from repro.corpus.templates.unfixable import make_truncated_ancestry_case

        case = make_truncated_ancestry_case(55, 1)
        report = case.race_report(runs=10)
        info = RaceInfoExtractor(case.package, drfix_config).extract(report)
        assert info.test_frame is None


class TestHelpers:
    def test_clean_variable_name(self):
        assert clean_variable_name("Scanner.shards(map)") == "shards"
        assert clean_variable_name("limit") == "limit"
        assert clean_variable_name("feed.updates(slice header)") == "updates"
        assert clean_variable_name("map[string]int(map)") == ""
        assert clean_variable_name("") == ""

    def test_resolve_function_handles_qualified_and_closure_names(self):
        file = parse_file(
            "package p\n\ntype S struct{}\n\nfunc (s *S) Method() {}\n\nfunc Plain() {}\n"
        )
        assert resolve_function(file, "S.Method").name == "Method"
        assert resolve_function(file, "Plain.func1").name == "Plain"
        assert resolve_function(file, "Missing") is None
