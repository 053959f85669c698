"""Tests for the example database, the patcher, the validator, and the reviewer."""

import pytest

from repro.core.config import DrFixConfig, FixLocation, FixScope
from repro.core.database import ExampleDatabase, ExampleEntry
from repro.core.patcher import Patcher
from repro.core.race_info import CodeItem
from repro.core.review import ReviewerModel
from repro.core.validator import FixValidator
from repro.corpus.generator import generate_cases
from repro.diagnosis.categories import RaceCategory
from repro.errors import PatchError


@pytest.fixture(scope="module")
def small_database():
    cases = generate_cases(
        [RaceCategory.CAPTURE_BY_REFERENCE, RaceCategory.CONCURRENT_MAP_ACCESS,
         RaceCategory.PARALLEL_TEST_SUITE, RaceCategory.MISSING_SYNCHRONIZATION],
        count_per_category=2, seed=900, noise_level=1,
    )
    return cases, ExampleDatabase.from_cases(cases, DrFixConfig())


class TestExampleDatabase:
    def test_database_stores_every_example_with_a_skeleton(self, small_database):
        cases, database = small_database
        assert len(database) == len(cases)
        for entry in database.entries():
            assert entry.skeleton.strip()
            assert "racyVar" in entry.skeleton or "func1" in entry.skeleton

    def test_retrieval_finds_a_same_strategy_example(self, small_database):
        cases, database = small_database
        query_case = generate_cases([RaceCategory.CONCURRENT_MAP_ACCESS], 1, seed=31)[0]
        result = database.query_code(query_case.racy_source(),
                                     racy_variable=query_case.racy_variable)
        assert result is not None
        assert result.metadata["category"] == RaceCategory.CONCURRENT_MAP_ACCESS.value

    def test_empty_database_returns_none(self):
        database = ExampleDatabase(DrFixConfig())
        assert database.query_code("package p\nfunc F() {}\n") is None

    def test_manual_entry_addition(self):
        database = ExampleDatabase(DrFixConfig())
        database.add_example(ExampleEntry(
            example_id="x", buggy_code="package p\nfunc F() {\n\tgo f()\n}\n",
            fixed_code="package p\nfunc F() {\n\tf()\n}\n", category="others",
        ))
        assert len(database) == 1


def make_item(case, scope=FixScope.FILE, location=FixLocation.LEAF):
    return CodeItem(
        location=location,
        scope=scope,
        file_name=case.racy_file,
        function_names=[case.racy_function],
        code=case.racy_source() if scope is FixScope.FILE else case.racy_source(),
        racy_variable=case.racy_variable,
    )


class TestPatcher:
    def test_file_scope_patch_replaces_the_file(self, err_capture_case, drfix_config):
        patcher = Patcher(err_capture_case.package, drfix_config)
        item = make_item(err_capture_case, FixScope.FILE)
        patch = patcher.apply(item, err_capture_case.fixed_source())
        assert patch.changed_files == [err_capture_case.racy_file]
        assert patch.lines_changed(err_capture_case.package) > 0
        assert "-" in patch.diff(err_capture_case.package)

    def test_function_scope_patch_merges_by_declaration(self, err_capture_case, drfix_config):
        from repro.golang.parser import parse_file
        from repro.golang.printer import print_node

        fixed_ast = parse_file(err_capture_case.fixed_source(), err_capture_case.racy_file)
        fixed_func = print_node(fixed_ast.find_func(err_capture_case.racy_function))
        patcher = Patcher(err_capture_case.package, drfix_config)
        item = make_item(err_capture_case, FixScope.FUNCTION)
        patch = patcher.apply(item, fixed_func)
        new_source = patch.package.file(err_capture_case.racy_file).source
        assert "err :=" in new_source

    def test_malformed_response_raises_patch_error(self, err_capture_case, drfix_config):
        patcher = Patcher(err_capture_case.package, drfix_config)
        with pytest.raises(PatchError):
            patcher.apply(make_item(err_capture_case), "this is not valid go {{{")

    def test_empty_response_raises(self, err_capture_case, drfix_config):
        patcher = Patcher(err_capture_case.package, drfix_config)
        with pytest.raises(PatchError):
            patcher.apply(make_item(err_capture_case), "   ")

    def test_vendor_files_are_refused(self, drfix_config):
        from repro.corpus.templates.unfixable import make_external_vendor_case

        case = make_external_vendor_case(77, 1)
        patcher = Patcher(case.package, drfix_config)
        item = make_item(case)
        item = CodeItem(location=item.location, scope=item.scope,
                        file_name="vendor/connpool/pool.go", function_names=[],
                        code="package connpool\n", external=True)
        with pytest.raises(PatchError):
            patcher.apply(item, "package connpool\n\nfunc AcquireConn(n int) int {\n\treturn n\n}\n")

    def test_markdown_fences_are_stripped(self, err_capture_case, drfix_config):
        patcher = Patcher(err_capture_case.package, drfix_config)
        fenced = "```go\n" + err_capture_case.fixed_source() + "\n```"
        patch = patcher.apply(make_item(err_capture_case, FixScope.FILE), fenced)
        assert patch.changed_files == [err_capture_case.racy_file]

    def test_function_response_that_matches_nothing_raises(self, err_capture_case, drfix_config):
        patcher = Patcher(err_capture_case.package, drfix_config)
        with pytest.raises(PatchError):
            patcher.apply(make_item(err_capture_case, FixScope.FUNCTION),
                          "func CompletelyNew() {}\n")


class TestLinesChangedCounting:
    """Regression: a modified line is one changed line, not a ``-`` plus a ``+``."""

    def _patch(self, before: str, after: str):
        from repro.core.patcher import Patch
        from repro.runtime.harness import GoFile, GoPackage

        original = GoPackage(name="p", files=[GoFile("a.go", before)])
        patched = original.replace_file("a.go", after)
        return Patch(package=patched, changed_files=["a.go"]), original

    def test_modified_line_counts_once(self):
        before = "package p\n\nfunc F() int {\n\treturn 1\n}\n"
        after = "package p\n\nfunc F() int {\n\treturn 2\n}\n"
        patch, original = self._patch(before, after)
        assert patch.lines_changed(original) == 1

    def test_pure_insertions_count_in_full(self):
        before = "package p\n\nfunc F() int {\n\treturn 1\n}\n"
        after = "package p\n\nvar mu int\n\nfunc F() int {\n\treturn 1\n}\n"
        patch, original = self._patch(before, after)
        assert patch.lines_changed(original) == 2  # "var mu int" + blank line

    def test_mixed_hunk_counts_the_larger_side(self):
        before = "package p\n\nfunc F() int {\n\ta := 1\n\treturn a\n}\n"
        after = "package p\n\nfunc F() int {\n\ta := 2\n\tb := 3\n\treturn a + b\n}\n"
        patch, original = self._patch(before, after)
        # One hunk: 2 deletions vs 3 additions -> 3, not 5.
        assert patch.lines_changed(original) == 3

    def test_unchanged_package_counts_zero(self):
        source = "package p\n\nfunc F() int {\n\treturn 1\n}\n"
        patch, original = self._patch(source, source)
        assert patch.lines_changed(original) == 0


class TestValidator:
    def test_ground_truth_fix_validates(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        validator = FixValidator(drfix_config)
        result = validator.validate(err_capture_case.fixed_package, report.bug_hash())
        assert result.ok and result.feedback() == ""

    def test_unfixed_package_fails_validation_with_feedback(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        validator = FixValidator(drfix_config)
        result = validator.validate(err_capture_case.package, report.bug_hash())
        assert not result.ok and result.race_still_present
        assert "race" in result.feedback()

    def test_build_errors_fail_validation(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        broken = err_capture_case.package.replace_file(
            err_capture_case.racy_file, "package broken\nfunc ( {}\n"
        )
        result = FixValidator(drfix_config).validate(broken, report.bug_hash())
        assert not result.ok and result.build_errors
        assert "build failed" in result.feedback()

    def test_baseline_races_do_not_fail_validation(self, err_capture_case, drfix_config):
        report = err_capture_case.race_report(runs=10)
        validator = FixValidator(drfix_config)
        result = validator.validate(
            err_capture_case.fixed_package, "deadbeef",  # a different targeted bug
            baseline_hashes=[report.bug_hash()],
        )
        assert result.ok


class TestReviewer:
    def test_matching_strategy_is_usually_accepted(self, err_capture_case):
        reviewer = ReviewerModel()
        decision = reviewer.review(err_capture_case, err_capture_case.fix_strategy, 4)
        assert decision.accepted

    def test_oversized_patches_are_rejected_more_often(self):
        reviewer = ReviewerModel(accept_oversized=0.0)
        cases = generate_cases([RaceCategory.CAPTURE_BY_REFERENCE], 1, seed=123)
        decision = reviewer.review(cases[0], cases[0].fix_strategy, lines_changed=500)
        assert not decision.accepted

    def test_reviewer_is_deterministic(self, err_capture_case):
        first = ReviewerModel().review(err_capture_case, "mutex_guard", 12)
        second = ReviewerModel().review(err_capture_case, "mutex_guard", 12)
        assert first.accepted == second.accepted
