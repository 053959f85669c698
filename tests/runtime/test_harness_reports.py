"""Tests for the go-test harness and the ThreadSanitizer-format reports."""

from repro.golang.parser import parse_file
from repro.runtime.harness import GoFile, GoPackage, GoTestHarness, run_package_tests
from repro.runtime.race_report import RaceReport, call_paths, merge_reports, parse_report


class TestGoPackage:
    def test_replace_and_with_file(self, listing1_package):
        replaced = listing1_package.replace_file("service.go", "package svc\n")
        assert replaced.file("service.go").source == "package svc\n"
        added = listing1_package.with_file("extra.go", "package svc\n")
        assert added.file("extra.go") is not None
        # The original package is untouched.
        assert listing1_package.file("extra.go") is None

    def test_test_file_detection_and_lines(self, listing1_package):
        assert listing1_package.file("service_test.go").is_test_file()
        assert not listing1_package.file("service.go").is_test_file()
        assert listing1_package.total_lines() > 20


class TestHarness:
    def test_discovers_test_functions(self, listing1_package):
        harness = GoTestHarness(listing1_package, runs=2)
        files, errors = harness.parse()
        assert not errors
        tests = harness.discover_tests(files)
        assert [t.name for t in tests] == ["TestSomeFunction"]

    def test_build_errors_are_reported(self, listing1_package):
        broken = listing1_package.replace_file("service.go", "package svc\nfunc Broken( {}\n")
        result = run_package_tests(broken, runs=2)
        assert not result.built
        assert result.build_errors
        assert "BUILD FAILED" in result.summary()

    def test_nesting_too_deep_to_lower_is_a_build_error(self):
        # 300 nested blocks parse, but lowering them recurses past the
        # interpreter's limit: the build fails the way the parser's does.
        body = "x := 0\n" + "{\n" * 300 + "x++\n" + "}\n" * 300
        source = ("package deep\n\nimport \"testing\"\n\n"
                  "func TestDeep(t *testing.T) {\n" + body + "}\n")
        parse_file(source, "deep_test.go")
        package = GoPackage(name="deep", files=[GoFile("deep_test.go", source)])
        for _ in range(2):  # the second run takes the cached, failed build
            result = run_package_tests(package, runs=2)
            assert not result.built
            [error] = result.build_errors
            assert error.startswith("deep_test.go:") and error.endswith(": nesting too deep")

    def test_nesting_too_deep_in_an_uncalled_function_is_a_build_error(self):
        # No test calls ``Deep``, so a run would never lower it: the build
        # still checks nesting up front and fails the same way.
        body = "x := 0\n" + "{\n" * 300 + "x++\n" + "}\n" * 300
        source = ("package deep\n\nimport \"testing\"\n\n"
                  "func Deep() {\n" + body + "}\n\n"
                  "func TestShallow(t *testing.T) {\n}\n")
        package = GoPackage(name="deep", files=[GoFile("uncalled_test.go", source)])
        for _ in range(2):
            result = run_package_tests(package, runs=2)
            assert not result.built
            [error] = result.build_errors
            assert error.startswith("uncalled_test.go:") and error.endswith(": nesting too deep")

    def test_racy_package_summary_mentions_races(self, listing1_package):
        result = run_package_tests(listing1_package, runs=8)
        assert result.reports
        assert "data race" in result.summary()

    def test_clean_package_passes(self, listing1_fixed_package):
        result = run_package_tests(listing1_fixed_package, runs=8)
        assert result.passed
        assert "PASS" in result.summary()

    def test_failing_assertion_is_reported(self):
        package = GoPackage(
            name="p",
            files=[
                GoFile("lib.go", "package p\n\nfunc Answer() int {\n\treturn 41\n}\n"),
                GoFile(
                    "lib_test.go",
                    "package p\n\nimport \"testing\"\n\nfunc TestAnswer(t *testing.T) {\n"
                    "\tif Answer() != 42 {\n\t\tt.Errorf(\"wrong answer %d\", Answer())\n\t}\n}\n",
                ),
            ],
        )
        result = run_package_tests(package, runs=2)
        assert result.test_failures
        assert any("wrong answer" in failure for failure in result.test_failures)

    def test_parallel_subtests_run_after_parent_returns(self):
        package = GoPackage(
            name="p",
            files=[
                GoFile(
                    "par_test.go",
                    """
package p

import "testing"

func TestParallel(t *testing.T) {
	order := make(chan string, 4)
	names := []string{"a", "b"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			order <- name
		})
	}
	order <- "parent-done"
}
""",
                ),
            ],
        )
        result = run_package_tests(package, runs=3)
        assert result.built and not result.test_failures

    def test_empty_package_passes(self):
        package = GoPackage(name="empty", files=[GoFile("lib.go", "package empty\n")])
        result = run_package_tests(package, runs=2)
        assert result.passed and result.tests_discovered == 0


class TestRaceReports:
    def _report(self, listing1_package) -> RaceReport:
        result = run_package_tests(listing1_package, runs=10)
        assert result.reports
        return result.reports[0]

    def test_report_contains_both_stacks_and_creation_site(self, listing1_package):
        report = self._report(listing1_package)
        text = report.render()
        assert "WARNING: DATA RACE" in text
        assert "created at:" in text
        assert "SomeFunction" in text

    def test_render_parse_round_trip(self, listing1_package):
        report = self._report(listing1_package)
        parsed = parse_report(report.render())
        assert {f.function for f in parsed.first.frames} == {f.function for f in report.first.frames}
        assert parsed.second.goroutine_id == report.second.goroutine_id

    def test_bug_hash_is_stable_across_runs(self, listing1_package):
        first = run_package_tests(listing1_package, runs=8, seed=0).reports[0].bug_hash()
        second = run_package_tests(listing1_package, runs=8, seed=99).reports[0].bug_hash()
        assert first == second

    def test_bug_hash_distinguishes_different_races(self, listing1_package, waitgroup_case):
        listing_hash = self._report(listing1_package).bug_hash()
        other_hash = waitgroup_case.race_report(runs=10).bug_hash()
        assert listing_hash != other_hash

    def test_involved_functions_and_files(self, listing1_package):
        report = self._report(listing1_package)
        assert "SomeFunction" in " ".join(report.involved_functions())
        assert "service.go" in report.involved_files()

    def test_merge_reports_deduplicates_by_hash(self, listing1_package):
        report = self._report(listing1_package)
        assert len(merge_reports([report, report])) == 1

    def test_call_paths_are_root_first(self, listing1_package):
        report = self._report(listing1_package)
        first, second = call_paths(report)
        assert first[-1] == report.first.frames[0].function
