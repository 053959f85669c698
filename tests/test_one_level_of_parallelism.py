"""One level of parallelism: workers fan out over cases and requests only.

``drfix evaluate --jobs`` and ``drfix serve --jobs/--workers`` are the
only parallelism settings.  Inside one case or request the pipeline
validates candidates one at a time and the harness runs its (seed, policy)
plan in a loop, so no config field or ``detect``/``fix`` flag sets a worker
count, and no environment variable can shrink the outer pool.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser
from repro.core.config import DrFixConfig
from repro.core.pipeline import DrFix
from repro.evaluation.runner import EvaluationRunner
from repro.execution import CaseExecutor, ExecutorKind
from repro.runtime.harness import GoFile, GoPackage, GoTestHarness
from repro.service import DrFixService


class TestOuterPool:
    def test_stray_nested_budget_does_not_serialise_the_runner(self, monkeypatch):
        monkeypatch.setenv("DRFIX_NESTED_BUDGET", "1")
        runner = EvaluationRunner(DrFixConfig(), None, jobs=4, executor="process")
        assert (runner.executor.kind, runner.executor.jobs) == (ExecutorKind.PROCESS, 4)

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_stray_nested_budget_does_not_clamp_an_executor(self, monkeypatch, kind):
        monkeypatch.setenv("DRFIX_NESTED_BUDGET", "1")
        executor = CaseExecutor(kind=kind, jobs=3)
        assert (executor.kind.value, executor.jobs) == (kind, 3)

    def test_sharded_service_reports_no_worker_budget(self):
        service = DrFixService(workers=2, start=False)
        try:
            assert "nested_budget" not in service.supervisor_stats()
        finally:
            service.shutdown()


class TestNoInnerWorkerKnob:
    @pytest.mark.parametrize("argv", [
        ["detect", "--jobs", "2"],
        ["detect", "--executor", "thread"],
        ["fix", "--jobs", "2"],
    ], ids=["detect-jobs", "detect-executor", "fix-jobs"])
    def test_cli_rejects_removed_flags(self, tmp_path, argv):
        command, *flag = argv
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, str(tmp_path), *flag])
        assert excinfo.value.code == 2

    def test_config_has_no_worker_count_field(self):
        names = {field.name for field in dataclasses.fields(DrFixConfig)}
        assert not names & {"jobs", "harness_jobs"}

    def test_harness_and_pipeline_take_no_worker_count(self):
        package = GoPackage(name="p", files=[GoFile("a.go", "package p\n")])
        with pytest.raises(TypeError):
            GoTestHarness(package, jobs=2)
        with pytest.raises(TypeError):
            DrFix(package, executor="thread")
