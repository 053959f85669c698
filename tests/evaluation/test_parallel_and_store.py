"""Tests for the parallel evaluation engine and the persistent run store:
executor resolution, parallel-equals-serial determinism, cache hit/invalidation
semantics, serialisation round-trips, and the CLI ``--jobs`` path.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.core.config import DrFixConfig
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.errors import ConfigError
from repro.execution import (
    CaseExecutor,
    ExecutorKind,
    resolve_jobs,
    resolve_kind,
)
from repro.evaluation.runner import EvaluationRunner, ExperimentContext
from repro.evaluation.store import (
    RunStore,
    deserialize_case_result,
    serialize_case_result,
)
from repro.fingerprint import config_fingerprint, corpus_fingerprint
from repro.cli import main


SMALL_CORPUS = CorpusConfig(db_examples=8, eval_fixable=8, eval_unfixable=3, seed=8)


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(corpus_config=SMALL_CORPUS)


def _runner(context, jobs, executor, store=None):
    return EvaluationRunner(
        context.base_config, context.skeleton_database, context.reviewer,
        jobs=jobs, executor=executor, store=store,
    )


def _run_with(context, jobs, executor, store=None):
    """Run the full arm on an independent copy of the evaluation cases."""
    runner = _runner(context, jobs, executor, store)
    return runner.run(copy.deepcopy(context.dataset.evaluation), label="full")


def _signature(run):
    """Everything observable about a run except wall-clock durations."""
    return [
        (
            r.case.case_id, r.fixed, r.accepted, r.reproduced,
            r.outcome.strategy, r.outcome.location, r.outcome.scope,
            r.outcome.example_id, r.outcome.lines_changed,
            r.outcome.failure_reason, len(r.outcome.attempts),
        )
        for r in run.results
    ]


class TestExecutor:
    def test_resolve_jobs_explicit_env_and_negative(self, monkeypatch):
        assert resolve_jobs(3) == 3
        monkeypatch.setenv("DRFIX_JOBS", "5")
        assert resolve_jobs(None) == 5
        assert resolve_jobs(0) == 5
        monkeypatch.delenv("DRFIX_JOBS")
        assert resolve_jobs(None) == 1
        assert resolve_jobs(-1) >= 1
        monkeypatch.setenv("DRFIX_JOBS", "nope")
        with pytest.raises(ConfigError):
            resolve_jobs(None)

    def test_resolve_kind(self, monkeypatch):
        assert resolve_kind(None, jobs=1) is ExecutorKind.SERIAL
        assert resolve_kind(None, jobs=4) is ExecutorKind.PROCESS
        assert resolve_kind("thread", jobs=4) is ExecutorKind.THREAD
        monkeypatch.setenv("DRFIX_EXECUTOR", "thread")
        assert resolve_kind(None, jobs=2) is ExecutorKind.THREAD
        with pytest.raises(ConfigError):
            resolve_kind("banana", jobs=2)

    def test_map_preserves_submission_order(self):
        items = list(range(24))
        for kind in ("serial", "thread", "process"):
            result = CaseExecutor(kind=kind, jobs=4).map(_square, items)
            assert result == [i * i for i in items]


def _square(value: int) -> int:
    return value * value


class TestParallelDeterminism:
    def test_thread_and_process_runs_match_serial(self, context):
        serial = _run_with(context, jobs=1, executor="serial")
        threaded = _run_with(context, jobs=4, executor="thread")
        forked = _run_with(context, jobs=4, executor="process")
        assert _signature(serial) == _signature(threaded) == _signature(forked)
        assert str(serial.fix_rate()) == str(threaded.fix_rate()) == str(forked.fix_rate())
        for kind in (ExecutorKind.THREAD, ExecutorKind.PROCESS):
            executor = _runner(context, jobs=4, executor=kind.value).executor
            assert (executor.kind, executor.jobs) == (kind, 4)


class TestRunStore:
    def test_cold_then_warm_roundtrip(self, context, tmp_path):
        store = RunStore(tmp_path, namespace="t")
        cold = _run_with(context, 1, "serial", store=store)
        assert cold.cache_misses == len(cold.results) and cold.cache_hits == 0
        warm = _run_with(context, 1, "serial", store=store)
        assert warm.cache_hits == len(warm.results) and warm.cache_misses == 0
        assert _signature(cold) == _signature(warm)
        # The loaded patch reconstructs real diffs against the racy package.
        fixed = warm.fixed_results()
        assert fixed and all(
            r.outcome.patch is not None and r.outcome.patch.diff(r.case.package)
            for r in fixed
        )

    def test_fingerprint_change_invalidates(self, context, tmp_path):
        store = RunStore(tmp_path, namespace="t")
        _run_with(context, 1, "serial", store=store)
        fp_full = config_fingerprint(context.base_config)
        entries = list((tmp_path / "t").glob(f"*/{fp_full}-*.json"))
        assert len(entries) == len(context.dataset.evaluation)
        # A result-affecting knob changes the fingerprint → all misses.
        changed = context.base_config.without_rag()
        assert config_fingerprint(changed) != fp_full
        runner = EvaluationRunner(changed, None, context.reviewer, store=store)
        rerun = runner.run(copy.deepcopy(context.dataset.evaluation), label="no-rag")
        assert rerun.cache_hits == 0

    def test_serialization_roundtrip_preserves_outcome(self, context, tmp_path):
        run = _run_with(context, 1, "serial")
        for result in run.results:
            data = serialize_case_result(result)
            rebuilt = deserialize_case_result(
                json.loads(json.dumps(data)), result.case
            )
            assert rebuilt.fixed == result.fixed
            assert rebuilt.accepted == result.accepted
            assert rebuilt.outcome.strategy == result.outcome.strategy
            assert rebuilt.outcome.lines_changed == result.outcome.lines_changed
            assert len(rebuilt.outcome.attempts) == len(result.outcome.attempts)
            if result.outcome.patch is not None:
                assert rebuilt.outcome.patch.diff(result.case.package) == \
                    result.outcome.patch.diff(result.case.package)

    def test_corpus_namespace_separates_different_corpora(self):
        assert corpus_fingerprint(SMALL_CORPUS) != corpus_fingerprint(CorpusConfig())
        assert corpus_fingerprint(SMALL_CORPUS) == corpus_fingerprint(
            copy.deepcopy(SMALL_CORPUS)
        )

    def test_context_wires_store_and_reuses_across_contexts(self, tmp_path):
        first = ExperimentContext(corpus_config=SMALL_CORPUS, cache_dir=str(tmp_path))
        cold = first.full_run()
        second = ExperimentContext(corpus_config=SMALL_CORPUS, cache_dir=str(tmp_path))
        warm = second.full_run()
        assert warm.cache_hits == len(warm.results)
        assert _signature(cold) == _signature(warm)


class TestCLI:
    def test_evaluate_with_jobs_and_cache(self, tmp_path, capsys):
        args = ["evaluate", "--scale", "0.05", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "run store:" in out and "Table 7" in out
