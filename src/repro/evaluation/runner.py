"""Run the Dr.Fix pipeline over an evaluation split and collect per-case results.

The runner is the evaluation engine's hot path.  Three properties make it
scale without changing any number in the paper's tables:

* **pluggable execution** — cases dispatch through a
  :class:`~repro.execution.CaseExecutor` (serial, thread-pool, or
  process-pool; worker count from an argument or the ``DRFIX_JOBS``
  environment variable); each case runs serially inside its worker;
* **determinism** — results are collected in submission order and every case's
  randomness is a pure function of (configuration, case), so a ``--jobs 4``
  run is bit-identical to a serial one;
* **persistent caching** — when a :class:`~repro.evaluation.store.RunStore` is
  attached, finished :class:`CaseResult`s are written to disk keyed by
  (case id, configuration fingerprint), in the versioned JSON format of
  :mod:`repro.store` that the service result cache shares, and reused across
  arms, processes, and sessions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix, FixOutcome
from repro.core.review import ReviewDecision, ReviewerModel
from repro.corpus.dataset import Dataset
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.corpus.ground_truth import RaceCase
from repro.execution import CaseExecutor, ExecutorKind
from repro.evaluation.metrics import FixRate
from repro.evaluation.store import RunStore
from repro.fingerprint import config_fingerprint, corpus_fingerprint


@dataclass
class CaseResult:
    """The pipeline's outcome for one evaluation case."""

    case: RaceCase
    outcome: FixOutcome
    review: Optional[ReviewDecision] = None
    reproduced: bool = True

    @property
    def fixed(self) -> bool:
        return self.outcome.fixed

    @property
    def accepted(self) -> bool:
        return self.fixed and self.review is not None and self.review.accepted


@dataclass
class EvaluationRun:
    """All case results for one configuration arm."""

    label: str
    config: DrFixConfig
    results: List[CaseResult] = field(default_factory=list)
    duration_seconds: float = 0.0
    #: How many results came from the run store vs were computed this run.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Backend description, e.g. ``serial`` or ``process[4]``.
    executor_label: str = "serial"

    def fix_rate(self) -> FixRate:
        return FixRate(
            fixed=sum(1 for r in self.results if r.fixed),
            total=len(self.results),
            label=self.label,
        )

    def acceptance_rate(self) -> FixRate:
        fixed = [r for r in self.results if r.fixed]
        return FixRate(
            fixed=sum(1 for r in fixed if r.accepted),
            total=len(fixed),
            label=f"{self.label} (accepted)",
        )

    def fixed_results(self) -> List[CaseResult]:
        return [r for r in self.results if r.fixed]

    def unfixed_results(self) -> List[CaseResult]:
        return [r for r in self.results if not r.fixed]


def evaluate_single_case(
    case: RaceCase,
    config: DrFixConfig,
    database: Optional[ExampleDatabase],
    reviewer: Optional[ReviewerModel] = None,
) -> CaseResult:
    """Evaluate one case: detect, fix, review.

    Module-level (and with picklable arguments) so it can be shipped to
    process-pool workers.
    """
    reviewer = reviewer if reviewer is not None else ReviewerModel()
    pipeline = DrFix(case.package, config=config, database=database)
    outcome = pipeline.fix_case(case)
    review = None
    if outcome.fixed:
        review = reviewer.review(case, outcome.strategy, outcome.lines_changed)
    return CaseResult(
        case=case,
        outcome=outcome,
        review=review,
        reproduced=bool(outcome.bug_hash),
    )


def _evaluate_for_pool(config: DrFixConfig, database: Optional[ExampleDatabase],
                       reviewer: ReviewerModel, case: RaceCase) -> CaseResult:
    """Positional-argument shim: ``partial`` of this is pickled once per chunk."""
    return evaluate_single_case(case, config, database, reviewer)


class EvaluationRunner:
    """Run one configuration over a list of cases."""

    def __init__(
        self,
        config: DrFixConfig,
        database: Optional[ExampleDatabase],
        reviewer: Optional[ReviewerModel] = None,
        jobs: Optional[int] = None,
        executor: "ExecutorKind | str | None" = None,
        store: Optional[RunStore] = None,
    ):
        self.config = config
        self.database = database
        self.reviewer = reviewer if reviewer is not None else ReviewerModel()
        self.executor = CaseExecutor(kind=executor, jobs=jobs)
        self.store = store

    def run(self, cases: Sequence[RaceCase], label: str = "") -> EvaluationRun:
        start = time.time()
        cases = list(cases)
        run = EvaluationRun(
            label=label or self.config.model,
            config=self.config,
            executor_label=self.executor.describe(),
        )

        results: List[Optional[CaseResult]] = [None] * len(cases)
        pending: List[int] = list(range(len(cases)))
        fingerprint = ""
        if self.store is not None:
            fingerprint = config_fingerprint(self.config)
            pending = []
            for index, case in enumerate(cases):
                cached = self.store.load(case, fingerprint)
                if cached is not None:
                    results[index] = cached
                else:
                    pending.append(index)

        if pending:
            worker = partial(
                _evaluate_for_pool, self.config, self.database, self.reviewer
            )
            computed = self.executor.map(worker, [cases[i] for i in pending])
            for index, result in zip(pending, computed):
                results[index] = result
                if self.store is not None:
                    self.store.save(result, fingerprint)

        run.results = [r for r in results if r is not None]
        run.cache_misses = len(pending)
        run.cache_hits = len(cases) - len(pending)
        run.duration_seconds = time.time() - start
        return run


class ExperimentContext:
    """Shared state for the experiment suite: one corpus, several configurations.

    The context builds the corpus and both example databases (skeleton-keyed
    and raw-text-keyed) once, then lets individual experiments run whichever
    configuration arms they need.  Runs are cached twice over: in memory by
    label (so Table 3, RQ1, and the ablations share the same full-configuration
    run within a session) and — when ``cache_dir`` is given — on disk through a
    :class:`~repro.evaluation.store.RunStore` namespaced by the corpus
    fingerprint (so repeated sessions and different tables reuse per-case work
    across processes).
    """

    def __init__(
        self,
        corpus_config: Optional[CorpusConfig] = None,
        base_config: Optional[DrFixConfig] = None,
        jobs: Optional[int] = None,
        executor: "ExecutorKind | str | None" = None,
        cache_dir: Optional[str] = None,
    ):
        self.corpus_config = corpus_config if corpus_config is not None else CorpusConfig()
        self.base_config = (base_config or DrFixConfig(model="gpt-4o")).validated()
        self.jobs = jobs
        self.executor = executor
        self.store: Optional[RunStore] = None
        if cache_dir:
            self.store = RunStore(
                cache_dir, namespace=corpus_fingerprint(self.corpus_config)
            )
        self.dataset: Dataset = CorpusGenerator(self.corpus_config).generate()
        self.skeleton_database = ExampleDatabase.from_cases(
            self.dataset.db_examples, self.base_config
        )
        self.raw_database = ExampleDatabase.from_cases(
            self.dataset.db_examples, self.base_config.with_raw_retrieval()
        )
        self.reviewer = ReviewerModel()
        self._runs: Dict[str, EvaluationRun] = {}

    # ------------------------------------------------------------------

    def database_for(self, config: DrFixConfig) -> Optional[ExampleDatabase]:
        if not config.use_rag:
            return None
        return self.skeleton_database if config.use_skeleton else self.raw_database

    def runner_for(self, config: DrFixConfig) -> EvaluationRunner:
        """An :class:`EvaluationRunner` wired to this context's executor and store."""
        return EvaluationRunner(
            config,
            self.database_for(config),
            self.reviewer,
            jobs=self.jobs,
            executor=self.executor,
            store=self.store,
        )

    def run_arm(self, label: str, config: DrFixConfig,
                cases: Optional[Sequence[RaceCase]] = None) -> EvaluationRun:
        """Run (or reuse) one configuration arm over the evaluation split."""
        if label in self._runs:
            return self._runs[label]
        runner = self.runner_for(config)
        run = runner.run(cases if cases is not None else self.dataset.evaluation, label=label)
        self._runs[label] = run
        return run

    def full_run(self) -> EvaluationRun:
        """The production-like arm: RAG with skeletons, all locations and scopes."""
        return self.run_arm("full", self.base_config)

    def deployment_run(self) -> EvaluationRun:
        """The RQ1 arm: the GPT-4-Turbo deployment configuration."""
        return self.run_arm("deployment", self.base_config.with_model("gpt-4-turbo"))
