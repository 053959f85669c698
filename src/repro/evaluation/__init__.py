"""Evaluation harness: regenerate every table and figure of the paper.

* :mod:`repro.evaluation.metrics`    — fix rates, category breakdowns, percentiles;
* :mod:`repro.evaluation.runner`     — run the pipeline over an evaluation split;
* :mod:`repro.evaluation.store`      — the persistent run store: per-case results
  cached by (case id, configuration fingerprint) in a :mod:`repro.store`
  JSON store;
* :mod:`repro.evaluation.ablation`   — the RQ2/RQ3 ablation arms (Figures 3-4, LCA, models);
* :mod:`repro.evaluation.survey`     — the RQ4 developer-survey table;
* :mod:`repro.evaluation.experiments`— one function per table/figure;
* :mod:`repro.evaluation.reporting`  — plain-text/markdown table rendering.

The serial/thread/process case executors (``--jobs`` / ``DRFIX_JOBS``) live in
:mod:`repro.execution` and are re-exported here.
"""

from repro.execution import CaseExecutor, ExecutorKind, resolve_jobs
from repro.evaluation.metrics import FixRate, percentile
from repro.evaluation.runner import (
    CaseResult,
    EvaluationRun,
    EvaluationRunner,
    ExperimentContext,
    evaluate_single_case,
)
from repro.evaluation.reporting import Table, format_table
from repro.evaluation.store import RunStore
from repro.fingerprint import config_fingerprint, corpus_fingerprint

__all__ = [
    "CaseExecutor",
    "ExecutorKind",
    "resolve_jobs",
    "FixRate",
    "percentile",
    "CaseResult",
    "EvaluationRun",
    "EvaluationRunner",
    "ExperimentContext",
    "evaluate_single_case",
    "Table",
    "format_table",
    "RunStore",
    "config_fingerprint",
    "corpus_fingerprint",
]
