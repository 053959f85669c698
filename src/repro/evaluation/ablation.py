"""Ablation studies (RQ2 and RQ3): retrieval, scope/feedback, LCA, and models."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.evaluation.metrics import FixRate, RateComparison
from repro.evaluation.runner import ExperimentContext


@dataclass
class AblationResult:
    """One ablation: a set of labelled arms with paper reference values."""

    name: str
    arms: List[RateComparison]

    def as_dict(self) -> Dict[str, FixRate]:
        return {arm.label: arm.measured for arm in self.arms}


#: Paper values (percent of validated fixes) for each ablation arm.
PAPER_RAG_VALUES = {"no-rag": 47.0, "rag-raw-text": 50.0, "rag-skeleton": 66.0}
PAPER_SCOPE_VALUES = {
    "function-only": 39.0,
    "file-only": 33.0,
    "file-with-feedback": 39.0,
    "function-file-feedback": 66.0,
}
PAPER_LCA_VALUES = {"without-lca": 62.53, "with-lca": 66.75}
PAPER_MODEL_VALUES = {"gpt-4o": 65.76, "o1-preview": 73.45}


def rag_ablation(context: ExperimentContext) -> AblationResult:
    """Figure 3: no RAG vs RAG without skeleton vs RAG with skeleton."""
    base = context.base_config
    arms = [
        ("no-rag", base.without_rag()),
        ("rag-raw-text", base.with_raw_retrieval()),
        ("rag-skeleton", base),
    ]
    comparisons = []
    for label, config in arms:
        run = context.run_arm(label, config)
        comparisons.append(
            RateComparison(label=label, paper_percent=PAPER_RAG_VALUES[label],
                           measured=run.fix_rate())
        )
    return AblationResult(name="rag", arms=comparisons)


def scope_ablation(context: ExperimentContext) -> AblationResult:
    """Figure 4: fix scope and validation-failure feedback."""
    base = context.base_config
    arms = [
        ("function-only", base.function_scope_only()),
        ("file-only", base.file_scope_only(feedback=False)),
        ("file-with-feedback", base.file_scope_only(feedback=True)),
        ("function-file-feedback", base),
    ]
    comparisons = []
    for label, config in arms:
        run = context.run_arm(label if label != "function-file-feedback" else "full",
                              config)
        comparisons.append(
            RateComparison(label=label, paper_percent=PAPER_SCOPE_VALUES[label],
                           measured=run.fix_rate())
        )
    return AblationResult(name="scope", arms=comparisons)


def location_ablation(context: ExperimentContext) -> AblationResult:
    """RQ2.5: the contribution of the LCA fix location."""
    base = context.base_config
    comparisons = [
        RateComparison(
            label="without-lca",
            paper_percent=PAPER_LCA_VALUES["without-lca"],
            measured=context.run_arm("without-lca", base.without_lca()).fix_rate(),
        ),
        RateComparison(
            label="with-lca",
            paper_percent=PAPER_LCA_VALUES["with-lca"],
            measured=context.run_arm("full", base).fix_rate(),
        ),
    ]
    return AblationResult(name="lca", arms=comparisons)


def model_ablation(context: ExperimentContext) -> AblationResult:
    """RQ3: GPT-4o vs o1-preview (same vector database, same corpus)."""
    base = context.base_config
    comparisons = [
        RateComparison(
            label="gpt-4o",
            paper_percent=PAPER_MODEL_VALUES["gpt-4o"],
            measured=context.run_arm("full", base.with_model("gpt-4o")).fix_rate(),
        ),
        RateComparison(
            label="o1-preview",
            paper_percent=PAPER_MODEL_VALUES["o1-preview"],
            measured=context.run_arm("o1-preview", base.with_model("o1-preview")).fix_rate(),
        ),
    ]
    return AblationResult(name="model", arms=comparisons)


def skeleton_noise_ablation(context: ExperimentContext) -> Dict[str, float]:
    """Design-choice ablation: retrieval precision with and without skeletons.

    Measures how often the nearest retrieved example demonstrates the same
    repair strategy as the query case's ground truth, using the two databases
    the context already built.  This isolates the retrieval component from the
    rest of the pipeline (docs/architecture.md §Design choices, retrieval isolation).
    """
    totals = {"skeleton": 0, "raw": 0}
    hits = {"skeleton": 0, "raw": 0}
    for case in context.dataset.fixable_eval_cases():
        config = context.base_config
        report = case.race_report(runs=config.detection_runs, seed=config.validator_seed)
        racy_lines = report.racy_lines(case.racy_file) if report is not None else []
        for mode, database in (("skeleton", context.skeleton_database),
                               ("raw", context.raw_database)):
            result = database.query_code(
                case.racy_source(),
                racy_variable=case.racy_variable,
                racy_lines=racy_lines,
                filename=case.racy_file,
            )
            totals[mode] += 1
            if result is not None and result.metadata.get("strategy") == case.fix_strategy:
                hits[mode] += 1
    return {
        mode: (hits[mode] / totals[mode] if totals[mode] else 0.0)
        for mode in ("skeleton", "raw")
    }
