"""Persistent run store: cache per-case pipeline results across processes.

Regenerating the paper's tables runs the same (case, configuration) pairs over
and over — Table 3, RQ1, Figure 4 and the LCA ablation all need the "full"
arm, every benchmark session rebuilds it, and ``drfix evaluate`` recomputes
everything from scratch.  :class:`RunStore` caches each
:class:`~repro.evaluation.runner.CaseResult` as one entry of a
:class:`~repro.store.JsonStore` (the on-disk format the service result cache
shares) rooted at ``<root>/<namespace>/`` and keyed by

* the **configuration fingerprint** — a stable hash of every field of
  :class:`~repro.core.config.DrFixConfig` (worker counts are not config
  fields, so a parallel run hits a serial run's entries; see
  :func:`repro.fingerprint.config_fingerprint`),
* the **case id**,

with the namespace by convention the corpus fingerprint, so corpora of
different shapes never share entries.  The serialised result is the entry's
payload; changing its shape bumps :data:`STORE_VERSION`, so old entries read
as misses.  Layout, envelope, miss rule and atomic writes are the store's.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.core.patcher import Patch
from repro.core.pipeline import FixAttempt, FixOutcome
from repro.core.review import ReviewDecision
from repro.corpus.ground_truth import RaceCase
from repro.diagnosis import Diagnosis, category_from_value
from repro.runtime.harness import GoFile, GoPackage
from repro.store import JsonStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports store)
    from repro.evaluation.runner import CaseResult

#: Bump when the serialised shape of a cache entry changes.
STORE_VERSION = 3


# ---------------------------------------------------------------------------
# CaseResult (de)serialisation
# ---------------------------------------------------------------------------


def serialize_case_result(result: "CaseResult") -> Dict[str, Any]:
    """Reduce a :class:`CaseResult` to a JSON-serialisable dict.

    The case itself is *not* stored (the caller re-attaches the live corpus
    case on load); the patch stores only the changed files' sources, with the
    unchanged files reconstructed from the case's racy package.
    """
    outcome = result.outcome
    patch = None
    if outcome.patch is not None:
        patch = {
            "changed_files": list(outcome.patch.changed_files),
            "sources": {
                name: file.source
                for name in outcome.patch.changed_files
                for file in [outcome.patch.package.file(name)]
                if file is not None
            },
        }
    review = None
    if result.review is not None:
        review = {
            "accepted": result.review.accepted,
            "reason": result.review.reason,
            "requires_refinement": result.review.requires_refinement,
        }
    diagnosis = None
    if outcome.diagnosis is not None:
        diagnosis = {
            "category": outcome.diagnosis.category.value,
            "access_pattern": outcome.diagnosis.access_pattern,
            "racy_variable": outcome.diagnosis.racy_variable,
            "raw_variable": outcome.diagnosis.raw_variable,
            "symbols": list(outcome.diagnosis.symbols),
            "scopes": list(outcome.diagnosis.scopes),
            "confidence": outcome.diagnosis.confidence,
            "evidence": outcome.diagnosis.evidence,
        }
    return {
        "reproduced": result.reproduced,
        "review": review,
        "outcome": {
            "bug_hash": outcome.bug_hash,
            "fixed": outcome.fixed,
            "diagnosis": diagnosis,
            "strategy": outcome.strategy,
            "location": outcome.location,
            "scope": outcome.scope,
            "guided_by_example": outcome.guided_by_example,
            "example_id": outcome.example_id,
            "lines_changed": outcome.lines_changed,
            "duration_seconds": outcome.duration_seconds,
            "failure_reason": outcome.failure_reason,
            "model_calls": outcome.model_calls,
            "validations": outcome.validations,
            "attempts": [dataclasses.asdict(attempt) for attempt in outcome.attempts],
            "patch": patch,
        },
    }


def deserialize_case_result(data: Dict[str, Any], case: RaceCase) -> "CaseResult":
    """Rebuild a :class:`CaseResult` for ``case`` from its stored form."""
    from repro.evaluation.runner import CaseResult

    raw_outcome = data["outcome"]
    patch = None
    raw_patch = raw_outcome.get("patch")
    if raw_patch is not None:
        sources = dict(raw_patch["sources"])
        files = [
            GoFile(name=file.name, source=sources.pop(file.name, file.source))
            for file in case.package.files
        ]
        files.extend(GoFile(name=name, source=source) for name, source in sources.items())
        patch = Patch(
            package=GoPackage(name=case.package.name, files=files),
            changed_files=list(raw_patch["changed_files"]),
        )
    diagnosis = None
    raw_diagnosis = raw_outcome.get("diagnosis")
    if raw_diagnosis is not None:
        category = category_from_value(raw_diagnosis["category"])
        if category is not None:
            diagnosis = Diagnosis(
                category=category,
                access_pattern=raw_diagnosis["access_pattern"],
                racy_variable=raw_diagnosis["racy_variable"],
                raw_variable=raw_diagnosis["raw_variable"],
                symbols=list(raw_diagnosis["symbols"]),
                scopes=list(raw_diagnosis["scopes"]),
                confidence=raw_diagnosis["confidence"],
                evidence=raw_diagnosis["evidence"],
            )
    outcome = FixOutcome(
        bug_hash=raw_outcome["bug_hash"],
        fixed=raw_outcome["fixed"],
        patch=patch,
        diagnosis=diagnosis,
        strategy=raw_outcome["strategy"],
        location=raw_outcome["location"],
        scope=raw_outcome["scope"],
        guided_by_example=raw_outcome["guided_by_example"],
        example_id=raw_outcome["example_id"],
        lines_changed=raw_outcome["lines_changed"],
        attempts=[FixAttempt(**attempt) for attempt in raw_outcome["attempts"]],
        duration_seconds=raw_outcome["duration_seconds"],
        failure_reason=raw_outcome["failure_reason"],
        model_calls=raw_outcome["model_calls"],
        validations=raw_outcome["validations"],
    )
    review = None
    if data.get("review") is not None:
        review = ReviewDecision(**data["review"])
    return CaseResult(
        case=case, outcome=outcome, review=review, reproduced=data["reproduced"]
    )


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class RunStore:
    """Per-case evaluation results in a versioned JSON store."""

    def __init__(self, root: "Path | str", namespace: str = "default"):
        self.root = Path(root)
        self.store = JsonStore(self.root / namespace, STORE_VERSION)

    @property
    def hits(self) -> int:
        return self.store.hits

    @property
    def misses(self) -> int:
        return self.store.misses

    def load(self, case: RaceCase, config_fp: str) -> Optional["CaseResult"]:
        """The cached result for (case, fingerprint), or ``None`` on a miss."""
        return self.store.get(f"{config_fp}-{case.case_id}",
                              lambda data: deserialize_case_result(data, case))

    def save(self, result: "CaseResult", config_fp: str) -> Path:
        """Atomically persist one case result; returns the entry's path."""
        return self.store.put(f"{config_fp}-{result.case.case_id}",
                              serialize_case_result(result))


__all__ = [
    "STORE_VERSION",
    "RunStore",
    "deserialize_case_result",
    "serialize_case_result",
]
