"""Dr.Fix core: the paper's primary contribution.

The pipeline (Fig. 1 / Listing 13 of the paper) is assembled from:

* :mod:`repro.core.config` — :class:`DrFixConfig` with every knob the ablations toggle;
* :mod:`repro.core.race_info` — race-report ingestion and fix-location extraction
  (leaf / test / LCA functions, function / file scopes);
* :mod:`repro.core.skeleton` — concurrency skeleton creation via AST slicing;
* :mod:`repro.core.database` — the example database (skeleton → embedding → store);
* :mod:`repro.core.prompts` — prompt construction (Appendix E format);
* :mod:`repro.core.fix_generator` — RAG retrieval + model invocation + patch parsing;
* :mod:`repro.core.patcher` — applying model output at function or file scope;
* :mod:`repro.core.validator` — build + repeated test runs under the race detector;
* :mod:`repro.core.pipeline` — the :class:`DrFix` orchestrator;
* :mod:`repro.core.review` — the developer-validation (acceptance) model.
"""

from repro.core.config import DrFixConfig, FixLocation, FixScope
from repro.core.pipeline import DrFix, FixAttempt, FixOutcome
from repro.core.race_info import RaceInfo, RaceInfoExtractor, CodeItem
from repro.core.skeleton import Skeletonizer, skeletonize_source
from repro.core.database import ExampleDatabase, ExampleEntry
from repro.core.validator import FixValidator, ValidationResult
from repro.core.review import ReviewerModel, ReviewDecision

__all__ = [
    "DrFixConfig",
    "FixLocation",
    "FixScope",
    "DrFix",
    "FixAttempt",
    "FixOutcome",
    "RaceInfo",
    "RaceInfoExtractor",
    "CodeItem",
    "Skeletonizer",
    "skeletonize_source",
    "ExampleDatabase",
    "ExampleEntry",
    "FixValidator",
    "ValidationResult",
    "ReviewerModel",
    "ReviewDecision",
]
