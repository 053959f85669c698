"""Dr.Fix configuration: every knob the paper's ablations toggle."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.embedding.embedder import EmbedderConfig
from repro.errors import ConfigError


class FixLocation(enum.Enum):
    """Candidate fix locations extracted from a race report (Section 4.2)."""

    TEST = "test"
    LEAF = "leaf"
    LCA = "lca"


class FixScope(enum.Enum):
    """How much code is handed to the model for one attempt (Section 4.2)."""

    FUNCTION = "function"
    FILE = "file"


@dataclass(frozen=True)
class DrFixConfig:
    """Configuration of one Dr.Fix deployment / experiment arm."""

    #: Model profile name (see :data:`repro.llm.simulated.MODEL_PROFILES`).
    model: str = "gpt-4-turbo"
    #: Fix locations in attempt order (the paper uses test, leaf, LCA).
    locations: Tuple[FixLocation, ...] = (FixLocation.TEST, FixLocation.LEAF, FixLocation.LCA)
    #: Fix scopes in attempt order (function first, then whole file).
    scopes: Tuple[FixScope, ...] = (FixScope.FUNCTION, FixScope.FILE)
    #: Retrieval-augmented generation on/off (Figure 3 ablation).
    use_rag: bool = True
    #: Retrieve by concurrency skeleton (True) or by raw code text (False).
    use_skeleton: bool = True
    #: Also try the "empty example" so the model can rely on inherent capability.
    include_empty_example: bool = True
    #: After the last scope fails, retry once with the accumulated failure
    #: feedback in the prompt (Section 4.4.2).
    final_feedback_retry: bool = True
    #: Number of scheduler-seeded test executions used by the validator (the
    #: paper runs package tests 1000×; the interpreter needs far fewer seeds
    #: to re-expose these races — see docs/architecture.md §Design choices).
    validator_runs: int = 10
    validator_seed: int = 0
    #: Adaptive run count: derive the number of validation runs from a
    #: detection-probability bound instead of always using ``validator_runs``.
    #: With per-run hit rate ``adaptive_hit_rate`` the validator stops at the
    #: smallest run count that exposes a surviving race with probability
    #: ``adaptive_confidence`` (never more than ``validator_runs``).
    adaptive_runs: bool = False
    adaptive_hit_rate: float = 0.55
    adaptive_confidence: float = 0.999
    #: Number of detection runs when reproducing a race from a report.
    detection_runs: int = 10
    #: Patches may touch at most this many files (the paper's 2-file limit).
    max_files_changed: int = 2
    #: Vendor/external paths the patcher refuses to modify.
    external_prefixes: Tuple[str, ...] = ("vendor/", "external/", "third_party/")
    #: Embedder settings shared by the database and query sides.
    embedder: EmbedderConfig = field(default_factory=EmbedderConfig)

    # ------------------------------------------------------------------

    def validated(self) -> "DrFixConfig":
        """Return self after sanity-checking the configuration."""
        if not self.locations:
            raise ConfigError("at least one fix location is required")
        if not self.scopes:
            raise ConfigError("at least one fix scope is required")
        if self.validator_runs <= 0:
            raise ConfigError("validator_runs must be positive")
        if self.max_files_changed <= 0:
            raise ConfigError("max_files_changed must be positive")
        if not 0.0 < self.adaptive_hit_rate <= 1.0:
            raise ConfigError("adaptive_hit_rate must be in (0, 1]")
        if not 0.0 < self.adaptive_confidence < 1.0:
            raise ConfigError("adaptive_confidence must be in (0, 1)")
        return self

    # -- experiment-arm constructors (used by the ablation harness) ----------------------

    def with_model(self, model: str) -> "DrFixConfig":
        return replace(self, model=model)

    def with_adaptive_runs(self, hit_rate: float = 0.55,
                           confidence: float = 0.999) -> "DrFixConfig":
        return replace(self, adaptive_runs=True, adaptive_hit_rate=hit_rate,
                       adaptive_confidence=confidence)

    def without_rag(self) -> "DrFixConfig":
        return replace(self, use_rag=False)

    def with_raw_retrieval(self) -> "DrFixConfig":
        return replace(self, use_rag=True, use_skeleton=False)

    def function_scope_only(self) -> "DrFixConfig":
        return replace(self, scopes=(FixScope.FUNCTION,), final_feedback_retry=False)

    def file_scope_only(self, feedback: bool = False) -> "DrFixConfig":
        return replace(self, scopes=(FixScope.FILE,), final_feedback_retry=feedback)

    def without_lca(self) -> "DrFixConfig":
        return replace(
            self,
            locations=tuple(l for l in self.locations if l is not FixLocation.LCA),
        )
