"""Fix generation: retrieval + prompting + model invocation (Section 4.4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase, ExampleEntry
from repro.core.prompts import build_messages
from repro.core.race_info import CodeItem
from repro.llm.base import LLMClient, ModelResponse
from repro.llm.simulated import make_client

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.diagnosis import Diagnosis


@dataclass
class GeneratedFix:
    """One model completion for one code item."""

    code: str
    response: ModelResponse
    example: Optional[ExampleEntry] = None
    prompt: str = ""

    @property
    def is_noop(self) -> bool:
        return self.response.refused or not self.code.strip()


class FixGenerator:
    """Retrieve an example, build the prompt, and query the model."""

    def __init__(
        self,
        config: Optional[DrFixConfig] = None,
        database: Optional[ExampleDatabase] = None,
        client: Optional[LLMClient] = None,
    ):
        self.config = (config or DrFixConfig()).validated()
        self.database = database
        self.client = client if client is not None else make_client(self.config.model)
        #: Exposed counters used by the evaluation reports.
        self.model_calls = 0

    # ------------------------------------------------------------------

    def candidate_examples(self, item: CodeItem) -> List[Optional[ExampleEntry]]:
        """Examples to try for this code item, in order.

        With RAG enabled this is the retrieved nearest example followed by the
        *empty example* (letting the model rely on its inherent capability, as
        Section 4.4 describes); without RAG only the empty example is used.
        """
        examples: List[Optional[ExampleEntry]] = []
        if self.config.use_rag and self.database is not None and len(self.database) > 0:
            entry = self.database.best_example(item)
            if entry is not None:
                examples.append(entry)
        if self.config.include_empty_example or not examples:
            examples.append(None)
        return examples

    def generate(
        self,
        item: CodeItem,
        example: Optional[ExampleEntry],
        feedback: str = "",
        attempt_salt: str = "",
        diagnosis: "Optional[Diagnosis]" = None,
    ) -> GeneratedFix:
        """Run one model completion for ``item`` with the given example/feedback."""
        pair: Optional[Tuple[str, str]] = example.as_pair() if example is not None else None
        messages = build_messages(item, example=pair, feedback=feedback, diagnosis=diagnosis)
        client = self._client_for_attempt(attempt_salt)
        self.model_calls += 1
        response = client.complete(messages)
        return GeneratedFix(
            code=response.content,
            response=response,
            example=example,
            prompt=messages[-1].content,
        )

    def _client_for_attempt(self, attempt_salt: str) -> LLMClient:
        """Vary the deterministic salt per attempt so retries are independent draws."""
        if attempt_salt and hasattr(self.client, "profile"):
            return make_client(self.config.model, attempt_salt=attempt_salt)
        return self.client
