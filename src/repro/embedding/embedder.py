"""Deterministic feature-hashing code embedder.

This is the offline stand-in for the paper's all-MiniLM-L6-v2 sentence
transformer.  The contract that matters for Dr.Fix is:

* similar concurrency structure → nearby vectors,
* business-logic identifier noise perturbs raw-code embeddings much more than
  skeleton embeddings (because the skeletonizer removed / canonicalized it),
* deterministic, with no model weights to download.

A hashed bag-of-tokens (with bigrams and concurrency-token boosting), L2
normalized into ``d`` dimensions, has exactly these properties.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.embedding.tokenizer import CONCURRENCY_TOKENS, bigrams, tokenize_code


@dataclass(frozen=True)
class EmbedderConfig:
    """Configuration of the hashing embedder."""

    dimensions: int = 384
    #: Extra weight applied to concurrency vocabulary.  The default of 1.0
    #: models a *generic* sentence embedder (all tokens equal) — the paper's
    #: point is that denoising comes from the skeleton, not the embedder.
    #: Benchmarks can raise this to study a concurrency-aware embedder.
    concurrency_weight: float = 1.0
    bigram_weight: float = 0.5
    use_bigrams: bool = True
    split_identifiers: bool = True


def _hash_token(token: str, dimensions: int) -> tuple[int, float]:
    """Map a token to a (dimension, sign) pair using a stable hash."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "little")
    index = value % dimensions
    sign = 1.0 if (value >> 32) % 2 == 0 else -1.0
    return index, sign


class CodeEmbedder:
    """Embed code/skeleton text into a fixed-dimensional vector space."""

    def __init__(self, config: EmbedderConfig | None = None):
        self.config = config if config is not None else EmbedderConfig()

    @property
    def dimensions(self) -> int:
        return self.config.dimensions

    # ------------------------------------------------------------------

    def embed(self, text: str) -> np.ndarray:
        """Embed one text; returns an L2-normalized vector of ``dimensions``."""
        tokens = tokenize_code(text, split_identifiers=self.config.split_identifiers)
        vector = np.zeros(self.config.dimensions, dtype=np.float64)
        self._accumulate(vector, tokens, base_weight=1.0)
        if self.config.use_bigrams and len(tokens) > 1:
            self._accumulate(vector, bigrams(tokens), base_weight=self.config.bigram_weight)
        norm = np.linalg.norm(vector)
        if norm > 0:
            vector /= norm
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """Embed many texts; returns an ``(n, d)`` matrix."""
        if not texts:
            return np.zeros((0, self.config.dimensions), dtype=np.float64)
        return np.vstack([self.embed(text) for text in texts])

    # ------------------------------------------------------------------

    def _accumulate(self, vector: np.ndarray, tokens: Iterable[str], base_weight: float) -> None:
        for token in tokens:
            weight = base_weight
            if _is_concurrency_token(token):
                weight *= self.config.concurrency_weight
            index, sign = _hash_token(token, self.config.dimensions)
            vector[index] += sign * weight


def _is_concurrency_token(token: str) -> bool:
    if token in CONCURRENCY_TOKENS:
        return True
    if "__" in token:
        left, _, right = token.partition("__")
        return left in CONCURRENCY_TOKENS or right in CONCURRENCY_TOKENS
    return False


def token_overlap(a: str, b: str) -> float:
    """Jaccard similarity of token sets (a cheap diagnostic used in tests)."""
    tokens_a = set(tokenize_code(a))
    tokens_b = set(tokenize_code(b))
    if not tokens_a and not tokens_b:
        return 1.0
    union = tokens_a | tokens_b
    if not union:
        return 0.0
    return len(tokens_a & tokens_b) / len(union)
