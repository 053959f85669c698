"""Shared fingerprint helpers: one keying discipline for every cache layer.

Three caches key work by "what would this compute?":

* the **run store** (:mod:`repro.evaluation.store`) keys per-case pipeline
  results by (corpus fingerprint, config fingerprint, case id);
* the **program cache** (:mod:`repro.runtime.compiler`) keys compiled
  packages by a source fingerprint;
* the **service result cache** (:mod:`repro.service`) keys served responses
  by (request kind, source fingerprint, config fingerprint).

The two persistent ones share one on-disk format, :mod:`repro.store`, whose
entry envelope carries the format version: a fingerprint says *what* was
computed, never how it was serialised.

This module is the single home for the configuration-hashing half of that
discipline, placed outside the evaluation layer so the service layer can key
its cache without importing the experiment harness.  A fingerprint is a
stable digest of a **canonical JSON form** (dataclasses
become sorted dicts, enums their values, tuples lists).  Every configuration
field affects results: worker counts live outside the config, so a parallel
run hits the entries a serial run wrote.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

def canonical(value: Any) -> Any:
    """Reduce a config value to a JSON-stable canonical form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if hasattr(value, "value") and value.__class__.__module__ != "builtins":
        return canonical(value.value)  # enums
    return value


def digest(payload: Dict[str, Any]) -> str:
    """A short stable hex digest of a canonical payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=10).hexdigest()


def config_fingerprint(config: Any) -> str:
    """A stable hash of every configuration field."""
    return digest(canonical(config))


def corpus_fingerprint(corpus_config: Any) -> str:
    """A stable hash of the corpus configuration (used as a cache namespace)."""
    return digest({"corpus": canonical(corpus_config)})


def shard_for(fingerprint: str, shards: int) -> int:
    """Route a fingerprint to one of ``shards`` buckets, stably.

    With worker processes the service routes requests by *source*
    fingerprint, so every request for one package lands on the same worker
    process and that worker's program cache stays hot for the package.
    Hashing the fingerprint (rather than truncating it) keeps the buckets
    balanced even if the fingerprint encoding ever becomes non-uniform.
    """
    if shards < 1:
        raise ValueError("shard count must be positive")
    raw = hashlib.blake2b(fingerprint.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(raw, "big") % shards


__all__ = [
    "canonical",
    "config_fingerprint",
    "corpus_fingerprint",
    "digest",
    "shard_for",
]
