"""Business-logic noise generation for corpus programs.

The paper motivates the skeleton abstraction by noting that industrial code is
"dense with domain-specific logic and terminology", which makes standard
retrieval prioritize business logic over concurrency patterns.  This module
produces that noise: domain-flavoured identifier names and filler helper
functions that carry no concurrency content, parameterized by a seed so every
corpus case gets its own vocabulary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

#: Domain vocabularies loosely inspired by a ride-hailing / delivery company.
_DOMAINS: List[List[str]] = [
    ["trip", "rider", "driver", "fare", "surge", "route", "pickup", "dropoff"],
    ["store", "merchant", "catalog", "inventory", "shipment", "courier", "basket", "refund"],
    ["payment", "invoice", "ledger", "settlement", "payout", "dispute", "wallet", "balance"],
    ["freight", "load", "carrier", "dock", "pallet", "waybill", "tariff", "manifest"],
    ["rating", "feedback", "review", "score", "survey", "sentiment", "moderation", "badge"],
    ["session", "token", "identity", "device", "profile", "consent", "audit", "quota"],
    ["menu", "order", "kitchen", "prep", "dispatch", "eta", "batch", "zone"],
    ["document", "bazaar", "defect", "proposal", "replica", "shard", "region", "cluster"],
]

_SUFFIXES = ["Service", "Manager", "Controller", "Handler", "Gateway", "Client", "Store", "Engine"]
_VERBS = ["Load", "Fetch", "Compute", "Resolve", "Validate", "Normalize", "Publish", "Archive",
          "Reconcile", "Enrich", "Project", "Hydrate"]
_FIELD_NOUNS = ["Limit", "Count", "Status", "Region", "Window", "Quota", "Threshold", "Version",
                "Deadline", "Priority", "Weight", "Label"]


def _camel(words: Sequence[str]) -> str:
    return "".join(w[:1].upper() + w[1:] for w in words)


def _lower_camel(words: Sequence[str]) -> str:
    camel = _camel(words)
    return camel[:1].lower() + camel[1:]


@dataclass
class Vocabulary:
    """A per-case naming vocabulary drawn from one domain."""

    domain: List[str]
    rng: random.Random

    def noun(self) -> str:
        return self.rng.choice(self.domain)

    def type_name(self) -> str:
        return _camel([self.noun()]) + self.rng.choice(_SUFFIXES)

    def entity_type(self) -> str:
        return _camel([self.noun(), self.rng.choice(["Record", "Entry", "Snapshot", "Request",
                                                      "Response", "Config", "Params"])])

    def func_name(self, exported: bool = True) -> str:
        words = [self.rng.choice(_VERBS), self.noun(), self.rng.choice(_FIELD_NOUNS)]
        return _camel(words) if exported else _lower_camel(words)

    def var_name(self) -> str:
        return _lower_camel([self.noun(), self.rng.choice(_FIELD_NOUNS)])

    def field_name(self) -> str:
        return _camel([self.noun(), self.rng.choice(_FIELD_NOUNS)])

    def package_name(self) -> str:
        return self.noun() + self.rng.choice(["svc", "srv", "api", "core", "lib"])

    def string_value(self) -> str:
        return f"{self.noun()}-{self.rng.randint(100, 999)}"


def make_vocabulary(seed: int) -> Vocabulary:
    """Create a deterministic vocabulary for a corpus case."""
    rng = random.Random(seed)
    domain = list(rng.choice(_DOMAINS))
    rng.shuffle(domain)
    return Vocabulary(domain=domain, rng=rng)


def noise_helper_functions(vocab: Vocabulary, count: int) -> str:
    """Generate ``count`` pure business-logic helper functions (no concurrency)."""
    chunks: List[str] = []
    for _ in range(max(0, count)):
        name = vocab.func_name(exported=vocab.rng.random() < 0.5)
        param = vocab.var_name()
        field = vocab.field_name()
        threshold = vocab.rng.randint(2, 40)
        factor = vocab.rng.randint(2, 9)
        label = vocab.string_value()
        chunks.append(
            f"""
func {name}({param} int) (int, string) {{
	adjusted := {param} * {factor}
	if adjusted > {threshold} {{
		adjusted = adjusted - {threshold}
	}}
	tag := "{label}"
	if adjusted == 0 {{
		tag = "{field}"
	}}
	return adjusted, tag
}}
"""
        )
    return "\n".join(chunk.strip("\n") for chunk in chunks)


def noise_struct(vocab: Vocabulary, field_count: int = 4) -> str:
    """Generate a plain data struct with domain fields (no concurrency)."""
    name = vocab.entity_type()
    fields = []
    used = set()
    for _ in range(field_count):
        field = vocab.field_name()
        if field in used:
            field = field + str(vocab.rng.randint(2, 99))
        used.add(field)
        type_name = vocab.rng.choice(["int", "string", "bool", "int64"])
        fields.append(f"\t{field} {type_name}")
    body = "\n".join(fields)
    return f"type {name} struct {{\n{body}\n}}"
