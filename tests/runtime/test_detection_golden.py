"""Golden detection digests: the harness must keep every pinned observable.

Each digest covers one (case, seed) sweep under all five scheduler policies:
the race verdict, the racy variables, the bug hashes, test failures, program
output, build errors, scheduler steps, and run/test counts (see
:func:`repro.testing.detection_outcome`).  The fixture pins two corpora — the
full template corpus and a 32-mutant corpus — so any change to the
interpreter, scheduler or detector that moves a single observable on a single
interleaving fails here, naming the case.

Regenerate the fixture only for a change that is *meant* to move detection:

    PYTHONPATH=src python tests/runtime/test_detection_golden.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.testing import detection_outcome, reset_addresses

FIXTURE = Path(__file__).with_name("detection_golden.json")

#: corpus name -> (seeds, runs)
SWEEPS = {
    "templates": ((0, 11), 5),
    "mutants": ((7, 19), 3),
}


def _cases(corpus):
    if corpus == "templates":
        dataset = CorpusGenerator(CorpusConfig()).generate()
        return dataset.evaluation + dataset.db_examples
    generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
    return generator.generate_mutant_corpus(32, mutants_per_base=4)


def digest(outcome):
    """A stable hex digest of one :func:`detection_outcome` result."""
    canonical = {
        key: sorted(value) if isinstance(value, frozenset) else value
        for key, value in outcome.items()
    }
    payload = json.dumps(canonical, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def sweep(corpus):
    """``{"<case_id>@<seed>": digest}`` for every case and seed of ``corpus``."""
    seeds, runs = SWEEPS[corpus]
    reset_addresses()
    digests = {}
    for case in _cases(corpus):
        for seed in seeds:
            key = f"{case.case_id}@{seed}"
            assert key not in digests, f"duplicate case id {case.case_id}"
            digests[key] = digest(detection_outcome(
                case.package, seed, "compiled", runs=runs, slicing=True))
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("corpus", sorted(SWEEPS))
def test_detection_matches_golden(corpus, golden):
    expected = golden[corpus]
    actual = sweep(corpus)
    assert len(actual) >= 60
    assert sorted(actual) == sorted(expected), "case set changed"
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"detection moved on {len(moved)} sweeps: {moved[:10]}"


def test_digest_ignores_set_order():
    base = {"raced": True, "racy_vars": frozenset({"err", "count"}), "runs": 5}
    reordered = dict(base, racy_vars=frozenset({"count", "err"}))
    assert digest(base) == digest(reordered)
    assert len(digest(base)) == 16


@pytest.mark.parametrize("key,value", [
    ("raced", False),
    ("racy_vars", frozenset({"err"})),
    ("runs", 4),
])
def test_digest_moves_with_any_observable(key, value):
    base = {"raced": True, "racy_vars": frozenset({"err", "count"}), "runs": 5}
    assert digest(dict(base, **{key: value})) != digest(base)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_detection_golden.py --regenerate")
    fixture = {corpus: sweep(corpus) for corpus in sorted(SWEEPS)}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {sum(map(len, fixture.values()))} digests to {FIXTURE}")
