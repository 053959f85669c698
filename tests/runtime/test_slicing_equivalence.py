"""Slicing ON ≡ OFF: corpus-wide detection equivalence.

Slice-aware instrumentation elides schedule points (and detector hooks) on
provably single-goroutine accesses, so an ON run draws fewer seeded scheduler
choices than an OFF run — the two modes explore *different* interleavings for
the same seed.  Per-seed bit-identical rendered reports are therefore
impossible by construction (that bar is held, for the OFF lowering alone,
by the golden ``run_outcome`` digests in ``detection_golden.json``).  What
slicing must preserve — and what this suite enforces, deterministically,
across every template, the mutation corpus, and all five scheduler
policies — is the detection contract the validator consumes:

* per (case, seed): identical race verdict, identical set of racy variables,
  identical program output, build errors, and run/test counts;
* per case aggregated over seeds: identical test-failure verdict
  (schedule-dependent panics — e.g. a racy slice append blowing up only
  under some interleavings — may appear on different seeds, exactly as they
  do between two OFF seeds);
* exact racing-pair sets (``bug_hashes``) may differ per seed, but a
  difference never flips the race verdict: secondary pairs vary with the
  interleaving, the race itself does not.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.testing import detection_outcome, reset_addresses

SEEDS = (0, 11)

#: Outcome keys that must match per (case, seed) even though ON and OFF
#: explore different interleavings.
_STABLE_KEYS = ("raced", "race_vars", "output", "build_errors", "runs", "tests")


def _stable(outcome):
    return {key: outcome[key] for key in _STABLE_KEYS}


def _sweep(cases, slicing, seeds, runs):
    reset_addresses()
    return [
        (case.case_id, seed,
         detection_outcome(case.package, seed, runs=runs, slicing=slicing))
        for case in cases
        for seed in seeds
    ]


def _assert_detection_equivalent(cases, seeds, runs):
    off_rows = _sweep(cases, False, seeds, runs)
    on_rows = _sweep(cases, True, seeds, runs)
    failed = defaultdict(lambda: [False, False])
    for (case_id, seed, off), (_, _, on) in zip(off_rows, on_rows):
        assert _stable(off) == _stable(on), (
            f"slicing divergence on case={case_id} seed={seed}"
        )
        if off["bug_hashes"] != on["bug_hashes"]:
            # Secondary racing pairs are schedule-dependent; the verdict is not.
            assert off["raced"] and on["raced"], (
                f"slicing flipped the race verdict on case={case_id} seed={seed}"
            )
        failed[case_id][0] |= off["failed"]
        failed[case_id][1] |= on["failed"]
    for case_id, (off_failed, on_failed) in failed.items():
        assert off_failed == on_failed, (
            f"slicing flipped the aggregate failure verdict on case={case_id}"
        )


@pytest.fixture(scope="module")
def dataset():
    return CorpusGenerator(CorpusConfig()).generate()


class TestSlicingDetectionEquivalence:
    def test_full_corpus_detection_equivalent(self, dataset):
        """Every template × seed × all five scheduler policies."""
        _assert_detection_equivalent(
            dataset.evaluation + dataset.db_examples, SEEDS, runs=5
        )

    def test_mutant_corpus_detection_equivalent(self):
        """The PR 6 mutation corpus (renames, reorders, workload/channel
        variants, sync-injected negatives) under both slicing modes."""
        generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
        cases = generator.generate_mutant_corpus(32, mutants_per_base=4)
        assert len(cases) >= 30
        _assert_detection_equivalent(cases, (7, 19), runs=3)

    def test_slicing_reduces_schedule_points(self, dataset):
        """The point of the exercise: strictly fewer schedule points ON."""
        cases = (dataset.evaluation + dataset.db_examples)[:12]
        off_rows = _sweep(cases, False, (0,), runs=3)
        on_rows = _sweep(cases, True, (0,), runs=3)
        off_steps = sum(row[2]["steps"] for row in off_rows)
        on_steps = sum(row[2]["steps"] for row in on_rows)
        assert on_steps < off_steps
