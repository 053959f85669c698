"""Shared helpers for the suites that pin what a harness run observes.

The golden digests (``tests/runtime/test_detection_golden.py``), the slicing
ON ≡ OFF suite (``tests/runtime/test_slicing_equivalence.py``) and the
program-cache suites sweep packages through the harness and compare the
observable outcome.  The sweep plumbing lives here so each suite states
only what differs between its arms.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence

from repro.runtime import memory
from repro.runtime.harness import GoPackage, run_package_tests
from repro.runtime.scheduler import SchedulerPolicy

#: Every scheduler policy, for exhaustive policy sweeps.
ALL_POLICIES = tuple(SchedulerPolicy)


def reset_addresses() -> None:
    """Reset the process-global cell-address counter.

    Addresses appear in rendered race reports; comparing two sweeps
    bit-for-bit requires each sweep to start from the same counter so that
    identical allocation *order* yields identical addresses.
    """
    memory._address_counter = itertools.count(0xC000000000, 0x10)


def run_outcome(
    package: GoPackage,
    seed: int,
    policies: Sequence[SchedulerPolicy] = ALL_POLICIES,
    runs: int = 5,
    slicing: bool = True,
    entry_functions: Sequence[str] = (),
) -> Dict[str, object]:
    """One package's full observable outcome for an equivalence comparison.

    Deliberately includes everything a user of the harness can see — rendered
    reports (with addresses), failures, output, build errors, run/test
    counts — and excludes throughput accounting (``scheduler_steps``):
    slicing legitimately changes step counts while leaving every observable
    identical.
    """
    result = run_package_tests(
        package, runs=runs, seed=seed, policies=policies,
        slicing=slicing, entry_functions=entry_functions,
    )
    return {
        "reports": [report.render() for report in result.reports],
        "failures": result.test_failures,
        "output": result.output,
        "build_errors": result.build_errors,
        "runs": result.runs,
        "tests": result.tests_discovered,
    }


def detection_outcome(
    package: GoPackage,
    seed: int,
    policies: Sequence[SchedulerPolicy] = ALL_POLICIES,
    runs: int = 5,
    slicing: bool = True,
) -> Dict[str, object]:
    """One package's detection-level outcome for the slicing ON/OFF suite.

    Slicing elides schedule points, so ON and OFF runs draw different seeded
    schedules — per-seed bit-identical *rendered* reports are impossible by
    construction.  What slicing must preserve is the contract the validator
    consumes, split into two tiers:

    * stable per seed: the race verdict, the set of racy variables, program
      output, build errors, and run/test counts;
    * stable per case in aggregate (but legitimately schedule-dependent per
      seed): the exact set of racing access *pairs* (``bug_hashes``) and
      schedule-dependent runtime panics (``failures``) — both vary between
      interleavings exactly as they vary from one seed to the next.
    """
    result = run_package_tests(
        package, runs=runs, seed=seed, policies=policies,
        slicing=slicing,
    )
    return {
        "raced": bool(result.reports),
        "race_vars": frozenset(report.variable for report in result.reports),
        "bug_hashes": frozenset(report.bug_hash() for report in result.reports),
        "failed": bool(result.test_failures),
        "failures": tuple(result.test_failures),
        "output": tuple(result.output),
        "build_errors": tuple(result.build_errors),
        "runs": result.runs,
        "tests": result.tests_discovered,
        "steps": result.scheduler_steps,
    }


__all__ = ["ALL_POLICIES", "detection_outcome", "reset_addresses", "run_outcome"]
