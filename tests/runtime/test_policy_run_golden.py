"""Per-run pins for the policies the detection goldens only see in aggregate.

The detection digests sum ``scheduler_steps`` over every policy of a sweep,
so a change that moves one policy's schedule and happens to keep the sum, or
a policy whose runs are too short to reach a code path, slips through.  This
module pins single runs of the construct packages
(:data:`tests.runtime.test_detection_golden.CONSTRUCTS`):

* ``ROUND_ROBIN``, the one policy that picks by the last goroutine run;
* ``PCT`` with a horizon of :data:`PCT_HORIZON` steps, so every run crosses
  several windows and re-samples its change points.

Each pin is a run's ``scheduler_steps`` and a digest of its output, race
bug hashes (in report order) and test failures.  Regenerate only for a
change that is meant to move a schedule:

    PYTHONPATH=src:. python tests/runtime/test_policy_run_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.runtime import harness as harness_module
from repro.runtime.harness import GoTestHarness
from repro.runtime.scheduler import Scheduler, SchedulerPolicy
from repro.testing import reset_addresses
from tests.runtime.test_detection_golden import CONSTRUCTS

FIXTURE = Path(__file__).with_name("policy_run_golden.json")

#: Steps per PCT window: every construct run is longer than two windows.
PCT_HORIZON = 4

#: policy -> base seeds, one single-run harness each.  Round-robin draws no
#: random number, so one seed covers it.
POLICY_SEEDS = {
    SchedulerPolicy.ROUND_ROBIN: (0,),
    SchedulerPolicy.PCT: (0, 11, 23),
}


@contextlib.contextmanager
def _short_pct_horizon():
    """Make every harness scheduler use :data:`PCT_HORIZON`."""
    scheduler = functools.partial(Scheduler, pct_horizon=PCT_HORIZON)
    with mock.patch.object(harness_module, "Scheduler", scheduler):
        yield


def _run_pin(package, policy, seed):
    reset_addresses()
    result = GoTestHarness(package, runs=1, seed=seed, policies=(policy,)).run()
    payload = json.dumps({
        "output": result.output,
        "races": result.race_hashes(),
        "failures": result.test_failures,
    }, sort_keys=True)
    return {
        "steps": result.scheduler_steps,
        "digest": hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16],
    }


def policy_runs():
    """``{"<construct>/<policy>@<seed>": pin}`` for every pinned run."""
    pins = {}
    with _short_pct_horizon():
        for name, package in CONSTRUCTS.items():
            for policy, seeds in POLICY_SEEDS.items():
                for seed in seeds:
                    pins[f"{name}/{policy.value}@{seed}"] = _run_pin(package, policy, seed)
    return pins


@pytest.fixture(scope="module")
def actual():
    return policy_runs()


def test_policy_runs_match_golden(actual):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(actual) == sorted(expected), "run set changed"
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"{len(moved)} pinned runs moved: {moved[:10]}"


def test_every_pct_run_rolls_its_horizon_over(actual):
    pct = [pin for key, pin in actual.items() if "/pct@" in key]
    assert pct and all(pin["steps"] > 2 * PCT_HORIZON for pin in pct)


def test_short_horizon_changes_some_pct_schedule():
    """The short horizon is what the PCT pins exercise: against the default
    horizon, at least one pinned run takes another schedule."""
    seed = POLICY_SEEDS[SchedulerPolicy.PCT][0]
    default = {name: _run_pin(package, SchedulerPolicy.PCT, seed)
               for name, package in CONSTRUCTS.items()}
    with _short_pct_horizon():
        short = {name: _run_pin(package, SchedulerPolicy.PCT, seed)
                 for name, package in CONSTRUCTS.items()}
    assert default != short


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_policy_run_golden.py --regenerate")
    pins = policy_runs()
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pinned runs to {FIXTURE}")
