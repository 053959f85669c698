"""Seeded cooperative scheduler that interleaves goroutine coroutines.

The interpreter expresses every goroutine as a Python generator yielding
:class:`~repro.runtime.goroutine.SchedulePoint` objects at memory accesses and
synchronization operations.  The scheduler repeatedly picks a runnable
goroutine (randomly, under a seed, or round-robin) and advances it by one
step, which is what lets different seeds expose different interleavings —
the stand-in for running a test "1000 times" under the Go race detector.
"""

from __future__ import annotations

import enum
import operator
import random
from typing import Dict, List, Optional

from repro.errors import DeadlockError, GoRuntimeError
from repro.execution import stable_seed
from repro.runtime.goroutine import STEP, Goroutine, GoroutineState, SchedulePoint


class SchedulerPolicy(enum.Enum):
    """How the next runnable goroutine is chosen."""

    RANDOM = "random"
    ROUND_ROBIN = "round_robin"
    #: Prefer the most recently created goroutine — tends to expose
    #: parent/child races where the child runs ahead of the parent.
    NEWEST_FIRST = "newest_first"
    #: Prefer the oldest goroutine (usually the parent/test main) — tends to
    #: expose races where the parent outruns its children, e.g. a ``Wait``
    #: returning early because ``Add`` was placed inside the goroutine.
    OLDEST_FIRST = "oldest_first"
    #: Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010):
    #: every goroutine gets a random priority, the scheduler always runs the
    #: highest-priority runnable goroutine, and at ``d - 1`` randomly placed
    #: *change points* per horizon window the running goroutine's priority
    #: drops below every other — for a run of ~k steps this finds any bug of
    #: depth ``d`` with probability ≥ 1/(n·k^(d-1)) for n goroutines.
    PCT = "pct"


def derive_run_seed(base_seed: int, run_index: int, policy: "SchedulerPolicy") -> int:
    """A stable per-run scheduler seed: a pure hash of (base seed, run, policy).

    The harness previously derived per-run seeds as ``base_seed + run_index *
    7919``, so two harnesses whose base seeds differed by a multiple of 7919
    replayed *identical* interleavings and explored fewer schedules than they
    reported.  Hashing removes every such arithmetic collision: any change to
    the base seed, the run index, or the policy yields an unrelated seed.
    """
    return stable_seed(base_seed, run_index, policy.value)


#: C-level gid key for the newest/oldest picks (same ordering, same
#: tie-breaking as the former per-call lambdas).
_BY_GID = operator.attrgetter("gid")


class Scheduler:
    """Drives a set of goroutine coroutines to completion."""

    def __init__(
        self,
        seed: int = 0,
        policy: SchedulerPolicy = SchedulerPolicy.RANDOM,
        max_steps: int = 200_000,
        pct_depth: int = 3,
        pct_horizon: int = 1_000,
    ):
        self.seed = seed
        self.policy = policy
        self.max_steps = max_steps
        self.random = random.Random(seed)
        self.goroutines: Dict[int, Goroutine] = {}
        #: Live (runnable or blocked) goroutines in registration (gid) order —
        #: maintained incrementally so the hot scheduling loop never rescans
        #: the full goroutine table.  Same contents and order as filtering
        #: ``goroutines.values()`` on liveness.
        self._live: List[Goroutine] = []
        #: Steps taken so far (written back when :meth:`run` returns).
        self.steps = 0
        self._next_gid = 1
        self._last_gid: Optional[int] = None
        self.failures: List[BaseException] = []
        # PCT state: per-goroutine priorities (assigned on first sight, high
        # band ≥ 1.0), and d-1 change points sampled over a step *window* of
        # ``pct_horizon`` steps; a goroutine crossing a change point is
        # demoted below every priority handed out so far (the low band is
        # strictly decreasing negatives).  When execution outlives a window,
        # fresh change points are sampled for the next one, so preemptions
        # stay reachable throughout runs of any length (a single fixed
        # horizon would confine them to the first ``pct_horizon`` steps of a
        # ``max_steps``-long run).
        self.pct_depth = max(1, pct_depth)
        self.pct_horizon = max(2, pct_horizon)
        self._pct_priorities: Dict[int, float] = {}
        self._pct_window_start = 0
        self._pct_change_points: frozenset[int] = frozenset()
        self._pct_low = 0.0
        if policy is SchedulerPolicy.PCT:
            self._pct_change_points = self._sample_change_points()

    def _sample_change_points(self) -> frozenset[int]:
        """Sample d-1 change-point offsets within one ``pct_horizon`` window."""
        count = min(self.pct_depth - 1, self.pct_horizon - 1)
        if count <= 0:
            return frozenset()
        return frozenset(self.random.sample(range(1, self.pct_horizon), count))

    # ------------------------------------------------------------------
    # Goroutine management
    # ------------------------------------------------------------------

    def new_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    def register(self, goroutine: Goroutine) -> None:
        self.goroutines[goroutine.gid] = goroutine
        if goroutine.state in (GoroutineState.RUNNABLE, GoroutineState.BLOCKED):
            self._live.append(goroutine)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _pick(self, runnable: List[Goroutine]) -> Goroutine:
        if len(runnable) == 1:
            return runnable[0]
        if self.policy is SchedulerPolicy.ROUND_ROBIN:
            runnable.sort(key=_BY_GID)
            if self._last_gid is not None:
                for g in runnable:
                    if g.gid > self._last_gid:
                        return g
            return runnable[0]
        if self.policy is SchedulerPolicy.NEWEST_FIRST:
            # Strong bias to the newest goroutine, with occasional random picks
            # so older goroutines still make progress.
            if self.random.random() < 0.7:
                return max(runnable, key=_BY_GID)
            return self.random.choice(runnable)
        if self.policy is SchedulerPolicy.OLDEST_FIRST:
            if self.random.random() < 0.85:
                return min(runnable, key=_BY_GID)
            return self.random.choice(runnable)
        if self.policy is SchedulerPolicy.PCT:
            return max(runnable, key=lambda g: (self._pct_priority(g.gid), -g.gid))
        return self.random.choice(runnable)

    def _pct_priority(self, gid: int) -> float:
        priority = self._pct_priorities.get(gid)
        if priority is None:
            # High band: every fresh goroutine outranks every demoted one.
            priority = 1.0 + self.random.random()
            self._pct_priorities[gid] = priority
        return priority

    def run(self, main: Goroutine) -> None:
        """Run until the main goroutine and every spawned goroutine finished,
        every remaining goroutine is permanently blocked, or the step budget is
        exhausted."""
        if main.gid not in self.goroutines:
            self.register(main)
        # The per-step bookkeeping below is the inlined equivalent of
        # ``_runnable`` + ``_pick`` + ``_advance`` with loop-invariant
        # lookups hoisted and the step count kept in a local; scheduling
        # decisions (and random draws) are identical to the method-by-method
        # reference path.  Only round-robin reads ``_last_gid``, so only it
        # pays for writing it.
        live = self._live
        max_steps = self.max_steps
        policy = self.policy
        is_pct = policy is SchedulerPolicy.PCT
        is_random = policy is SchedulerPolicy.RANDOM
        is_newest = policy is SchedulerPolicy.NEWEST_FIRST
        is_oldest = policy is SchedulerPolicy.OLDEST_FIRST
        is_round_robin = policy is SchedulerPolicy.ROUND_ROBIN
        rand = self.random.random
        choice = self.random.choice
        failures = self.failures
        RUNNABLE = GoroutineState.RUNNABLE
        BLOCKED = GoroutineState.BLOCKED
        steps = self.steps
        try:
            while live:
                if len(live) == 1 and live[0].state is RUNNABLE:
                    # Single-goroutine fast path (program prologues/epilogues):
                    # the scan and pick below would trivially select it.  The
                    # advance/PCT tail is deliberately duplicated from the
                    # general path below — a shared helper would reintroduce
                    # the per-step call overhead this loop exists to remove;
                    # keep the two copies in lockstep when changing either.
                    if steps >= max_steps:
                        raise GoRuntimeError(
                            f"scheduler step budget exhausted after {steps} steps"
                        )
                    goroutine = live[0]
                    if is_round_robin:
                        self._last_gid = goroutine.gid
                    steps += 1
                    goroutine.block_point = None
                    try:
                        point = next(goroutine.generator)
                    except StopIteration:
                        goroutine.state = GoroutineState.DONE
                        live.remove(goroutine)
                        point = None
                    except GoRuntimeError as exc:
                        goroutine.state = GoroutineState.FAILED
                        goroutine.failure = exc
                        failures.append(exc)
                        live.remove(goroutine)
                        point = None
                    if point is not STEP and isinstance(point, SchedulePoint) \
                            and point.kind == "block":
                        goroutine.state = BLOCKED
                        goroutine.block_point = point
                    if is_pct:
                        offset = steps - self._pct_window_start
                        if offset in self._pct_change_points:
                            self._pct_low -= 1.0
                            self._pct_priorities[goroutine.gid] = self._pct_low
                        if offset >= self.pct_horizon:
                            self._pct_window_start += self.pct_horizon
                            self._pct_change_points = self._sample_change_points()
                    continue
                runnable = []
                for g in live:
                    state = g.state
                    if state is RUNNABLE:
                        runnable.append(g)
                    elif state is BLOCKED:
                        point = g.block_point
                        if point is not None:
                            predicate = point.predicate
                            if predicate is None or predicate():
                                runnable.append(g)
                if not runnable:
                    if main.state in (GoroutineState.DONE, GoroutineState.FAILED):
                        # The program's entry goroutine finished; remaining
                        # blocked goroutines are abandoned, as when a Go
                        # process exits.
                        return
                    reasons = "; ".join(
                        f"goroutine {g.gid} ({g.name}): "
                        f"{g.block_point.reason if g.block_point else '?'}"
                        for g in live
                    )
                    raise DeadlockError(f"all goroutines are blocked: {reasons}")
                if steps >= max_steps:
                    raise GoRuntimeError(
                        f"scheduler step budget exhausted after {steps} steps"
                    )
                if len(runnable) == 1:
                    goroutine = runnable[0]
                elif is_random:
                    goroutine = choice(runnable)
                elif is_newest:
                    goroutine = max(runnable, key=_BY_GID) if rand() < 0.7 else choice(runnable)
                elif is_oldest:
                    goroutine = min(runnable, key=_BY_GID) if rand() < 0.85 else choice(runnable)
                elif is_pct:
                    # Inlined PCT pick: same priority-assignment draw order
                    # and the same (priority, -gid) max with first-wins ties
                    # as the reference ``_pick``.
                    priorities = self._pct_priorities
                    goroutine = None
                    best_key = None
                    for g in runnable:
                        priority = priorities.get(g.gid)
                        if priority is None:
                            priority = 1.0 + rand()
                            priorities[g.gid] = priority
                        key = (priority, -g.gid)
                        if best_key is None or key > best_key:
                            goroutine = g
                            best_key = key
                else:
                    goroutine = self._pick(runnable)
                if is_round_robin:
                    self._last_gid = goroutine.gid
                # -- inlined ``_advance`` ---------------------------------------------
                steps += 1
                goroutine.state = RUNNABLE
                goroutine.block_point = None
                try:
                    point = next(goroutine.generator)
                except StopIteration:
                    goroutine.state = GoroutineState.DONE
                    live.remove(goroutine)
                    point = None
                except GoRuntimeError as exc:
                    goroutine.state = GoroutineState.FAILED
                    goroutine.failure = exc
                    failures.append(exc)
                    live.remove(goroutine)
                    point = None
                if point is not STEP and isinstance(point, SchedulePoint) \
                        and point.kind == "block":
                    goroutine.state = BLOCKED
                    goroutine.block_point = point
                if is_pct:
                    offset = steps - self._pct_window_start
                    if offset in self._pct_change_points:
                        # Change point: drop the running goroutine below every
                        # priority handed out so far, forcing a preemption here.
                        self._pct_low -= 1.0
                        self._pct_priorities[goroutine.gid] = self._pct_low
                    if offset >= self.pct_horizon:
                        self._pct_window_start += self.pct_horizon
                        self._pct_change_points = self._sample_change_points()
        finally:
            self.steps = steps
