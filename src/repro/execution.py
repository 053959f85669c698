"""Shared parallel-execution substrate: pluggable executors and worker budgets.

Both ends of the reproduction have embarrassingly parallel inner loops:

* the **evaluation engine** maps the Dr.Fix pipeline over independent cases
  (:mod:`repro.evaluation.runner`);
* the **go-test harness** re-runs one package's tests under many scheduler
  seeds (:mod:`repro.runtime.harness`), and the pipeline validates the
  candidate patches of one (location, scope) batch concurrently
  (:mod:`repro.core.pipeline`).

This module is the single home for the machinery they share, placed outside
both layers so the runtime (layer 1) never imports the evaluation engine
(layer 5).  It provides three execution backends:

* **serial** — a plain loop; the reference behaviour;
* **thread** — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful when
  the work is I/O bound (e.g. a real network-backed LLM client);
* **process** — a :class:`~concurrent.futures.ProcessPoolExecutor`; the right
  choice for the CPU-bound pure-Python interpreter, sidestepping the GIL.

All backends preserve *submission order* in their results (``CaseExecutor.map``
has the ordering contract of the built-in ``map``), which is what keeps a
parallel run bit-identical to a serial one.

Worker count resolution (first match wins): an explicit ``jobs`` argument, the
``jobs`` field of :class:`~repro.core.config.DrFixConfig`, the ``DRFIX_JOBS``
environment variable, and finally ``1`` (serial).  ``jobs=0`` means "resolve
from the environment"; negative values mean "one worker per CPU".

**Nested-parallelism budget.**  When an outer executor is already fanning out
(pipeline-level workers), inner layers (harness-level seed runs, batch
validation) must not multiply the worker count.  While an outer
:class:`CaseExecutor` is mapping with N workers it exports the per-worker
leftover budget through ``DRFIX_NESTED_BUDGET``; any executor constructed
under it clamps its own worker count to that budget.  With ``--jobs 4`` on a
16-CPU machine each pipeline worker may still use up to 4 inner workers; on a
4-CPU machine the inner layers degrade to serial — the machine is never
oversubscribed.
"""

from __future__ import annotations

import enum
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "DRFIX_JOBS"
#: Environment variable selecting the backend (``serial``/``thread``/``process``).
EXECUTOR_ENV_VAR = "DRFIX_EXECUTOR"
#: Per-worker budget exported by an outer executor while it is mapping; inner
#: executors clamp their worker count to it so nested layers of parallelism
#: (pipeline × validation × harness) cannot oversubscribe the machine.
NESTED_BUDGET_ENV_VAR = "DRFIX_NESTED_BUDGET"


class ExecutorKind(enum.Enum):
    """Which backend dispatches the per-item work."""

    SERIAL = "serial"
    THREAD = "thread"
    PROCESS = "process"


class EngineKind(enum.Enum):
    """Which execution engine runs a Go program's interleavings.

    ``COMPILED`` is the default: the harness lowers each package once into
    pre-bound closures (see :mod:`repro.runtime.compiler`) and reuses the
    compiled program across every (seed, policy) run.  ``TREE`` is the
    reference tree-walking interpreter, kept for the corpus-wide differential
    test; only harness-level arguments select it, so no user-facing flag,
    environment variable or config field reaches it.
    """

    TREE = "tree"
    COMPILED = "compiled"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count from an explicit value or the environment.

    ``None`` or ``0`` consults ``DRFIX_JOBS`` (defaulting to 1); a negative
    value means one worker per available CPU.
    """
    if jobs is None or jobs == 0:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            raise ConfigError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}")
        if jobs == 0:
            jobs = 1
    if jobs < 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def resolve_kind(kind: "ExecutorKind | str | None" = None,
                 jobs: int = 1) -> ExecutorKind:
    """Resolve the backend: explicit argument, then ``DRFIX_EXECUTOR``, then
    a default of process-pool when ``jobs > 1`` and serial otherwise (the
    in-repo pipeline is CPU-bound pure Python, so threads cannot speed it up;
    pick ``thread`` explicitly when the LLM client is network-backed)."""
    if isinstance(kind, ExecutorKind):
        return kind
    name = (kind or os.environ.get(EXECUTOR_ENV_VAR, "") or "auto").strip().lower()
    if name == "auto":
        return ExecutorKind.PROCESS if jobs > 1 else ExecutorKind.SERIAL
    try:
        return ExecutorKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in ExecutorKind)
        raise ConfigError(f"unknown executor kind {name!r} (expected auto, {valid})")


#: Budgets of the guards active in *this* process.  Appends/removes are single
#: C-level list operations (GIL-atomic), so concurrent thread-backend maps
#: cannot corrupt each other's bookkeeping the way a set/restore dance on one
#: environment variable could — and unlike a lock, a plain list cannot be
#: inherited in a held state by a forked process-pool worker.
_ACTIVE_BUDGETS: List[int] = []


def nested_budget() -> Optional[int]:
    """The per-worker budget exported by an active outer executor, if any.

    The most restrictive of two sources: the in-process guard list (thread
    backends and same-process nesting) and ``DRFIX_NESTED_BUDGET`` (set for
    forked process-pool workers, which inherit the environment — and a copy of
    the guard list — at fork time).
    """
    candidates: List[int] = []
    snapshot = list(_ACTIVE_BUDGETS)
    if snapshot:
        candidates.append(min(snapshot))
    raw = os.environ.get(NESTED_BUDGET_ENV_VAR, "").strip()
    if raw:
        try:
            candidates.append(max(1, int(raw)))
        except ValueError:
            pass
    return min(candidates) if candidates else None


@contextmanager
def _nested_budget_guard(outer_jobs: int) -> Iterator[None]:
    """Export the leftover per-worker budget while an outer pool is active.

    Overlapping guards (concurrent maps on different threads) are safe: inner
    executors read the *minimum* active budget, so a transient overlap can
    only make them more conservative, never let them oversubscribe.
    """
    total = nested_budget() or (os.cpu_count() or 1)
    per_worker = max(1, total // max(1, outer_jobs))
    _ACTIVE_BUDGETS.append(per_worker)
    previous = os.environ.get(NESTED_BUDGET_ENV_VAR)
    os.environ[NESTED_BUDGET_ENV_VAR] = str(per_worker)
    try:
        yield
    finally:
        _ACTIVE_BUDGETS.remove(per_worker)
        if previous is None:
            os.environ.pop(NESTED_BUDGET_ENV_VAR, None)
        else:
            os.environ[NESTED_BUDGET_ENV_VAR] = previous


def shard_worker_budget(workers: int) -> int:
    """Per-worker nested budget for a fleet of long-lived shard workers.

    The sharded service (:mod:`repro.service.shard`) spawns N resident worker
    *processes* instead of mapping through a pool, so it cannot rely on
    :func:`_nested_budget_guard`'s scoped export — each worker instead sets
    ``DRFIX_NESTED_BUDGET`` to this value at startup, putting its inner
    layers (harness seed runs, batch validation) under the same accounting
    every :class:`CaseExecutor` honors: N workers × this budget never
    oversubscribes the machine.
    """
    if workers < 1:
        raise ConfigError("shard worker count must be positive")
    total = nested_budget() or (os.cpu_count() or 1)
    return max(1, total // max(1, workers))


def stable_seed(*parts: "int | str") -> int:
    """Hash arbitrary parts into a 31-bit seed: the one seed-derivation recipe.

    A pure function of its inputs with no arithmetic structure, so derived
    seeds never collide the way affine schemes (``base + i·prime``) do.  The
    harness's per-run seeds (:func:`repro.runtime.scheduler.derive_run_seed`)
    go through here.
    """
    text = "|".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % (2 ** 31)


class CaseExecutor:
    """Map a function over items through the configured backend.

    The result list is always in submission order, whatever order the workers
    finish in — this is what keeps parallel runs bit-identical to serial ones.
    An executor constructed while an outer executor is mapping clamps its
    worker count to the nested budget (see the module docstring).
    """

    def __init__(self, kind: "ExecutorKind | str | None" = None,
                 jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)
        budget = nested_budget()
        if budget is not None:
            self.jobs = min(self.jobs, budget)
        self.kind = resolve_kind(kind, self.jobs)
        if self.kind is ExecutorKind.SERIAL:
            self.jobs = 1
        elif self.jobs == 1:
            # A pool with one worker runs the inline loop anyway; say so.
            self.kind = ExecutorKind.SERIAL

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in submission order."""
        items = list(items)
        if not items or self.jobs == 1 or self.kind is ExecutorKind.SERIAL:
            return [fn(item) for item in items]
        workers = min(self.jobs, len(items))
        with _nested_budget_guard(workers):
            if self.kind is ExecutorKind.THREAD:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(fn, items))
            # Process pool: chunk to amortise pickling of fn's captured state
            # (config + example database) across cases.
            chunksize = max(1, len(items) // (workers * 4))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items, chunksize=chunksize))

    # ------------------------------------------------------------------

    def map_until(self, fn: Callable[[T], R], items: Sequence[T],
                  stop: Callable[[R], bool]) -> List[R]:
        """Map with deterministic early exit.

        Results are scanned in *submission order*; once ``stop(result)`` is
        true for the result at index *i*, work that has not started yet is
        cancelled and the ordered prefix ``results[:i + 1]`` is returned.
        Results computed beyond the stopping index are discarded, so the
        returned prefix is identical to what a serial loop with a ``break``
        would produce, at any worker count.
        """
        items = list(items)
        if not items or self.jobs == 1 or self.kind is ExecutorKind.SERIAL:
            results: List[R] = []
            for item in items:
                result = fn(item)
                results.append(result)
                if stop(result):
                    break
            return results
        workers = min(self.jobs, len(items))
        pool_cls = ThreadPoolExecutor if self.kind is ExecutorKind.THREAD \
            else ProcessPoolExecutor
        with _nested_budget_guard(workers):
            with pool_cls(max_workers=workers) as pool:
                futures = [pool.submit(fn, item) for item in items]
                try:
                    results = []
                    for future in futures:
                        result = future.result()
                        results.append(result)
                        if stop(result):
                            break
                    return results
                finally:
                    for future in futures:
                        future.cancel()

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable backend summary (used by ``drfix bench``)."""
        if self.kind is ExecutorKind.SERIAL:
            return "serial"
        return f"{self.kind.value}[{self.jobs}]"


__all__ = [
    "CaseExecutor",
    "EngineKind",
    "ExecutorKind",
    "JOBS_ENV_VAR",
    "EXECUTOR_ENV_VAR",
    "NESTED_BUDGET_ENV_VAR",
    "nested_budget",
    "resolve_jobs",
    "resolve_kind",
    "shard_worker_budget",
    "stable_seed",
]
