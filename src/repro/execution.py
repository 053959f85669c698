"""Shared parallel-execution substrate: pluggable executors.

The reproduction parallelises at one level: across independent units of
work.  The **evaluation engine** maps the Dr.Fix pipeline over independent
cases (:mod:`repro.evaluation.runner`), and the **service** maps a batch of
requests (:mod:`repro.service.core`).  Inside one case or request everything
runs serially: the pipeline validates candidates one at a time and the
go-test harness runs its (seed, policy) plan in a loop.

This module is the single home for the executor, placed outside the layers
that use it so the service never imports the evaluation engine.  It provides
three execution backends:

* **serial** — a plain loop; the reference behaviour;
* **thread** — a :class:`~concurrent.futures.ThreadPoolExecutor`; useful when
  the work is I/O bound (e.g. a real network-backed LLM client);
* **process** — a :class:`~concurrent.futures.ProcessPoolExecutor`; the right
  choice for the CPU-bound pure-Python interpreter, sidestepping the GIL.

All backends preserve *submission order* in their results (``CaseExecutor.map``
has the ordering contract of the built-in ``map``), which is what keeps a
parallel run bit-identical to a serial one.

Worker count resolution (first match wins): an explicit ``jobs`` argument, the
``DRFIX_JOBS`` environment variable, and finally ``1`` (serial).  ``jobs=0``
means "resolve from the environment"; negative values mean "one worker per
CPU".
"""

from __future__ import annotations

import enum
import hashlib
import os
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "DRFIX_JOBS"
#: Environment variable selecting the backend (``serial``/``thread``/``process``).
EXECUTOR_ENV_VAR = "DRFIX_EXECUTOR"


class ExecutorKind(enum.Enum):
    """Which backend dispatches the per-item work."""

    SERIAL = "serial"
    THREAD = "thread"
    PROCESS = "process"


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
    """

    def __init__(self, kind: "ExecutorKind | str | None" = None,
                 jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)
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
        if self.kind is ExecutorKind.THREAD:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items))
        # Process pool: chunk to amortise pickling of fn's captured state
        # (config + example database) across cases.
        chunksize = max(1, len(items) // (workers * 4))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))

    # ------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable backend summary (used by ``drfix bench``)."""
        if self.kind is ExecutorKind.SERIAL:
            return "serial"
        return f"{self.kind.value}[{self.jobs}]"


__all__ = [
    "CaseExecutor",
    "ExecutorKind",
    "JOBS_ENV_VAR",
    "EXECUTOR_ENV_VAR",
    "resolve_jobs",
    "resolve_kind",
    "stable_seed",
]
