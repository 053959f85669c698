"""Deterministic fault injection for the sharded serving layer.

Every failure mode the supervisor must survive — a worker dying mid-request,
a crash loop, a wedged process that stops heartbeating, a slow shard — is
exercised in tests through one deterministic hook: a **fault plan** parsed
from the ``DRFIX_FAULT_PLAN`` environment variable (or passed directly to
:class:`~repro.service.shard.ShardedDrFixService`).  Faults fire on *request
counts*, never on wall-clock, so a plan replays identically run after run.

Grammar — clauses separated by ``;``, fields by ``:``::

    DRFIX_FAULT_PLAN="kill:worker=1:after=3"
    DRFIX_FAULT_PLAN="kill:after=1:incarnation=any; delay:worker=0:ms=50"

* **action** (first field): ``kill`` (hard ``os._exit`` — the request in
  flight is lost), ``crash`` (uncaught exception unwinds the worker process),
  ``delay`` (sleep ``ms`` then continue), ``wedge`` (stop heartbeating and
  hang — exercises the liveness deadline).
* ``worker=K`` — only shard ``K`` (default: every worker);
* ``after=M`` — fire on the worker's ``M``-th received request (default 1);
* ``point=receive|respond`` — before executing the request, or after
  executing but before the response is sent (default ``receive``);
* ``incarnation=I|any`` — only the ``I``-th spawn of that shard's worker
  (default 0, the first: a restarted worker is healthy unless the plan says
  ``any``, which is how a crash *loop* is scripted);
* ``ms=N`` — duration for ``delay``/``wedge`` (wedge defaults to hanging
  until the supervisor kills it).

Unknown actions or malformed fields fail fast with
:class:`~repro.errors.ConfigError` — the same discipline as
``DRFIX_JOBS``/``DRFIX_EXECUTOR``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError

#: Environment variable carrying the fault plan (empty/unset = no faults).
FAULT_PLAN_ENV_VAR = "DRFIX_FAULT_PLAN"

#: Worker exit codes, distinguishable in supervisor logs/tests.
KILL_EXIT_CODE = 70
CRASH_EXIT_CODE = 71

_ACTIONS = ("kill", "crash", "delay", "wedge")
_POINTS = ("receive", "respond")


@dataclass(frozen=True)
class FaultClause:
    """One scripted fault: fires at most once per worker incarnation."""

    action: str
    worker: Optional[int] = None  # None = any worker
    after: int = 1
    point: str = "receive"
    incarnation: Optional[int] = 0  # None = any incarnation
    ms: float = 0.0

    def matches(self, worker: int, incarnation: int, point: str, count: int) -> bool:
        if self.worker is not None and self.worker != worker:
            return False
        if self.incarnation is not None and self.incarnation != incarnation:
            return False
        return self.point == point and self.after == count

    def describe(self) -> str:
        fields = [self.action,
                  f"worker={'any' if self.worker is None else self.worker}",
                  f"after={self.after}", f"point={self.point}",
                  f"incarnation={'any' if self.incarnation is None else self.incarnation}"]
        if self.action in ("delay", "wedge"):
            fields.append(f"ms={self.ms:g}")
        return ":".join(fields)


def _parse_int(field: str, value: str, *, allow_any: bool = False) -> Optional[int]:
    if allow_any and value == "any":
        return None
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigError(f"fault plan: {field} must be an integer"
                          f"{' or any' if allow_any else ''}, got {value!r}")
    if parsed < 0:
        raise ConfigError(f"fault plan: {field} must be non-negative, got {parsed}")
    return parsed


def _parse_clause(text: str) -> FaultClause:
    fields = [part.strip() for part in text.split(":") if part.strip()]
    if not fields:
        raise ConfigError("fault plan: empty clause")
    action = fields[0].lower()
    if action not in _ACTIONS:
        raise ConfigError(f"fault plan: unknown action {action!r} "
                          f"(expected {', '.join(_ACTIONS)})")
    worker: Optional[int] = None
    after = 1
    point = "receive"
    incarnation: Optional[int] = 0
    ms = 0.0
    for field in fields[1:]:
        if "=" not in field:
            raise ConfigError(f"fault plan: expected key=value, got {field!r}")
        key, _, value = field.partition("=")
        key, value = key.strip().lower(), value.strip().lower()
        if key == "worker":
            worker = _parse_int("worker", value, allow_any=True)
        elif key == "after":
            after = _parse_int("after", value) or 0
            if after < 1:
                raise ConfigError(f"fault plan: after must be >= 1, got {after}")
        elif key == "point":
            if value not in _POINTS:
                raise ConfigError(f"fault plan: unknown point {value!r} "
                                  f"(expected {' or '.join(_POINTS)})")
            point = value
        elif key == "incarnation":
            incarnation = _parse_int("incarnation", value, allow_any=True)
        elif key == "ms":
            try:
                ms = float(value)
            except ValueError:
                raise ConfigError(f"fault plan: ms must be a number, got {value!r}")
            if ms < 0:
                raise ConfigError(f"fault plan: ms must be non-negative, got {ms:g}")
        else:
            raise ConfigError(f"fault plan: unknown field {key!r} (expected "
                              "worker, after, point, incarnation, ms)")
    return FaultClause(action=action, worker=worker, after=after, point=point,
                       incarnation=incarnation, ms=ms)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable set of fault clauses (empty = no faults)."""

    clauses: Tuple[FaultClause, ...] = ()
    spec: str = ""

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        text = (spec or "").strip()
        if not text:
            return cls()
        clauses = tuple(_parse_clause(part) for part in text.split(";")
                        if part.strip())
        return cls(clauses=clauses, spec=text)

    @classmethod
    def resolve(cls, spec: Optional[str] = None) -> "FaultPlan":
        """Explicit spec first, then ``DRFIX_FAULT_PLAN``, then no faults."""
        if spec is not None:
            return cls.parse(spec)
        return cls.parse(os.environ.get(FAULT_PLAN_ENV_VAR, ""))

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def injector(self, worker: int, incarnation: int) -> "FaultInjector":
        return FaultInjector(self, worker, incarnation)


class FaultInjector:
    """Per-worker-process fault trigger, consulted at the named points.

    Lives inside the worker process; ``fire`` is called with the running
    request count, so whether a clause triggers is a pure function of the
    request sequence the worker has seen — fully deterministic.
    """

    def __init__(self, plan: FaultPlan, worker: int, incarnation: int):
        self._plan = plan
        self._worker = worker
        self._incarnation = incarnation
        self._fired: set = set()

    def fire(self, point: str, count: int,
             wedge_event: Optional[threading.Event] = None) -> None:
        """Trigger any matching clause.  May never return (kill/crash/wedge)."""
        for index, clause in enumerate(self._plan.clauses):
            if index in self._fired:
                continue
            if not clause.matches(self._worker, self._incarnation, point, count):
                continue
            self._fired.add(index)
            if clause.action == "delay":
                time.sleep(clause.ms / 1000.0)
            elif clause.action == "kill":
                # Hard death: no cleanup, no response — the in-flight request
                # is lost exactly as if the OS OOM-killed the worker.
                os._exit(KILL_EXIT_CODE)
            elif clause.action == "crash":
                raise SystemExit(CRASH_EXIT_CODE)
            elif clause.action == "wedge":
                # Stop heartbeating, then hang: the liveness deadline — not a
                # crash — is what must recover this worker.
                if wedge_event is not None:
                    wedge_event.set()
                time.sleep(clause.ms / 1000.0 if clause.ms else 3600.0)


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_PLAN_ENV_VAR",
    "FaultClause",
    "FaultInjector",
    "FaultPlan",
    "KILL_EXIT_CODE",
]
