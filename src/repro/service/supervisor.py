"""Worker supervision for the service's worker processes.

:class:`WorkerSupervisor` owns the *lifecycle* of the shard worker processes:
it watches them, restarts them, and decides when to stop trying.  The routing
of requests onto workers stays in :class:`~repro.service.shard.ProcessLanes`;
the split keeps each half testable on its own.

Supervision policy (the paper's deployment story is a service that must keep
running against a monorepo, not a script):

* **death detection** — a monitor thread polls every handle; a worker whose
  process has exited is handled within one poll interval.  The service's
  ``on_death`` callback decides the fate of the request that was in flight
  (retry on the next incarnation, or fail it structurally after too many
  attempts);
* **liveness deadline** — every worker heartbeats into a shared *lock-free*
  ``multiprocessing.Value`` (an aligned 8-byte store; a lock would be one
  more thing a dying worker could poison); a worker whose heartbeat goes
  stale past the deadline is presumed wedged and is killed (then handled as
  any other death).  The heartbeat runs on its own thread inside the worker,
  so a *busy* worker still beats — only a truly stuck one goes stale;
* **supervised restart with exponential backoff** — each consecutive failure
  doubles the restart delay (capped), so a flapping worker cannot consume the
  machine respawning;
* **crash-loop circuit breaker** — after ``breaker_threshold`` consecutive
  failures the shard is marked :attr:`WorkerState.BROKEN` and no longer
  restarted; the service fails that shard's queue structurally
  (``worker_failed``) instead of retrying forever.  A successful response
  resets the failure streak.

All handle state transitions happen under the *service's* lock (passed in as
``cond``), so the supervisor, the response collector, and the submit path can
never observe half-updated routing state.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


class WorkerState(enum.Enum):
    """Lifecycle of one shard's worker slot (the slot outlives incarnations)."""

    READY = "ready"          # process alive, no request in flight
    BUSY = "busy"            # process alive, one request dispatched
    RESTARTING = "restarting"  # process dead, respawn scheduled (backoff)
    BROKEN = "broken"        # circuit breaker tripped: no further restarts
    STOPPED = "stopped"      # drained and shut down


@dataclass
class WorkerHandle:
    """One shard's worker slot: process, channel, heartbeat, and counters."""

    shard: int
    heartbeat: Any                 # raw (lock-free) 'd' value (worker -> master)
    request_conn: Any = None       # simplex pipe, master's write end
    response_conn: Any = None      # simplex pipe, master's read end
    process: Optional[Any] = None  # multiprocessing.Process
    state: WorkerState = WorkerState.RESTARTING
    incarnation: int = -1          # bumped to 0 by the first spawn
    in_flight_id: Optional[str] = None  # cache key of the leader it runs
    served: int = 0                # responses collected, across incarnations
    restarts: int = 0              # respawns after the initial start
    consecutive_failures: int = 0
    restart_at: float = 0.0        # monotonic deadline for the next respawn
    last_exit_code: Optional[int] = None

    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        return (now if now is not None else time.monotonic()) - self.heartbeat.value

    def status(self, now: Optional[float] = None, queue_depth: int = 0) -> Dict[str, Any]:
        """The per-worker block served by ``GET /healthz``."""
        return {
            "shard": self.shard,
            "pid": self.pid(),
            "state": self.state.value,
            "incarnation": self.incarnation,
            "served": self.served,
            "restarts": self.restarts,
            "consecutive_failures": self.consecutive_failures,
            "last_exit_code": self.last_exit_code,
            "last_heartbeat_age_s": round(self.heartbeat_age(now), 3),
            "queue_depth": queue_depth,
            "in_flight": self.in_flight_id is not None,
        }


@dataclass
class SupervisorStats:
    """Supervision counters surfaced at ``GET /metrics`` (under the lock)."""

    restarts: int = 0
    liveness_kills: int = 0
    breaker_trips: int = 0
    worker_deaths: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "restarts": self.restarts,
            "liveness_kills": self.liveness_kills,
            "breaker_trips": self.breaker_trips,
            "worker_deaths": self.worker_deaths,
        }


class WorkerSupervisor:
    """Monitor thread + restart policy over a fixed set of worker handles.

    ``spawn(handle)`` (re)creates the worker process for a handle and is
    provided by the service (it owns the queues and the worker entry point).
    ``on_death(handle)`` runs under the lock before any restart decision, so
    the service can requeue or fail the in-flight request.  ``on_broken``
    runs when the breaker trips; ``on_ready`` after every (re)spawn.
    """

    def __init__(
        self,
        handles: List[WorkerHandle],
        cond: threading.Condition,
        spawn: Callable[[WorkerHandle], None],
        *,
        on_death: Callable[[WorkerHandle], None],
        on_ready: Callable[[WorkerHandle], None],
        on_broken: Callable[[WorkerHandle], None],
        liveness_deadline_s: float = 30.0,
        restart_backoff_s: float = 0.05,
        restart_backoff_cap_s: float = 2.0,
        breaker_threshold: int = 4,
        poll_interval_s: float = 0.02,
    ):
        self.handles = handles
        self._cond = cond
        self._spawn = spawn
        self._on_death = on_death
        self._on_ready = on_ready
        self._on_broken = on_broken
        self.liveness_deadline_s = liveness_deadline_s
        self.restart_backoff_s = restart_backoff_s
        self.restart_backoff_cap_s = restart_backoff_cap_s
        self.breaker_threshold = breaker_threshold
        self.poll_interval_s = poll_interval_s
        self.stats = SupervisorStats()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        with self._cond:
            for handle in self.handles:
                self._spawn_locked(handle, initial=True)
        self._thread = threading.Thread(
            target=self._monitor_loop, name="drfix-shard-supervisor", daemon=True)
        self._thread.start()

    def stop(self, join_timeout_s: float = 10.0) -> None:
        """Stop monitoring, poison-pill live workers, and reap them.

        Called after the service has drained its queues, so a live worker's
        next queue item is the ``None`` pill.  Workers that ignore it (wedged)
        are killed — shutdown must terminate unconditionally.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(join_timeout_s)
            self._thread = None
        with self._cond:
            live = [h for h in self.handles
                    if h.process is not None and h.process.is_alive()]
            for handle in live:
                try:
                    handle.request_conn.send(None)
                except (AttributeError, BrokenPipeError, OSError):
                    pass  # already dead: the kill below is the backstop
        deadline = time.monotonic() + join_timeout_s
        for handle in live:
            handle.process.join(max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(1.0)
        with self._cond:
            for handle in self.handles:
                handle.state = WorkerState.STOPPED
                handle.in_flight_id = None

    # -- policy hooks used by the service ------------------------------

    def note_success(self, handle: WorkerHandle) -> None:
        """A collected response resets the shard's failure streak (lock held)."""
        handle.consecutive_failures = 0

    # -- internals -----------------------------------------------------

    def _spawn_locked(self, handle: WorkerHandle, initial: bool = False) -> None:
        handle.incarnation += 1
        handle.heartbeat.value = time.monotonic()
        handle.in_flight_id = None
        self._spawn(handle)
        handle.state = WorkerState.READY
        if not initial:
            handle.restarts += 1
            self.stats.restarts += 1

    def _backoff_for(self, failures: int) -> float:
        return min(self.restart_backoff_cap_s,
                   self.restart_backoff_s * (2 ** max(0, failures - 1)))

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.poll_interval_s):
            now = time.monotonic()
            with self._cond:
                for handle in self.handles:
                    self._tick_locked(handle, now)

    def _tick_locked(self, handle: WorkerHandle, now: float) -> None:
        if handle.state in (WorkerState.BROKEN, WorkerState.STOPPED):
            return
        if handle.state is WorkerState.RESTARTING:
            if now >= handle.restart_at:
                self._spawn_locked(handle)
                self._on_ready(handle)
                self._cond.notify_all()
            return
        process = handle.process
        if process is None:
            return
        if process.is_alive():
            # Liveness: a worker that stopped heartbeating past the deadline
            # is wedged (its heartbeat thread beats even while it computes).
            if handle.heartbeat_age(now) > self.liveness_deadline_s:
                self.stats.liveness_kills += 1
                process.kill()
                process.join(1.0)
                # Fall through to the death path below on the next check.
                if process.is_alive():  # pragma: no cover - kill is forceful
                    return
            else:
                return
        # The worker died (or was just liveness-killed).
        handle.last_exit_code = process.exitcode
        handle.consecutive_failures += 1
        self.stats.worker_deaths += 1
        self._on_death(handle)
        if handle.consecutive_failures >= self.breaker_threshold:
            handle.state = WorkerState.BROKEN
            self.stats.breaker_trips += 1
            self._on_broken(handle)
        else:
            handle.state = WorkerState.RESTARTING
            handle.restart_at = now + self._backoff_for(handle.consecutive_failures)
        self._cond.notify_all()


__all__ = [
    "SupervisorStats",
    "WorkerHandle",
    "WorkerState",
    "WorkerSupervisor",
]
