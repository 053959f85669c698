"""The process lane of :class:`~repro.service.core.DrFixService` (``workers=N``).

With ``workers=N`` the master's admission, cache and single flight stay as
they are; only dispatch changes.  Leaders run in N resident **worker
processes**, so detection throughput scales with cores instead of being
capped by the GIL.  :class:`ProcessLanes` is that dispatch: the worker body,
the pipes, the response collector and the supervisor's callbacks.  The
service imports this module only when ``workers > 0``.

Topology::

    clients ──▶ master (submit: cache probe / single flight / lane by source fp)
                  │
                  ├── lane 0: bounded queue ══▶ worker process 0 ══▶┐
                  ├── lane 1: bounded queue ══▶ worker process 1 ══▶┤ collector
                  └── lane …   (pipe pairs, one per incarnation)    │ (conn.wait)
                           ▲ supervisor (heartbeats, restarts) ◀────┘

Every worker incarnation gets its own **simplex pipe pair** (request in,
response out) created at spawn time.  This is the crash-safety keystone: a
``multiprocessing.Queue`` shared between workers serializes writers through a
cross-process lock and a feeder thread, and a worker that dies at the wrong
instant — between the pipe write and the lock release, a window the fault
plan's ``kill`` hits reliably under load — leaves that lock held *forever*,
wedging every later incarnation while its heartbeat still beats.  With one
writer per pipe there is no shared lock to poison and no feeder thread to
die mid-send: a crashing worker can only break its own channel, which dies
with it (the master retires the pipe and the supervisor handles the death).

* **routing** — lanes are chosen by :func:`repro.fingerprint.shard_for` over
  the package's source fingerprint, so one package always lands on one
  worker and that worker's program cache stays hot;
* **one request in flight per worker** — the next leader is dispatched only
  after the previous response is collected.  This is what makes crash
  recovery exact: at most one request can be lost to a worker death, and
  the master knows precisely which one;
* **crash recovery** — a lost in-flight leader is retried on the restarted
  worker (at most ``max_retries`` times), then answered, with its followers,
  by a structured ``worker_failed`` response.  Payloads are deterministic,
  so a retried response is bit-identical to an undisturbed one (the
  fault-injection tests assert this byte for byte);
* **circuit breaker** — a crash-looping lane fails its queue as
  ``worker_failed`` and answers later submissions the same way.

Failure injection for tests rides in via ``DRFIX_FAULT_PLAN``
(:mod:`repro.service.faults`), which the worker body consults at
deterministic points.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from multiprocessing import connection as mp_connection
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.runtime.compiler import PROGRAM_CACHE
from repro.service.core import _execute_request
from repro.service.faults import FaultPlan
from repro.service.requests import ResponseStatus
from repro.service.supervisor import (
    WorkerHandle,
    WorkerState,
    WorkerSupervisor,
)

if TYPE_CHECKING:
    from repro.service.core import DrFixService


# ---------------------------------------------------------------------------
# Worker process body
# ---------------------------------------------------------------------------


def worker_main(
    shard: int,
    incarnation: int,
    request_conn: Any,
    response_conn: Any,
    heartbeat: Any,
    config: DrFixConfig,
    database: Optional[ExampleDatabase],
    heartbeat_interval_s: float,
    fault_spec: str,
) -> None:
    """Resident worker: receive a (key, request) pair, execute it, answer
    under the same key; repeat until the ``None`` poison pill (or the master
    going away entirely).

    Each request runs serially inside the worker, so N workers use at most
    N cores.  A heartbeat thread stamps a shared value on a fixed cadence so
    the supervisor can tell *busy* (still beating) from *wedged* (stale).

    Both channels are this incarnation's private simplex pipes: responses are
    sent synchronously from this thread (no feeder thread, no shared write
    lock), so a crash at *any* instant leaves nothing behind that a sibling
    or successor could block on.

    Every result carries this process's program-cache counters, which the
    master sums for ``/metrics``.  The cache starts cold, so that a fork
    of a master that built before counts only its own builds.
    """
    # The master owns interactive shutdown: a Ctrl-C must drain through the
    # master's signal handling, not kill workers mid-request at random.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    PROGRAM_CACHE.clear()
    injector = FaultPlan.parse(fault_spec).injector(shard, incarnation)
    stop_beat = threading.Event()
    wedged = threading.Event()

    def beat() -> None:
        while not (stop_beat.is_set() or wedged.is_set()):
            heartbeat.value = time.monotonic()
            stop_beat.wait(heartbeat_interval_s)

    threading.Thread(target=beat, name=f"drfix-shard{shard}-heartbeat",
                     daemon=True).start()
    received = 0
    while True:
        try:
            item = request_conn.recv()
        except (EOFError, OSError):
            return  # master is gone; nothing left to serve
        if item is None:
            stop_beat.set()
            try:
                response_conn.send(("bye", shard, incarnation, None, None, None, None))
            except (BrokenPipeError, OSError):
                pass
            return
        key, request = item
        received += 1
        injector.fire("receive", received, wedged)
        payload, detail = _execute_request(config, database, request)
        injector.fire("respond", received, wedged)
        response_conn.send(
            ("result", shard, incarnation, key, payload, detail, PROGRAM_CACHE.stats()))


# ---------------------------------------------------------------------------
# Master-side dispatch
# ---------------------------------------------------------------------------


class ProcessLanes:
    """One supervised worker process per lane of the master's queues.

    Every method ending in ``_locked``, and every supervisor callback, runs
    under the service's lock.  A leader is sent to its worker keyed by its
    cache key, which is also its entry in the master's single-flight table.
    """

    def __init__(
        self,
        service: "DrFixService",
        *,
        max_retries: int,
        heartbeat_interval_s: float,
        liveness_deadline_s: float,
        restart_backoff_s: float,
        restart_backoff_cap_s: float,
        breaker_threshold: int,
        fault_plan: Optional[str],
    ):
        self.service = service
        self.max_retries = max_retries
        self.heartbeat_interval_s = heartbeat_interval_s
        self.fault_plan = FaultPlan.resolve(fault_plan)
        self.retries = 0
        self._cond = service._cond
        # ``fork`` keeps worker startup in the low milliseconds (no
        # re-import); platforms without it fall back to the default method.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        # Response pipes of dead incarnations, kept until the collector sees
        # their EOF: a late (duplicate) response is drained, then the fd is
        # closed.  Only the collector thread closes readers — closing a pipe
        # another thread is select()ing on is undefined.
        self._retired_readers: List[Any] = []
        self.handles = [
            WorkerHandle(
                shard=index,
                # lock=False: the heartbeat is one aligned 8-byte store, and
                # a lock here would be shared state a dying worker could
                # leave held (wedging the supervisor's liveness read).
                heartbeat=self._ctx.Value("d", time.monotonic(), lock=False),
            )
            for index in range(service.workers)
        ]
        self.supervisor = WorkerSupervisor(
            self.handles,
            self._cond,
            self._spawn_worker,
            on_death=self._on_worker_death,
            on_ready=lambda handle: self.dispatch_locked(handle.shard),
            on_broken=self._on_worker_broken,
            liveness_deadline_s=liveness_deadline_s,
            restart_backoff_s=restart_backoff_s,
            restart_backoff_cap_s=restart_backoff_cap_s,
            breaker_threshold=breaker_threshold,
        )
        self._collector_stop = threading.Event()
        self._collector: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spawn the workers, then dispatch whatever was queued before."""
        self.supervisor.start()
        with self._cond:
            for handle in self.handles:
                self.dispatch_locked(handle.shard)
        self._collector = threading.Thread(
            target=self._collector_loop, name="drfix-shard-collector", daemon=True)
        self._collector.start()

    def stop(self) -> None:
        """Poison-pill the workers and close every channel (after the drain)."""
        self.supervisor.stop()
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(5.0)
            self._collector = None
        # The collector is gone, so closing readers is race-free now.
        with self._cond:
            conns = list(self._retired_readers)
            self._retired_readers.clear()
            for handle in self.handles:
                conns.extend(c for c in (handle.request_conn, handle.response_conn)
                             if c is not None)
                handle.request_conn = None
                handle.response_conn = None
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close is harmless
                pass

    # -- what the master asks (lock held) ------------------------------

    def broken_detail_locked(self, lane: int) -> Optional[str]:
        """Why ``lane`` cannot serve (its breaker is open), or ``None``."""
        if self.handles[lane].state is WorkerState.BROKEN:
            return f"worker for shard {lane} is circuit-broken (crash loop)"
        return None

    def status_locked(self) -> List[Dict[str, Any]]:
        now = time.monotonic()
        return [handle.status(now, queue_depth=len(self.service._lanes[handle.shard]))
                for handle in self.handles]

    def stats_locked(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = self.supervisor.stats.as_dict()
        stats.update({
            "workers": len(self.handles),
            "retries": self.retries,
            "shards": [
                {
                    "shard": handle.shard,
                    "state": handle.state.value,
                    "queue_depth": len(self.service._lanes[handle.shard]),
                    "served": handle.served,
                    "restarts": handle.restarts,
                }
                for handle in self.handles
            ],
        })
        return stats

    def program_cache_locked(self) -> Dict[str, int]:
        """The live incarnations' program-cache counters, summed key by key
        (empty until a worker has answered)."""
        total: Dict[str, int] = {}
        for handle in self.handles:
            for name, value in handle.program_cache.items():
                total[name] = total.get(name, 0) + value
        return total

    def dispatch_locked(self, lane: int) -> None:
        """Send the lane's next leader to its worker, if that is idle."""
        handle = self.handles[lane]
        queue = self.service._lanes[lane]
        if (handle.state is not WorkerState.READY or handle.in_flight_id is not None
                or not queue):
            return
        leader = queue.popleft()
        handle.in_flight_id = leader.key
        handle.state = WorkerState.BUSY
        try:
            handle.request_conn.send((leader.key, leader.request))
        except (BrokenPipeError, OSError):
            # The worker died under us.  Leave the leader marked in flight
            # and make the death unambiguous: the supervisor's death path
            # retries (or structurally fails) it.
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()  # pragma: no cover - defensive

    # -- supervisor callbacks (lock held) ------------------------------

    def _spawn_worker(self, handle: WorkerHandle) -> None:
        """Fresh incarnation, fresh channels.

        The previous incarnation's pipes are retired, never reused: its
        request pipe is closed here (only dispatch writes to it, under this
        same lock) and its response pipe is handed to the collector, which
        drains any final message and closes it on EOF.  The worker-side fds
        are closed in the master right after the fork, so a dead incarnation
        is the *only* writer of its response pipe and EOF is guaranteed.
        """
        request_r, request_w = self._ctx.Pipe(duplex=False)
        response_r, response_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            name=f"drfix-shard-{handle.shard}",
            args=(handle.shard, handle.incarnation, request_r, response_w,
                  handle.heartbeat, self.service.config, self.service.database,
                  self.heartbeat_interval_s, self.fault_plan.spec),
            # Daemonic: if the master dies hard, the OS reaps the fleet.  A
            # request runs serially, so workers never need child processes
            # (which a daemonic process may not have).
            daemon=True,
        )
        process.start()
        request_r.close()
        response_w.close()
        if handle.request_conn is not None:
            try:
                handle.request_conn.close()
            except OSError:  # pragma: no cover - double close is harmless
                pass
        if handle.response_conn is not None:
            self._retired_readers.append(handle.response_conn)
        handle.request_conn = request_w
        handle.response_conn = response_r
        handle.process = process

    def _on_worker_death(self, handle: WorkerHandle) -> None:
        """Retry (or structurally fail) the leader the dead worker held."""
        handle.program_cache = {}
        key, handle.in_flight_id = handle.in_flight_id, None
        leader = self.service._flights.get(key) if key is not None else None
        if leader is None:
            return
        leader.retries += 1
        if leader.retries > self.max_retries:
            self.service._complete(
                leader, None,
                f"worker for shard {leader.lane} died {leader.retries} times "
                f"serving this request (exit code {handle.last_exit_code})",
                ResponseStatus.WORKER_FAILED)
        else:
            self.retries += 1
            # Front of the queue: the retried leader keeps its place.
            self.service._lanes[leader.lane].appendleft(leader)

    def _on_worker_broken(self, handle: WorkerHandle) -> None:
        """Breaker tripped: fail this lane's whole queue, structurally."""
        queue = self.service._lanes[handle.shard]
        detail = (f"worker for shard {handle.shard} is crash-looping "
                  f"({handle.consecutive_failures} consecutive failures); "
                  "circuit breaker open")
        while queue:
            self.service._complete(queue.popleft(), None, detail,
                                   ResponseStatus.WORKER_FAILED)

    # -- collection ----------------------------------------------------

    def _collector_loop(self) -> None:
        """Multiplex every live (and retired) response pipe.

        ``connection.wait`` marks a pipe ready both for a message and for
        EOF; ``recv`` raising is how a dead incarnation's channel announces
        itself, and the collector is the single place readers are closed.
        """
        while not self._collector_stop.is_set():
            with self._cond:
                readers = [handle.response_conn for handle in self.handles
                           if handle.response_conn is not None]
                readers.extend(self._retired_readers)
            if not readers:  # every lane broken or mid-respawn
                time.sleep(0.02)
                continue
            try:
                ready = mp_connection.wait(readers, timeout=0.1)
            except OSError:  # pragma: no cover - reader raced a close
                continue
            for conn in ready:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._retire_reader(conn)
                    continue
                self._collect_message(message)

    def _retire_reader(self, conn: Any) -> None:
        """A response pipe hit EOF: its incarnation is dead.  Drop it."""
        with self._cond:
            if conn in self._retired_readers:
                self._retired_readers.remove(conn)
            for handle in self.handles:
                if handle.response_conn is conn:
                    handle.response_conn = None
        try:
            conn.close()
        except OSError:  # pragma: no cover - double close is harmless
            pass

    def _collect_message(self, message: Any) -> None:
        kind, shard, incarnation, key, payload, detail, program_cache = message
        if kind != "result":
            return
        with self._cond:
            handle = self.handles[shard]
            handle.served += 1
            self.supervisor.note_success(handle)
            # Only the live incarnation's answer frees the worker, or counts
            # as its cache: a late duplicate from a dead one must not mark a
            # busy successor idle.
            if handle.incarnation == incarnation:
                handle.program_cache = program_cache
                if handle.in_flight_id == key:
                    handle.in_flight_id = None
                    if handle.state is WorkerState.BUSY:
                        handle.state = WorkerState.READY
            # A duplicate response (the leader was retried and both
            # incarnations answered) finds no leader: payloads are
            # deterministic, so whichever answered first was correct.
            leader = self.service._flights.get(key)
            self.dispatch_locked(shard)
        if leader is not None:
            self.service._complete(leader, payload, detail)


__all__ = ["ProcessLanes", "worker_main"]
