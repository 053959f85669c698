"""Fault-tolerant multi-process sharded serving (``drfix serve --workers N``).

:class:`ShardedDrFixService` is the scale-out master over the Layer-7 serving
semantics of :class:`~repro.service.core.DrFixService`: the same request and
response model, the same deterministic payloads, the same admission-control
protocol — but the work runs in N resident **worker processes**, so detection
throughput scales with cores instead of being capped by the GIL.

Topology::

    clients ──▶ master (submit / cache probe / route by source fingerprint)
                  │
                  ├── shard 0: bounded queue ══▶ worker process 0 ══▶┐
                  ├── shard 1: bounded queue ══▶ worker process 1 ══▶┤ collector
                  └── shard …   (pipe pairs, one per incarnation)    │ (conn.wait)
                           ▲ supervisor (heartbeats, restarts) ◀─────┘

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

* **routing** — requests route by :func:`repro.fingerprint.shard_for` over
  the package's source fingerprint, so one package always lands on one
  worker: that worker's program cache stays hot and identical in-flight
  requests serialize instead of duplicating work;
* **shared persistent cache** — the master probes the result cache (memory
  LRU, optionally written through to an on-disk
  :class:`~repro.store.JsonStore`) *before* routing and stores every
  computed payload after; a warm hit never touches a worker, is shared
  across all shards, and survives a full restart;
* **one request in flight per worker** — the master dispatches the next
  queued request only after collecting the previous response.  This is what
  makes crash recovery exact: at most one request can be lost to a worker
  death, and the master knows precisely which one;
* **crash recovery** — a lost in-flight request is retried on the restarted
  worker (at most ``max_retries`` times), then answered with a structured
  ``worker_failed`` response.  Payloads are deterministic, so a retried
  response is bit-identical to an undisturbed one (the fault-injection tests
  assert this byte for byte);
* **backpressure** — per-shard queues are bounded; an overflowing shard
  answers ``overloaded`` immediately, the same protocol as the single-process
  service's admission control;
* **graceful drain** — :meth:`begin_drain` stops admission (``/healthz``
  turns 503), :meth:`drain` waits for every admitted request to resolve,
  then poison-pills the workers (the cache needs no flush: every write is
  synchronous).  SIGTERM in ``drfix serve`` maps onto exactly this sequence.

Failure injection for tests rides in via ``DRFIX_FAULT_PLAN``
(:mod:`repro.service.faults`), which the worker body consults at
deterministic points.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import connection as mp_connection
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.errors import ConfigError
from repro.fingerprint import config_fingerprint, shard_for
from repro.service.cache import CACHE_VERSION, ResultCache
from repro.service.core import ServiceTicket, _execute_request
from repro.service.faults import FaultPlan
from repro.service.metrics import MetricsRecorder, ServiceMetrics
from repro.service.requests import ResponseStatus, ServiceRequest, ServiceResponse
from repro.service.supervisor import (
    WorkerHandle,
    WorkerState,
    WorkerSupervisor,
)
from repro.store import JsonStore


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
    """Resident worker: receive a request, execute it, respond; repeat until
    the ``None`` poison pill (or the master going away entirely).

    Each request runs serially inside the worker, so N workers use at most
    N cores.  A heartbeat thread stamps a shared value on a fixed cadence so
    the supervisor can tell *busy* (still beating) from *wedged* (stale).

    Both channels are this incarnation's private simplex pipes: responses are
    sent synchronously from this thread (no feeder thread, no shared write
    lock), so a crash at *any* instant leaves nothing behind that a sibling
    or successor could block on.
    """
    # The master owns interactive shutdown: a Ctrl-C must drain through the
    # master's signal handling, not kill workers mid-request at random.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
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
                response_conn.send(("bye", shard, incarnation, None, None, None))
            except (BrokenPipeError, OSError):
                pass
            return
        request_id, request = item
        received += 1
        injector.fire("receive", received, wedged)
        payload, detail = _execute_request(config, database, request)
        injector.fire("respond", received, wedged)
        response_conn.send(
            ("result", shard, incarnation, request_id, payload, detail))


# ---------------------------------------------------------------------------
# Master-side bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class _ShardEntry:
    """One admitted request: ticket + enough state to retry it exactly."""

    ticket: ServiceTicket
    request: ServiceRequest
    key: str
    shard: int
    submitted_at: float
    retries: int = 0


@dataclass
class _ShardQueue:
    """Master-side bounded queue feeding one worker slot."""

    handle: WorkerHandle
    pending: "deque[_ShardEntry]" = field(default_factory=deque)


class ShardedDrFixService:
    """Multi-process sharded Dr.Fix service with worker supervision."""

    def __init__(
        self,
        config: Optional[DrFixConfig] = None,
        database: Optional[ExampleDatabase] = None,
        *,
        workers: int = 2,
        shard_queue_depth: int = 16,
        cache_capacity: int = 256,
        cache_dir: "str | os.PathLike | None" = None,
        max_retries: int = 2,
        heartbeat_interval_s: float = 0.1,
        liveness_deadline_s: float = 30.0,
        restart_backoff_s: float = 0.05,
        restart_backoff_cap_s: float = 2.0,
        breaker_threshold: int = 4,
        drain_timeout_s: float = 60.0,
        fault_plan: Optional[str] = None,
        start: bool = True,
    ):
        if workers <= 0:
            raise ConfigError("workers must be positive")
        if shard_queue_depth <= 0:
            raise ConfigError("shard_queue_depth must be positive")
        if max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        self.config = (config or DrFixConfig(model="gpt-4o")).validated()
        self.database = database
        self.workers = workers
        self.shard_queue_depth = shard_queue_depth
        self.max_retries = max_retries
        self.heartbeat_interval_s = heartbeat_interval_s
        self.drain_timeout_s = drain_timeout_s
        self.config_fp = config_fingerprint(self.config)
        self.fault_plan = FaultPlan.resolve(fault_plan)
        self.cache = ResultCache(
            cache_capacity, JsonStore(cache_dir, CACHE_VERSION) if cache_dir else None)
        self.recorder = MetricsRecorder()

        # ``fork`` keeps worker startup in the low milliseconds (no
        # re-import); platforms without it fall back to the default method.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._cond = threading.Condition()
        # Response pipes of dead incarnations, kept until the collector sees
        # their EOF: a late (duplicate) response is drained, then the fd is
        # closed.  Only the collector thread closes readers — closing a pipe
        # another thread is select()ing on is undefined.
        self._retired_readers: List[Any] = []
        self._sequence = 0
        self._accepting = True
        self._draining = False
        self._started = False
        self._stopped = False
        self._entries: Dict[str, _ShardEntry] = {}
        self._retry_count = 0
        self._worker_failures = 0
        self._drops = 0
        self._shards: List[_ShardQueue] = []
        for index in range(workers):
            handle = WorkerHandle(
                shard=index,
                # lock=False: the heartbeat is one aligned 8-byte store, and
                # a lock here would be shared state a dying worker could
                # leave held (wedging the supervisor's liveness read).
                heartbeat=self._ctx.Value("d", time.monotonic(), lock=False),
            )
            self._shards.append(_ShardQueue(handle=handle))
        self.supervisor = WorkerSupervisor(
            [sq.handle for sq in self._shards],
            self._cond,
            self._spawn_worker,
            on_death=self._on_worker_death,
            on_ready=self._on_worker_ready,
            on_broken=self._on_worker_broken,
            liveness_deadline_s=liveness_deadline_s,
            restart_backoff_s=restart_backoff_s,
            restart_backoff_cap_s=restart_backoff_cap_s,
            breaker_threshold=breaker_threshold,
        )
        self._collector_stop = threading.Event()
        self._collector: Optional[threading.Thread] = None
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._started:
                return
            self._started = True
        self.supervisor.start()
        self._collector = threading.Thread(
            target=self._collector_loop, name="drfix-shard-collector", daemon=True)
        self._collector.start()

    def __enter__(self) -> "ShardedDrFixService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def begin_drain(self) -> None:
        """Stop admitting new requests; already-admitted work keeps running."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Graceful drain: finish every admitted request, then stop workers.

        Admitted requests are *never dropped while workers can serve them* —
        the supervisor keeps restarting crashed workers during the drain.
        Only the drain deadline (or a tripped breaker) resolves leftovers,
        structurally, as ``worker_failed``; nothing ever hangs.
        """
        self.begin_drain()
        deadline = time.monotonic() + (self.drain_timeout_s if timeout is None
                                       else timeout)
        leftovers: List[_ShardEntry] = []
        with self._cond:
            while self._outstanding_locked() and time.monotonic() < deadline:
                self._cond.wait(0.1)
            self._accepting = False
            for sq in self._shards:
                while sq.pending:
                    entry = sq.pending.popleft()
                    self._entries.pop(entry.ticket.request_id, None)
                    if not entry.ticket.done():
                        leftovers.append(entry)
            for rid in list(self._entries):
                entry = self._entries.pop(rid)
                if not entry.ticket.done():
                    leftovers.append(entry)
        for entry in leftovers:
            self._drops += 1
            self.recorder.on_drop()
            self._resolve(entry, ResponseStatus.WORKER_FAILED,
                          detail="request abandoned at drain deadline")
        self.supervisor.stop()
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(5.0)
            self._collector = None
        # The collector is gone, so closing readers is race-free now.
        with self._cond:
            conns = list(self._retired_readers)
            self._retired_readers.clear()
            for sq in self._shards:
                conns.extend(c for c in (sq.handle.request_conn,
                                         sq.handle.response_conn)
                             if c is not None)
                sq.handle.request_conn = None
                sq.handle.response_conn = None
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - double close is harmless
                pass
        with self._cond:
            self._stopped = True

    def shutdown(self, wait: bool = True) -> None:
        """Drain and stop (``wait`` kept for symmetry with DrFixService)."""
        with self._cond:
            if self._stopped:
                return
        self.drain()

    # -- submission ----------------------------------------------------

    def submit(self, request: ServiceRequest) -> ServiceTicket:
        """Admit (or reject) one request; never blocks on a queue."""
        request = request.validated()
        now = time.monotonic()
        key = request.cache_key(self.config_fp)
        with self._cond:
            self._sequence += 1
            ticket = ServiceTicket(f"s{self._sequence:06d}", request.kind.value)
            accepting = self._accepting and not self._draining and self._started
        if not accepting:
            self.recorder.on_reject()
            detail = ("service is draining" if self._draining
                      else "service is not running")
            ticket.resolve(ServiceResponse(
                request_id=ticket.request_id, kind=ticket.kind,
                status=ResponseStatus.OVERLOADED, detail=detail))
            return ticket
        # Cache probe outside the lock (a persistent hit may read disk).
        payload = self.cache.get(key)
        if payload is not None:
            self.recorder.on_submit()
            latency_ms = (time.monotonic() - now) * 1000.0
            self.recorder.on_served(latency_ms, cached=True)
            ticket.resolve(ServiceResponse(
                request_id=ticket.request_id, kind=ticket.kind,
                status=ResponseStatus.OK, payload=payload, cached=True,
                duration_ms=latency_ms))
            return ticket
        shard = shard_for(request.source_fingerprint(), self.workers)
        entry = _ShardEntry(ticket=ticket, request=request, key=key,
                            shard=shard, submitted_at=now)
        with self._cond:
            sq = self._shards[shard]
            if sq.handle.state is WorkerState.BROKEN:
                failure = ("worker for shard "
                           f"{shard} is circuit-broken (crash loop)")
            elif len(sq.pending) >= self.shard_queue_depth:
                failure = None
                self.recorder.on_reject()
                detail = (f"shard {shard} queue full "
                          f"({len(sq.pending)}/{self.shard_queue_depth})")
            else:
                self.recorder.on_submit()
                sq.pending.append(entry)
                self._entries[ticket.request_id] = entry
                self._dispatch_locked(shard)
                return ticket
        if sq.handle.state is WorkerState.BROKEN:
            self._worker_failures += 1
            self.recorder.on_submit()
            self._resolve(entry, ResponseStatus.WORKER_FAILED, detail=failure)
            return ticket
        ticket.resolve(ServiceResponse(
            request_id=ticket.request_id, kind=ticket.kind,
            status=ResponseStatus.OVERLOADED, detail=detail))
        return ticket

    def call(self, request: ServiceRequest,
             timeout: Optional[float] = None) -> ServiceResponse:
        """Blocking convenience: submit and wait for the response."""
        return self.submit(request).result(timeout)

    # -- observability -------------------------------------------------

    def queue_depth(self) -> int:
        with self._cond:
            return sum(len(sq.pending) for sq in self._shards)

    def worker_status(self) -> List[Dict[str, Any]]:
        now = time.monotonic()
        with self._cond:
            return [sq.handle.status(now, queue_depth=len(sq.pending))
                    for sq in self._shards]

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body: supervisor state + per-worker detail."""
        with self._cond:
            draining = self._draining or not self._accepting
            broken = sum(1 for sq in self._shards
                         if sq.handle.state is WorkerState.BROKEN)
            depth = sum(len(sq.pending) for sq in self._shards)
            in_flight = sum(1 for sq in self._shards
                            if sq.handle.in_flight_id is not None)
        status = ("draining" if draining
                  else "degraded" if broken else "ok")
        return {
            "status": status,
            "workers": self.worker_status(),
            "broken_shards": broken,
            "queue_depth": depth,
            "in_flight": in_flight,
            "cache_entries": len(self.cache),
        }

    def supervisor_stats(self) -> Dict[str, Any]:
        with self._cond:
            stats = self.supervisor.stats.as_dict()
            stats.update({
                "workers": self.workers,
                "retries": self._retry_count,
                "worker_failures": self._worker_failures,
                "drops": self._drops,
                "shards": [
                    {
                        "shard": sq.handle.shard,
                        "state": sq.handle.state.value,
                        "queue_depth": len(sq.pending),
                        "served": sq.handle.served,
                        "restarts": sq.handle.restarts,
                    }
                    for sq in self._shards
                ],
            })
        return stats

    def metrics(self) -> ServiceMetrics:
        with self._cond:
            depth = sum(len(sq.pending) for sq in self._shards)
            in_flight = sum(1 for sq in self._shards
                            if sq.handle.in_flight_id is not None)
        snapshot = self.recorder.snapshot(queue_depth=depth, in_flight=in_flight)
        return dataclasses.replace(snapshot, supervisor=self.supervisor_stats())

    # -- supervisor callbacks (lock held) ------------------------------

    def _spawn_worker(self, handle: WorkerHandle) -> None:
        """Fresh incarnation, fresh channels (lock held by the caller).

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
                  handle.heartbeat, self.config,
                  self.database,
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
        """Retry (or structurally fail) the request the dead worker held."""
        request_id = handle.in_flight_id
        handle.in_flight_id = None
        if request_id is None:
            return
        entry = self._entries.get(request_id)
        if entry is None or entry.ticket.done():
            return
        entry.retries += 1
        if entry.retries > self.max_retries:
            self._entries.pop(request_id, None)
            self._worker_failures += 1
            self._resolve(entry, ResponseStatus.WORKER_FAILED,
                          detail=(f"worker for shard {entry.shard} died "
                                  f"{entry.retries} times serving this request "
                                  f"(exit code {handle.last_exit_code})"))
        else:
            self._retry_count += 1
            # Front of the queue: the retried request keeps its place.
            self._shards[entry.shard].pending.appendleft(entry)

    def _on_worker_ready(self, handle: WorkerHandle) -> None:
        self._dispatch_locked(handle.shard)

    def _on_worker_broken(self, handle: WorkerHandle) -> None:
        """Breaker tripped: fail this shard's whole queue, structurally."""
        sq = self._shards[handle.shard]
        detail = (f"worker for shard {handle.shard} is crash-looping "
                  f"({handle.consecutive_failures} consecutive failures); "
                  "circuit breaker open")
        while sq.pending:
            entry = sq.pending.popleft()
            self._entries.pop(entry.ticket.request_id, None)
            if not entry.ticket.done():
                self._worker_failures += 1
                self._resolve(entry, ResponseStatus.WORKER_FAILED, detail=detail)

    # -- dispatch and collection ---------------------------------------

    def _dispatch_locked(self, shard: int) -> None:
        sq = self._shards[shard]
        handle = sq.handle
        if handle.state is not WorkerState.READY or handle.in_flight_id is not None:
            return
        while sq.pending:
            entry = sq.pending.popleft()
            if entry.ticket.done():
                self._entries.pop(entry.ticket.request_id, None)
                continue
            handle.in_flight_id = entry.ticket.request_id
            handle.state = WorkerState.BUSY
            try:
                handle.request_conn.send(
                    (entry.ticket.request_id, entry.request))
            except (BrokenPipeError, OSError):
                # The worker died under us.  Leave the entry marked in
                # flight and make the death unambiguous: the supervisor's
                # death path retries (or structurally fails) it.
                if handle.process is not None and handle.process.is_alive():
                    handle.process.kill()  # pragma: no cover - defensive
            return

    def _collector_loop(self) -> None:
        """Multiplex every live (and retired) response pipe.

        ``connection.wait`` marks a pipe ready both for a message and for
        EOF; ``recv`` raising is how a dead incarnation's channel announces
        itself, and the collector is the single place readers are closed.
        """
        while not self._collector_stop.is_set():
            with self._cond:
                readers = [sq.handle.response_conn for sq in self._shards
                           if sq.handle.response_conn is not None]
                readers.extend(self._retired_readers)
            if not readers:  # every shard broken or mid-respawn
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
            for sq in self._shards:
                if sq.handle.response_conn is conn:
                    sq.handle.response_conn = None
        try:
            conn.close()
        except OSError:  # pragma: no cover - double close is harmless
            pass

    def _collect_message(self, message: Any) -> None:
        kind, shard, _incarnation, request_id, payload, detail = message
        if kind != "result":
            return
        with self._cond:
            entry = self._entries.pop(request_id, None)
            handle = self._shards[shard].handle
            handle.served += 1
            self.supervisor.note_success(handle)
            if handle.in_flight_id == request_id:
                handle.in_flight_id = None
                if handle.state is WorkerState.BUSY:
                    handle.state = WorkerState.READY
            live = entry is not None and not entry.ticket.done()
            # Identical requests queued behind this one are answered by its
            # payload before the next dispatch can hand one to the worker.
            followers = (self._take_identical_locked(entry)
                         if live and payload is not None else [])
            self._dispatch_locked(shard)
            self._cond.notify_all()
        if not live:
            # A duplicate response (the request was retried and both
            # incarnations answered) — payloads are deterministic, so
            # whichever response resolved first was already correct.
            return
        if payload is None:
            self._resolve(entry, ResponseStatus.ERROR, detail=detail)
            return
        self.cache.put(entry.key, payload)
        self._resolve(entry, ResponseStatus.OK, payload=payload)
        for follower in followers:
            # Each follower gets a private copy: responses never alias.
            self._resolve(follower, ResponseStatus.OK,
                          payload=copy.deepcopy(payload), cached=True)

    def _take_identical_locked(self, leader: _ShardEntry) -> List[_ShardEntry]:
        """Remove and return the live queued entries with ``leader``'s key."""
        sq = self._shards[leader.shard]
        kept: "deque[_ShardEntry]" = deque()
        followers: List[_ShardEntry] = []
        for queued in sq.pending:
            if queued.key == leader.key and not queued.ticket.done():
                self._entries.pop(queued.ticket.request_id, None)
                followers.append(queued)
            else:
                kept.append(queued)
        sq.pending = kept
        return followers

    def _resolve(self, entry: _ShardEntry, status: ResponseStatus, *,
                 payload: Optional[Dict[str, Any]] = None, detail: str = "",
                 cached: bool = False) -> None:
        latency_ms = (time.monotonic() - entry.submitted_at) * 1000.0
        self.recorder.on_served(latency_ms, cached=cached,
                                error=status is not ResponseStatus.OK)
        entry.ticket.resolve(ServiceResponse(
            request_id=entry.ticket.request_id,
            kind=entry.ticket.kind,
            status=status,
            payload=payload if payload is not None else {},
            cached=cached,
            detail=detail,
            duration_ms=latency_ms,
        ))

    # -- internals -----------------------------------------------------

    def _outstanding_locked(self) -> bool:
        if any(sq.pending for sq in self._shards):
            return True
        return bool(self._entries)


__all__ = ["ShardedDrFixService", "worker_main"]
