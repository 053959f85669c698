"""Dr.Fix as a service: one master, two lanes.

The paper's system is consumed as a continuously running service — race
reports stream in from CI, fixes stream back out — not as a one-shot script.
:class:`DrFixService` is that serving layer, stdlib-only.  Its master holds
the ticket sequence, admission and drain state, the result cache and the
metrics, and :meth:`DrFixService.submit` decides every request in one place:

* **fingerprint result cache** — responses are cached by source fingerprint ×
  config fingerprint (:mod:`repro.service.cache`); a submission whose key is
  cached is answered at once, without queueing;
* **single flight** — a submission identical to a request that is already
  queued or running follows it and receives a private copy of its payload or
  error (the table follows Go's ``golang.org/x/sync/singleflight``);
* **admission control** — any other request leads on its lane, whose queue
  is bounded by ``max_queue_depth``; a submission past the bound resolves
  *immediately* with a structured ``overloaded`` response instead of growing
  memory or blocking the client;
* **stateless per-request execution** — every request builds a fresh
  :class:`~repro.core.pipeline.DrFix`/harness invocation, so served responses
  are bit-identical to direct calls (enforced by the differential test), which
  is what makes the cache safe by construction;
* **metrics** — a :class:`~repro.service.metrics.ServiceMetrics` snapshot
  (served counts, cache hit rate, queue depth, p50/p95 latency, throughput).

Only dispatch differs between the two lanes.  With ``workers=0`` (the
default) one scheduler thread runs up to ``max_in_flight`` leaders at a time
through the shared :class:`~repro.execution.CaseExecutor`, and answers each
in batch order as soon as it and the leaders before it have run; each
request runs serially on its executor worker, so ``jobs`` workers use at
most ``jobs`` cores.  With ``workers=N`` leaders route by source fingerprint
to N supervised worker processes (:mod:`repro.service.shard`, imported only
then).
Both lanes hand a finished leader to one completion method, which fills the
cache and answers the leader and its followers.

Clients interact through tickets::

    with DrFixService(config, database) as service:
        ticket = service.submit(DetectRequest(package=pkg))
        response = ticket.result(timeout=60)

or the blocking convenience :meth:`DrFixService.call`.  The HTTP/stdio
frontends in :mod:`repro.service.frontend` are thin adapters over this class.
"""

from __future__ import annotations

import copy
import re
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix, FixOutcome
from repro.diagnosis import RaceDiagnoser
from repro.errors import ConfigError
from repro.execution import CaseExecutor, ExecutorKind, resolve_kind
from repro.fingerprint import config_fingerprint, shard_for
from repro.runtime.harness import GoPackage, PackageRunResult, run_package_tests
from repro.service.cache import CACHE_VERSION, ResultCache
from repro.service.metrics import MetricsRecorder, ServiceMetrics
from repro.service.requests import (
    RequestKind,
    ResponseStatus,
    ServiceRequest,
    ServiceResponse,
)
from repro.store import JsonStore

if TYPE_CHECKING:
    from repro.service.shard import ProcessLanes


# ---------------------------------------------------------------------------
# Deterministic payloads
# ---------------------------------------------------------------------------
#
# Payloads carry only deterministic fields (no wall-clock durations), so a
# cached payload is byte-for-byte what a cold run would produce.  The
# differential test renders *direct* harness/pipeline invocations through
# these same builders and compares them against served responses.
#
# One piece of process-lifetime state must be scrubbed to get there: the
# ``0x00c…`` cell addresses in rendered reports come from a process-global
# allocation counter (:mod:`repro.runtime.memory`), so the *same* detection
# repeated later in one process renders different addresses.  Payloads
# renumber them from a fixed base in first-appearance order — deterministic,
# distinctness-preserving, and still ThreadSanitizer-shaped — so a served
# response is a pure function of (package, config, runs, seed).

#: The renderer prints cell addresses as ``0x{address:012x}`` counting up from
#: ``0xc000000000`` in steps of 0x10 (see ``repro.runtime.memory``).
_ADDRESS_RE = re.compile(r"0x00c[0-9a-f]{9}")
_ADDRESS_BASE = 0xC000000000
_ADDRESS_STEP = 0x10


def normalize_addresses(value: Any, mapping: Optional[Dict[str, str]] = None) -> Any:
    """Renumber process-global cell addresses in first-appearance order.

    Walks strings, lists, and dicts (payloads are built with deterministic
    ordering, so first appearance is deterministic too); distinct addresses
    stay distinct.
    """
    if mapping is None:
        mapping = {}

    def remap(match: "re.Match[str]") -> str:
        text = match.group(0)
        if text not in mapping:
            mapping[text] = f"0x{_ADDRESS_BASE + len(mapping) * _ADDRESS_STEP:012x}"
        return mapping[text]

    if isinstance(value, str):
        return _ADDRESS_RE.sub(remap, value)
    if isinstance(value, list):
        return [normalize_addresses(item, mapping) for item in value]
    if isinstance(value, dict):
        return {key: normalize_addresses(item, mapping) for key, item in value.items()}
    return value


def detect_payload(package: GoPackage, result: PackageRunResult) -> Dict[str, Any]:
    """The deterministic wire form of one detection run."""
    diagnoser = RaceDiagnoser(package)
    return {
        "package": result.package,
        "built": result.built,
        "passed": result.passed,
        "summary": result.summary(),
        "runs": result.runs,
        "tests_discovered": result.tests_discovered,
        "build_errors": list(result.build_errors),
        "test_failures": list(result.test_failures),
        "output": list(result.output),
        "output_lines_truncated": result.output_lines_truncated,
        "scheduler_steps": result.scheduler_steps,
        "race_hashes": result.race_hashes(),
        "reports": [
            {
                "bug_hash": report.bug_hash(),
                "variable": report.variable,
                "render": report.render(),
                "diagnosis": diagnoser.diagnose(report).summary(),
            }
            for report in result.reports
        ],
    }


def fix_outcome_payload(package: GoPackage, outcome: FixOutcome) -> Dict[str, Any]:
    """The deterministic wire form of one pipeline outcome."""
    changed: Dict[str, str] = {}
    diff = ""
    if outcome.patch is not None:
        diff = outcome.patch.diff(package)
        for name in outcome.patch.changed_files:
            file = outcome.patch.package.file(name)
            if file is not None:
                changed[name] = file.source
    return {
        "bug_hash": outcome.bug_hash,
        "fixed": outcome.fixed,
        "strategy": outcome.strategy,
        "location": outcome.location,
        "scope": outcome.scope,
        "guided_by_example": outcome.guided_by_example,
        "example_id": outcome.example_id,
        "lines_changed": outcome.lines_changed,
        "failure_reason": outcome.failure_reason,
        "model_calls": outcome.model_calls,
        "validations": outcome.validations,
        "attempts": len(outcome.attempts),
        "diagnosis": outcome.diagnosis.summary() if outcome.diagnosis is not None else "",
        "diff": diff,
        "changed_files": changed,
    }


def execute_detect(request: ServiceRequest, config: DrFixConfig) -> Dict[str, Any]:
    """Run the detector for one request: a pure function of its inputs.

    ``config`` is unused; the signature matches :func:`execute_fix`, and
    ``e2e_bench/workloads.py`` passes it.
    """
    result = run_package_tests(
        request.package,
        runs=request.runs,
        seed=request.seed,
    )
    return normalize_addresses(detect_payload(request.package, result))


def execute_fix(request: ServiceRequest, config: DrFixConfig,
                database: Optional[ExampleDatabase]) -> Dict[str, Any]:
    """Detect, then run the pipeline on every report — stateless per request.

    Each report gets a *fresh* :class:`DrFix` (fresh generator/validator
    counters), so the payload for a package is independent of whatever the
    service handled before it — the property the differential test checks.
    """
    detection = run_package_tests(
        request.package,
        runs=request.runs,
        seed=request.seed,
    )
    results: List[Dict[str, Any]] = []
    if detection.built:
        baseline = detection.race_hashes()
        for report in detection.reports:
            pipeline = DrFix(request.package, config=config, database=database)
            outcome = pipeline.fix_report(report, baseline_hashes=baseline)
            results.append(fix_outcome_payload(request.package, outcome))
    payload = {
        "package": detection.package,
        "built": detection.built,
        "detection_summary": detection.summary(),
        "race_hashes": detection.race_hashes(),
        "build_errors": list(detection.build_errors),
        "fixed_any": any(r["fixed"] for r in results),
        "results": results,
    }
    return normalize_addresses(payload)


def _execute_request(config: DrFixConfig, database: Optional[ExampleDatabase],
                     request: ServiceRequest) -> Tuple[Optional[Dict[str, Any]], str]:
    """Worker body: (payload, "") on success, (None, detail) on failure.

    Module-level with picklable arguments so it runs in an executor worker
    or a worker process alike; exceptions are folded into structured
    ``error`` responses — a worker must never take the service down.
    """
    try:
        if request.kind is RequestKind.DETECT:
            return execute_detect(request, config), ""
        return execute_fix(request, config, database), ""
    except Exception as exc:  # noqa: BLE001 - the service converts to a response
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Tickets and flights
# ---------------------------------------------------------------------------


class ServiceTicket:
    """A client's handle on one submitted request."""

    def __init__(self, request_id: str, kind: str):
        self.request_id = request_id
        self.kind = kind
        self._event = threading.Event()
        self._response: Optional[ServiceResponse] = None

    def resolve(self, response: ServiceResponse) -> None:
        self._response = response
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> ServiceResponse:
        """Block until the response is ready (raises ``TimeoutError``)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not served within {timeout} seconds"
            )
        assert self._response is not None
        return self._response


@dataclass(eq=False)
class _Pending:
    """One admitted request.  A *leader* is queued on a lane and runs; a
    *follower* rides on the leader with the same key and shares its answer."""

    ticket: ServiceTicket
    request: ServiceRequest
    key: str
    lane: int
    submitted_at: float
    #: Worker deaths while this leader was in flight (process lane only).
    retries: int = 0
    followers: List["_Pending"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class DrFixService:
    """Dr.Fix as a service: one master over an in-process or a process lane."""

    def __init__(
        self,
        config: Optional[DrFixConfig] = None,
        database: Optional[ExampleDatabase] = None,
        *,
        workers: int = 0,
        max_queue_depth: int = 64,
        max_in_flight: int = 4,
        jobs: Optional[int] = None,
        executor: "ExecutorKind | str | None" = "thread",
        cache_capacity: int = 256,
        cache_dir: Optional[str] = None,
        batch_linger_s: float = 0.0,
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
        if workers < 0:
            raise ConfigError("workers must be non-negative")
        if max_queue_depth <= 0:
            raise ConfigError("max_queue_depth must be positive")
        if max_in_flight <= 0:
            raise ConfigError("max_in_flight must be positive")
        if max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        self.config = (config or DrFixConfig(model="gpt-4o")).validated()
        self.database = database
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.max_in_flight = max_in_flight
        self.jobs = jobs
        if executor is not None:
            # Validate the backend name now so it fails at construction, not
            # inside the scheduler thread where it could strand tickets.
            resolve_kind(executor)
        self.executor_kind = executor
        self.batch_linger_s = batch_linger_s
        self.drain_timeout_s = drain_timeout_s
        self.config_fp = config_fingerprint(self.config)
        self.cache = ResultCache(
            cache_capacity, JsonStore(cache_dir, CACHE_VERSION) if cache_dir else None)
        self.recorder = MetricsRecorder()
        self._cond = threading.Condition()
        #: One queue of leaders per lane: lane ``shard_for(fp, workers)`` of
        #: the worker processes, or the single in-process lane 0.
        self._lanes: "List[deque[_Pending]]" = [deque() for _ in range(max(1, workers))]
        #: The single-flight table: every leader that is queued or running,
        #: by cache key.
        self._flights: Dict[str, _Pending] = {}
        self._sequence = 0
        #: Admission gate: open from construction until drain, so requests
        #: may be queued before :meth:`start` (tests use this to fill a lane
        #: deterministically).
        self._accepting = True
        self._started = False
        self._stopped = False
        self._worker_failures = 0
        self._drops = 0
        self._scheduler: Optional[threading.Thread] = None
        self._pool: "Optional[ProcessLanes]" = None
        if workers:
            # Imported here so the in-process service never loads
            # multiprocessing or the supervisor.
            from repro.service.shard import ProcessLanes

            self._pool = ProcessLanes(
                self,
                max_retries=max_retries,
                heartbeat_interval_s=heartbeat_interval_s,
                liveness_deadline_s=liveness_deadline_s,
                restart_backoff_s=restart_backoff_s,
                restart_backoff_cap_s=restart_backoff_cap_s,
                breaker_threshold=breaker_threshold,
                fault_plan=fault_plan,
            )
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._started or self._stopped:
                return
            self._started = True
        if self._pool is not None:
            self._pool.start()
            return
        self._scheduler = threading.Thread(
            target=self._scheduler_loop, name="drfix-service-scheduler", daemon=True)
        self._scheduler.start()

    def begin_drain(self) -> None:
        """Stop admitting new requests; admitted ones keep being served.  The
        graceful half of :meth:`shutdown` — ``drfix serve`` calls this from
        its SIGTERM handler before waiting out the in-flight work."""
        with self._cond:
            self._accepting = False
            self._cond.notify_all()

    def shutdown(self) -> None:
        """Drain and stop: serve every admitted request, then stop the lane.

        Admitted requests are never dropped while the lane can serve them
        (in worker mode the supervisor keeps restarting crashed workers
        during the drain).  Only the ``drain_timeout_s`` deadline resolves
        leftovers, as ``worker_failed``; a service that was never started
        resolves its queue as ``overloaded``.  Nothing ever hangs.
        """
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._accepting = False
            deadline = time.monotonic() + self.drain_timeout_s
            while self._started and self._flights:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            leftovers = list(self._flights.values())
            self._flights.clear()
            for queue in self._lanes:
                queue.clear()
            self._drops += sum(1 + len(leader.followers) for leader in leftovers)
            self._cond.notify_all()
        if self._started:
            status, detail = (ResponseStatus.WORKER_FAILED,
                              "request abandoned at drain deadline")
        else:
            status, detail = (ResponseStatus.OVERLOADED,
                              "service shut down before it was started")
        for leader in leftovers:
            for entry in (leader, *leader.followers):
                self._resolve(entry, status, detail=detail, dropped=True)
        if self._scheduler is not None:
            self._scheduler.join()
            self._scheduler = None
        if self._pool is not None:
            self._pool.stop()

    def __enter__(self) -> "DrFixService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------

    def submit(self, request: ServiceRequest) -> ServiceTicket:
        """Answer, fold or queue one request; never blocks on a queue.

        Every request is decided here, under the lock, and so is every
        counter it moves: a request identical to a queued or running one
        follows it (single flight); a cache hit is answered at once (with
        ``cache_dir``, a memory miss reads the disk under the lock); anything
        else leads, on its lane, against ``max_queue_depth``.
        """
        request = request.validated()
        key = request.cache_key(self.config_fp)
        lane = shard_for(request.source_fingerprint(), self.workers) if self.workers else 0
        with self._cond:
            self._sequence += 1
            entry = _Pending(
                ticket=ServiceTicket(f"r{self._sequence:06d}", request.kind.value),
                request=request, key=key, lane=lane, submitted_at=time.monotonic())
            queue = self._lanes[lane]
            leader = self._flights.get(key)
            if not self._accepting:
                self._reject(entry, "service is shut down" if self._stopped
                             else "service is draining")
            elif leader is not None:
                self.recorder.on_submit()
                leader.followers.append(entry)
            elif (payload := self.cache.get(key)) is not None:
                self.recorder.on_submit()
                self._resolve(entry, ResponseStatus.OK, payload=payload, cached=True)
            elif (self._pool is not None
                  and (broken := self._pool.broken_detail_locked(lane))):
                self.recorder.on_submit()
                self._worker_failures += 1
                self._resolve(entry, ResponseStatus.WORKER_FAILED, detail=broken)
            elif len(queue) >= self.max_queue_depth:
                in_flight = self._load_locked()[1]
                shard = f"shard {lane} " if self.workers else ""
                self._reject(entry, f"{shard}queue full ({len(queue)}/"
                             f"{self.max_queue_depth} queued, {in_flight} in flight)")
            else:
                self.recorder.on_submit()
                queue.append(entry)
                self._flights[key] = entry
                if self._pool is not None:
                    self._pool.dispatch_locked(lane)
                self._cond.notify_all()
        return entry.ticket

    def call(self, request: ServiceRequest,
             timeout: Optional[float] = None) -> ServiceResponse:
        """Blocking convenience: submit and wait for the response."""
        return self.submit(request).result(timeout)

    # -- observability -------------------------------------------------

    def metrics(self) -> ServiceMetrics:
        with self._cond:
            depth, in_flight = self._load_locked()
            program_cache = (self._pool.program_cache_locked()
                             if self._pool is not None else None)
        return self.recorder.snapshot(queue_depth=depth, in_flight=in_flight,
                                      supervisor=self.supervisor_stats(),
                                      program_cache=program_cache)

    def queue_depth(self) -> int:
        with self._cond:
            return self._load_locked()[0]

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body; ``workers`` is empty in process."""
        with self._cond:
            draining = not self._accepting
            depth, in_flight = self._load_locked()
        workers = self.worker_status()
        broken = sum(1 for block in workers if block["state"] == "broken")
        return {
            "status": "draining" if draining else "degraded" if broken else "ok",
            "workers": workers,
            "broken_shards": broken,
            "queue_depth": depth,
            "in_flight": in_flight,
            "cache_entries": len(self.cache),
        }

    def worker_status(self) -> List[Dict[str, Any]]:
        """One block per worker process (none in process)."""
        with self._cond:
            return self._pool.status_locked() if self._pool is not None else []

    def supervisor_stats(self) -> Dict[str, Any]:
        """Restart, retry and failure counters (empty in process)."""
        with self._cond:
            if self._pool is None:
                return {}
            stats = self._pool.stats_locked()
            stats.update(worker_failures=self._worker_failures, drops=self._drops)
            return stats

    def _load_locked(self) -> Tuple[int, int]:
        """(queued, in flight): a leader in flight has left its lane."""
        depth = sum(len(queue) for queue in self._lanes)
        return depth, len(self._flights) - depth

    # -- the in-process lane -------------------------------------------

    def _scheduler_loop(self) -> None:
        """Run up to ``max_in_flight`` leaders at a time through the shared
        :class:`~repro.execution.CaseExecutor`, until shutdown drains lane 0.
        A leader is answered when its own run ends (in batch order), not
        when the whole batch has."""
        queue = self._lanes[0]
        while True:
            with self._cond:
                # Event-driven: submit() and shutdown() both notify, so the
                # idle wait needs no timeout (no polling wakeups).
                while not (queue or self._stopped):
                    self._cond.wait()
                if not queue:
                    return
                if (self.batch_linger_s > 0 and len(queue) < self.max_in_flight
                        and not self._stopped):
                    # Give a burst a moment to coalesce into one batch.
                    self._cond.wait(self.batch_linger_s)
                batch = [queue.popleft()
                         for _ in range(min(len(queue), self.max_in_flight))]
            if not batch:
                continue
            self.recorder.on_batch(len(batch))
            answered = 0
            try:
                # A fresh CaseExecutor per batch, as the evaluation runner
                # uses one per arm.  The ``process`` backend pays pool
                # start-up and a cold program cache on every batch; worker
                # mode keeps resident processes instead.
                pool = CaseExecutor(kind=self.executor_kind, jobs=self.jobs)
                outcomes = pool.imap(partial(_execute_request, self.config, self.database),
                                     [leader.request for leader in batch])
                with closing(outcomes):
                    for leader, (payload, detail) in zip(batch, outcomes):
                        self._complete(leader, payload, detail)
                        answered += 1
            except Exception as exc:  # noqa: BLE001 - the scheduler must survive
                # A failure in the batch machinery itself (worker bodies are
                # guarded in _execute_request) must not kill the scheduler
                # thread and strand every later ticket.
                detail = f"internal batch failure: {type(exc).__name__}: {exc}"
                for leader in batch[answered:]:
                    self._complete(leader, None, detail)

    # -- completion ----------------------------------------------------

    def _complete(self, leader: _Pending, payload: Optional[Dict[str, Any]],
                  detail: str, failure: ResponseStatus = ResponseStatus.ERROR) -> None:
        """A leader finished on either lane: cache its payload, then answer it
        and its followers (``failure`` when ``payload`` is ``None``).

        The cache is filled before the leader leaves the single-flight
        table, so an identical submission always finds one or the other.
        A leader no longer in the table (a late duplicate response, or one
        dropped at the drain deadline) is ignored; one still queued for a
        retry leaves its lane.  Safe with or without the lock held (it is
        re-entrant; the supervisor's callbacks hold it).
        """
        if payload is not None:
            self.cache.put(leader.key, payload)
        with self._cond:
            if self._flights.get(leader.key) is not leader:
                return
            del self._flights[leader.key]
            queue = self._lanes[leader.lane]
            if leader in queue:
                # Answered while queued for a retry: a dead worker's late reply.
                queue.remove(leader)
            if payload is None and failure is ResponseStatus.WORKER_FAILED:
                self._worker_failures += 1 + len(leader.followers)
            self._cond.notify_all()
        if payload is None:
            for entry in (leader, *leader.followers):
                self._resolve(entry, failure, detail=detail)
            return
        self._resolve(leader, ResponseStatus.OK, payload=payload)
        for follower in leader.followers:
            # Followers shared the computation but get private copies:
            # responses never alias.
            self._resolve(follower, ResponseStatus.OK,
                          payload=copy.deepcopy(payload), cached=True)

    def _resolve(self, entry: _Pending, status: ResponseStatus, *,
                 payload: Optional[Dict[str, Any]] = None, cached: bool = False,
                 detail: str = "", dropped: bool = False) -> None:
        """Answer one admitted request (``dropped``: it never ran)."""
        latency_ms = (time.monotonic() - entry.submitted_at) * 1000.0
        if dropped:
            self.recorder.on_drop()
        else:
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

    def _reject(self, entry: _Pending, detail: str) -> None:
        """Structured backpressure for a request that was never admitted."""
        self.recorder.on_reject()
        entry.ticket.resolve(ServiceResponse(
            request_id=entry.ticket.request_id, kind=entry.ticket.kind,
            status=ResponseStatus.OVERLOADED, detail=detail,
        ))


__all__ = [
    "DrFixService",
    "ServiceTicket",
    "detect_payload",
    "execute_detect",
    "execute_fix",
    "fix_outcome_payload",
    "normalize_addresses",
]
