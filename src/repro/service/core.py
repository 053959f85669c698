"""Dr.Fix as a service: async batch serving over the executor substrate.

The paper's system is consumed as a continuously running service — race
reports stream in from CI, fixes stream back out — not as a one-shot script.
:class:`DrFixService` is that serving layer, in-process and stdlib-only:

* **admission control** — a bounded request queue (``max_queue_depth``); a
  submission past the bound resolves *immediately* with a structured
  ``overloaded`` response instead of growing memory or blocking the client;
* **batch scheduling** — a scheduler thread coalesces queued requests into
  batches of at most ``max_in_flight`` and dispatches each batch through the
  shared :class:`~repro.execution.CaseExecutor`; each request then runs
  serially on its worker, so ``jobs`` workers use at most ``jobs`` cores;
* **fingerprint result cache** — responses are cached by source fingerprint ×
  config fingerprint (:mod:`repro.service.cache`); a repeated submission of an
  identical package returns the warm payload without re-running the scheduler.
  Identical requests *within* one batch are also deduplicated: the work runs
  once and fans out to every waiting ticket;
* **stateless per-request execution** — every request builds a fresh
  :class:`~repro.core.pipeline.DrFix`/harness invocation, so served responses
  are bit-identical to direct calls (enforced by the differential test), which
  is what makes the cache safe by construction;
* **metrics** — a :class:`~repro.service.metrics.ServiceMetrics` snapshot
  (served counts, cache hit rate, queue depth, p50/p95 latency, throughput).

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
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix, FixOutcome
from repro.diagnosis import RaceDiagnoser
from repro.errors import ConfigError
from repro.execution import CaseExecutor, ExecutorKind, resolve_kind
from repro.fingerprint import config_fingerprint
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

    Module-level with picklable arguments so batches can dispatch through the
    process backend too; exceptions are folded into structured ``error``
    responses — a worker must never take the batch (or the service) down.
    """
    try:
        if request.kind is RequestKind.DETECT:
            return execute_detect(request, config), ""
        return execute_fix(request, config, database), ""
    except Exception as exc:  # noqa: BLE001 - the service converts to a response
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Tickets and queue entries
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


@dataclass
class _Pending:
    """One admitted request waiting in (or popped from) the queue."""

    ticket: ServiceTicket
    request: ServiceRequest
    key: str
    submitted_at: float


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class DrFixService:
    """In-process async batch server over the Dr.Fix pipeline."""

    def __init__(
        self,
        config: Optional[DrFixConfig] = None,
        database: Optional[ExampleDatabase] = None,
        *,
        max_queue_depth: int = 64,
        max_in_flight: int = 4,
        jobs: Optional[int] = None,
        executor: "ExecutorKind | str | None" = "thread",
        cache_capacity: int = 256,
        cache_dir: Optional[str] = None,
        batch_linger_s: float = 0.0,
        start: bool = True,
    ):
        if max_queue_depth <= 0:
            raise ConfigError("max_queue_depth must be positive")
        if max_in_flight <= 0:
            raise ConfigError("max_in_flight must be positive")
        self.config = (config or DrFixConfig(model="gpt-4o")).validated()
        self.database = database
        self.max_queue_depth = max_queue_depth
        self.max_in_flight = max_in_flight
        self.jobs = jobs
        if executor is not None:
            # Validate the backend name now so it fails at construction, not
            # inside the scheduler thread where it could strand tickets.
            resolve_kind(executor)
        self.executor_kind = executor
        self.batch_linger_s = batch_linger_s
        self.config_fp = config_fingerprint(self.config)
        self.cache = ResultCache(
            cache_capacity, JsonStore(cache_dir, CACHE_VERSION) if cache_dir else None)
        self.recorder = MetricsRecorder()
        self._cond = threading.Condition()
        self._pending: "deque[_Pending]" = deque()
        self._in_flight = 0
        self._sequence = 0
        #: Admission gate: True from construction until shutdown, so requests
        #: may be queued before :meth:`start` spins the scheduler up (tests
        #: use this to fill the queue deterministically).
        self._accepting = True
        self._running = False
        self._thread: Optional[threading.Thread] = None
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._running:
                return
            self._accepting = True
            self._running = True
            self._thread = threading.Thread(
                target=self._scheduler_loop, name="drfix-service-scheduler", daemon=True
            )
            self._thread.start()

    def begin_drain(self) -> None:
        """Stop admitting new requests; the scheduler keeps serving admitted
        ones.  The graceful half of :meth:`shutdown` — ``drfix serve`` calls
        this from its SIGTERM handler before waiting out the in-flight work."""
        with self._cond:
            self._accepting = False
            self._cond.notify_all()

    def shutdown(self, wait: bool = True) -> None:
        """Stop admitting; the scheduler drains already-admitted requests.

        If the scheduler was never started (``start=False``), admitted
        requests cannot be served — they are resolved with ``overloaded``
        here rather than left to hang their tickets forever.
        """
        with self._cond:
            self._accepting = False
            self._running = False
            stranded: List[_Pending] = []
            if self._thread is None:
                stranded = list(self._pending)
                self._pending.clear()
            self._cond.notify_all()
        for entry in stranded:
            self.recorder.on_drop()
            entry.ticket.resolve(ServiceResponse(
                request_id=entry.ticket.request_id, kind=entry.ticket.kind,
                status=ResponseStatus.OVERLOADED,
                detail="service shut down before it was started",
            ))
        if wait and self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "DrFixService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # -- submission ----------------------------------------------------

    def submit(self, request: ServiceRequest) -> ServiceTicket:
        """Admit (or reject) one request; never blocks on the queue."""
        request = request.validated()
        now = time.monotonic()
        with self._cond:
            self._sequence += 1
            ticket = ServiceTicket(f"r{self._sequence:06d}", request.kind.value)
            if not self._accepting:
                detail = "service is shut down"
            elif len(self._pending) >= self.max_queue_depth:
                detail = (
                    f"queue full ({len(self._pending)}/{self.max_queue_depth} "
                    f"queued, {self._in_flight} in flight)"
                )
            else:
                self.recorder.on_submit()
                self._pending.append(
                    _Pending(ticket=ticket, request=request,
                             key=request.cache_key(self.config_fp), submitted_at=now)
                )
                self._cond.notify()
                return ticket
        # Structured backpressure: resolve immediately, outside the lock.
        self.recorder.on_reject()
        ticket.resolve(ServiceResponse(
            request_id=ticket.request_id, kind=ticket.kind,
            status=ResponseStatus.OVERLOADED, detail=detail,
        ))
        return ticket

    def call(self, request: ServiceRequest,
             timeout: Optional[float] = None) -> ServiceResponse:
        """Blocking convenience: submit and wait for the response."""
        return self.submit(request).result(timeout)

    # -- observability -------------------------------------------------

    def metrics(self) -> ServiceMetrics:
        with self._cond:
            depth, in_flight = len(self._pending), self._in_flight
        return self.recorder.snapshot(queue_depth=depth, in_flight=in_flight)

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` body (same shape as the sharded service's,
        minus the per-worker blocks — the in-process service has none)."""
        with self._cond:
            draining = not self._accepting
            depth, in_flight = len(self._pending), self._in_flight
        return {
            "status": "draining" if draining else "ok",
            "workers": [],
            "broken_shards": 0,
            "queue_depth": depth,
            "in_flight": in_flight,
            "cache_entries": len(self.cache),
        }

    # -- the batch scheduler -------------------------------------------

    def _scheduler_loop(self) -> None:
        while True:
            with self._cond:
                # Event-driven: submit() and shutdown() both notify, so the
                # idle wait needs no timeout (no polling wakeups).
                while self._running and not self._pending:
                    self._cond.wait()
                if not self._pending:
                    if not self._running:
                        return
                    continue
                if (self.batch_linger_s > 0
                        and len(self._pending) < self.max_in_flight
                        and self._running):
                    # Give a burst a moment to coalesce into one batch.
                    self._cond.wait(self.batch_linger_s)
                batch: List[_Pending] = []
                while self._pending and len(batch) < self.max_in_flight:
                    batch.append(self._pending.popleft())
                self._in_flight = len(batch)
            try:
                self._serve_batch(batch)
            except Exception as exc:  # noqa: BLE001 - the scheduler must survive
                # A failure in the batch path itself (not a worker — those are
                # guarded in _execute_request) must not kill the scheduler
                # thread and strand every future ticket: resolve whatever the
                # batch left unresolved and keep serving.
                detail = f"internal batch failure: {type(exc).__name__}: {exc}"
                for entry in batch:
                    if not entry.ticket.done():
                        self._finish(entry, ResponseStatus.ERROR, detail=detail)
            finally:
                with self._cond:
                    self._in_flight = 0

    def _serve_batch(self, batch: List[_Pending]) -> None:
        self.recorder.on_batch(len(batch))
        # Group identical requests up front, so the cache is probed once per
        # *unique* key: the ResultCache counters stay per-unique-key while
        # the MetricsRecorder counts per-request (followers of an in-batch
        # duplicate count as hits — their work was shared), keeping the two
        # hit rates consistent in meaning.
        groups: "Dict[str, List[_Pending]]" = {}
        for entry in batch:
            groups.setdefault(entry.key, []).append(entry)
        # Warm pass: anything already cached resolves without touching a worker.
        leaders: List[_Pending] = []
        for key, entries in groups.items():
            payload = self.cache.get(key)
            if payload is not None:
                # cache.get returned one private copy; duplicates in the
                # group each get their own so no two responses alias.
                for index, entry in enumerate(entries):
                    self._finish(entry, ResponseStatus.OK,
                                 payload=payload if index == 0
                                 else copy.deepcopy(payload),
                                 cached=True)
            else:
                # Deduplicated miss: the leader computes, followers share.
                leaders.append(entries[0])
        if not leaders:
            return
        worker = partial(_execute_request, self.config, self.database)
        # A fresh CaseExecutor per batch, as the evaluation runner uses it
        # per arm.  The default backend is ``thread``: workers share
        # the process-wide program cache and pool startup is negligible.
        # The ``process`` backend pays pool startup + a per-worker program
        # cache warm-up on *every batch* — prefer it only for long batches
        # of genuinely cold, CPU-bound work.
        pool = CaseExecutor(kind=self.executor_kind, jobs=self.jobs)
        outcomes = pool.map(worker, [leader.request for leader in leaders])
        for leader, (payload, detail) in zip(leaders, outcomes):
            followers = groups[leader.key]
            if payload is None:
                for entry in followers:
                    self._finish(entry, ResponseStatus.ERROR, detail=detail)
                continue
            self.cache.put(leader.key, payload)
            for index, entry in enumerate(followers):
                # The leader computed; followers shared the computation but
                # receive private copies (responses must never alias).
                self._finish(entry, ResponseStatus.OK,
                             payload=payload if index == 0
                             else copy.deepcopy(payload),
                             cached=index > 0)

    def _finish(self, entry: _Pending, status: ResponseStatus, *,
                payload: Optional[Dict[str, Any]] = None, cached: bool = False,
                detail: str = "") -> None:
        latency_ms = (time.monotonic() - entry.submitted_at) * 1000.0
        self.recorder.on_served(latency_ms, cached=cached,
                                error=status is ResponseStatus.ERROR)
        entry.ticket.resolve(ServiceResponse(
            request_id=entry.ticket.request_id,
            kind=entry.ticket.kind,
            status=status,
            payload=payload if payload is not None else {},
            cached=cached,
            detail=detail,
            duration_ms=latency_ms,
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
