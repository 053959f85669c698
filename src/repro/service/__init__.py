"""Layer 7 — Dr.Fix as a service.

An async serving layer over the pipeline in two scales:

* :class:`DrFixService` — in-process: bounded admission, batch scheduling
  through the shared executor substrate, a fingerprint-keyed result cache;
* :class:`ShardedDrFixService` — multi-process: N supervised worker
  processes sharded by source fingerprint, crash recovery with retries,
  a crash-loop circuit breaker, graceful drain, and a shared result cache
  that ``cache_dir`` writes through to an on-disk
  :class:`~repro.store.JsonStore`, so warm hits survive restarts.

Both speak the same request/response protocol and are served by the same
stdlib-only HTTP/stdio frontends.  Fault injection for the sharded service
rides in via ``DRFIX_FAULT_PLAN`` (:mod:`repro.service.faults`); pidfile
discipline for ``drfix serve`` lives in :mod:`repro.service.pidfile`.  See
``docs/architecture.md`` (§Layer 7) for the request lifecycle and the
failure-mode table.
"""

from repro.service.cache import CACHE_VERSION, ResultCache
from repro.service.core import (
    DrFixService,
    ServiceTicket,
    detect_payload,
    execute_detect,
    execute_fix,
    fix_outcome_payload,
)
from repro.service.faults import FAULT_PLAN_ENV_VAR, FaultClause, FaultPlan
from repro.service.frontend import (
    REQUEST_TIMEOUT_ENV_VAR,
    REQUEST_TIMEOUT_S,
    ServiceHTTPServer,
    resolve_request_timeout,
    serve_stdio,
)
from repro.service.metrics import MetricsRecorder, ServiceMetrics, latency_percentile
from repro.service.pidfile import Pidfile, stop_daemon
from repro.service.requests import (
    DetectRequest,
    FixRequest,
    RequestKind,
    ResponseStatus,
    ServiceRequest,
    ServiceResponse,
    package_from_payload,
    request_from_payload,
)
from repro.service.shard import ShardedDrFixService
from repro.service.supervisor import (
    SupervisorStats,
    WorkerHandle,
    WorkerState,
    WorkerSupervisor,
)

__all__ = [
    "CACHE_VERSION",
    "DetectRequest",
    "DrFixService",
    "FAULT_PLAN_ENV_VAR",
    "FaultClause",
    "FaultPlan",
    "FixRequest",
    "MetricsRecorder",
    "Pidfile",
    "REQUEST_TIMEOUT_ENV_VAR",
    "REQUEST_TIMEOUT_S",
    "RequestKind",
    "ResponseStatus",
    "ResultCache",
    "ServiceHTTPServer",
    "ServiceMetrics",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceTicket",
    "ShardedDrFixService",
    "SupervisorStats",
    "WorkerHandle",
    "WorkerState",
    "WorkerSupervisor",
    "detect_payload",
    "execute_detect",
    "execute_fix",
    "fix_outcome_payload",
    "latency_percentile",
    "package_from_payload",
    "request_from_payload",
    "resolve_request_timeout",
    "serve_stdio",
    "stop_daemon",
]
