"""Layer 7 — Dr.Fix as a service.

An async serving layer over the pipeline in two scales:

* :class:`DrFixService` — in-process: bounded admission, batch scheduling
  through the shared executor substrate, a fingerprint-keyed result cache;
* :class:`~repro.service.shard.ShardedDrFixService` — multi-process: N supervised worker
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

This package imports only the in-process service and its request types, so
``from repro.service import DrFixService`` loads neither the frontends nor
the sharded service; import those from their own modules.
"""

from repro.service.core import DrFixService, execute_detect, execute_fix
from repro.service.requests import DetectRequest, FixRequest

__all__ = [
    "DetectRequest",
    "DrFixService",
    "FixRequest",
    "execute_detect",
    "execute_fix",
]
