"""Layer 7 — Dr.Fix as a service.

:class:`DrFixService` is one async serving layer over the pipeline.  Its
master probes a fingerprint-keyed result cache and folds identical requests
(single flight) at submit, then queues each new request on a bounded lane:

* ``workers=0`` (the default) runs the lane in this process, batching
  through the shared executor substrate;
* ``workers=N`` runs N lanes in supervised worker processes
  (:mod:`repro.service.shard`) routed by source fingerprint, with crash
  recovery and retries, a crash-loop circuit breaker and graceful drain.

``cache_dir`` writes the result cache through to an on-disk
:class:`~repro.store.JsonStore`, so warm hits survive restarts and are
shared by both modes.  Both modes are served by the same stdlib-only
HTTP/stdio frontends.  Fault injection for the worker processes rides in
via ``DRFIX_FAULT_PLAN`` (:mod:`repro.service.faults`); pidfile discipline
for ``drfix serve`` lives in :mod:`repro.service.pidfile`.  See
``docs/architecture.md`` (§Layer 7) for the request lifecycle and the
failure-mode table.

This package imports only the service and its request types, so
``from repro.service import DrFixService`` loads neither the frontends nor
the worker-process lane; import those from their own modules.
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
