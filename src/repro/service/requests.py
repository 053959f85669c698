"""Request and response model for the Dr.Fix serving layer.

A request names a Go package (files shipped inline, order-preserving — file
order is part of the package identity) plus the detection knobs, and is keyed
for the result cache by **source fingerprint × config fingerprint**: the same
keying discipline (:mod:`repro.fingerprint`) as the evaluation run store and
the runtime program cache, and on disk the same :class:`~repro.store.JsonStore`
format as the run store.  Two
requests with the same key would compute bit-identical payloads (the service's
differential test enforces this against direct invocations), which is what
makes serving cached responses safe by construction.

Responses are JSON-shaped end to end: the ``payload`` carries only
deterministic fields (reports, hashes, diffs — never wall-clock durations), so
a cache hit is byte-for-byte the response a cold run would have produced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.fingerprint import config_fingerprint, digest
from repro.runtime.compiler import package_fingerprint
from repro.runtime.harness import GoFile, GoPackage


class RequestKind(enum.Enum):
    """What the service should do with the submitted package."""

    DETECT = "detect"
    FIX = "fix"


class ResponseStatus(enum.Enum):
    """Terminal state of one request."""

    OK = "ok"
    #: Structured backpressure: the queue was at its bound (or the service was
    #: shut down); the client should retry later.  Never raised as an
    #: exception — admission control is part of the protocol.
    OVERLOADED = "overloaded"
    ERROR = "error"
    #: Structured crash report: the worker process serving this request died
    #: more times than the retry budget allows, its shard's circuit breaker
    #: is open, or the drain deadline passed first.  Like ``overloaded``,
    #: this is protocol, not an exception — a supervised crash must never
    #: become a hung client.
    WORKER_FAILED = "worker_failed"


@dataclass(frozen=True)
class ServiceRequest:
    """Base request: one package plus the detection knobs."""

    package: GoPackage
    runs: int = 10
    seed: int = 0

    kind: RequestKind = field(init=False, default=RequestKind.DETECT)

    def validated(self) -> "ServiceRequest":
        if not self.package.files:
            raise ConfigError("a service request needs at least one Go file")
        if self.runs <= 0:
            raise ConfigError("runs must be a positive integer")
        return self

    # ------------------------------------------------------------------

    def source_fingerprint(self) -> str:
        return package_fingerprint(self.package)

    def cache_key(self, config_fp: str) -> str:
        """Source fingerprint × config fingerprint (plus the request knobs)."""
        return digest({
            "kind": self.kind.value,
            "source": self.source_fingerprint(),
            "config": config_fp,
            "runs": self.runs,
            "seed": self.seed,
        })

    def describe(self) -> str:
        return f"{self.kind.value}({self.package.name}, runs={self.runs}, seed={self.seed})"


@dataclass(frozen=True)
class DetectRequest(ServiceRequest):
    """Run the race detector over the package (the ``drfix detect`` path)."""

    kind: RequestKind = field(init=False, default=RequestKind.DETECT)


@dataclass(frozen=True)
class FixRequest(ServiceRequest):
    """Detect, then run the Dr.Fix pipeline on every report (``drfix fix``)."""

    kind: RequestKind = field(init=False, default=RequestKind.FIX)


@dataclass
class ServiceResponse:
    """Terminal response for one request."""

    request_id: str
    kind: str
    status: ResponseStatus
    #: Deterministic result payload (empty on rejection/error).
    payload: Dict[str, Any] = field(default_factory=dict)
    #: True when the payload came from the fingerprint result cache.
    cached: bool = False
    #: Human-readable detail for ``overloaded``/``error`` responses.
    detail: str = ""
    #: Wall-clock milliseconds from admission to completion (not part of the
    #: payload, so cached and cold responses stay bit-identical where it
    #: matters).
    duration_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK

    def as_dict(self) -> Dict[str, Any]:
        return {
            "request_id": self.request_id,
            "kind": self.kind,
            "status": self.status.value,
            "cached": self.cached,
            "detail": self.detail,
            "duration_ms": round(self.duration_ms, 3),
            "payload": self.payload,
        }


# ---------------------------------------------------------------------------
# Wire form (shared by the HTTP and stdio frontends)
# ---------------------------------------------------------------------------


def package_from_payload(data: Dict[str, Any]) -> GoPackage:
    """Build a :class:`GoPackage` from the wire form.

    ``files`` maps file name → source; insertion order is preserved (it is
    part of the package identity — test discovery iterates files in order).
    """
    files_raw = data.get("files")
    if not isinstance(files_raw, dict) or not files_raw:
        raise ConfigError("request needs a non-empty 'files' object of name → source")
    files = []
    for name, source in files_raw.items():
        if not isinstance(name, str) or not isinstance(source, str):
            raise ConfigError("'files' entries must map string names to string sources")
        files.append(GoFile(name=name, source=source))
    name = data.get("package") or "pkg"
    if not isinstance(name, str):
        raise ConfigError("'package' must be a string")
    return GoPackage(name=name, files=files)


def request_from_payload(data: Dict[str, Any], kind: Optional[str] = None,
                         default_runs: int = 10) -> ServiceRequest:
    """Parse one wire request (``kind`` may come from the URL or the body)."""
    raw_kind = kind if kind is not None else data.get("kind")
    try:
        parsed_kind = RequestKind(str(raw_kind or "").strip().lower())
    except ValueError:
        valid = ", ".join(k.value for k in RequestKind)
        raise ConfigError(f"unknown request kind {raw_kind!r} (expected {valid})")
    package = package_from_payload(data)
    try:
        runs = int(data.get("runs", default_runs))
        seed = int(data.get("seed", 0))
    except (TypeError, ValueError):
        raise ConfigError("'runs' and 'seed' must be integers")
    cls = DetectRequest if parsed_kind is RequestKind.DETECT else FixRequest
    return cls(package=package, runs=runs, seed=seed).validated()


__all__ = [
    "DetectRequest",
    "FixRequest",
    "RequestKind",
    "ResponseStatus",
    "ServiceRequest",
    "ServiceResponse",
    "config_fingerprint",
    "package_from_payload",
    "request_from_payload",
]
