"""Stdlib-only frontends for :class:`~repro.service.core.DrFixService`.

Two transports, zero dependencies:

* **JSON over HTTP** (:class:`ServiceHTTPServer`, ``http.server``):

  * ``POST /detect`` and ``POST /fix`` — body ``{"package": name, "files":
    {name: source}, "runs": N, "seed": S}``; the response is the
    :class:`~repro.service.requests.ServiceResponse` wire form.  An
    ``overloaded`` response maps to HTTP 503 (with a ``Retry-After`` header),
    a malformed request to 400, an execution error to 500 — the JSON body is
    authoritative either way;
  * ``GET /metrics`` — the :class:`~repro.service.metrics.ServiceMetrics`
    snapshot; ``GET /healthz`` — liveness plus queue depth.

* **Line-delimited JSON over stdio** (:func:`serve_stdio`): one request
  object per line (``{"kind": "detect", "files": …}``), one response object
  per line, in order.  ``{"kind": "metrics"}`` returns the snapshot;
  ``{"kind": "shutdown"}`` (or EOF) ends the session.  This is the transport
  for driving the service from another process without opening a port.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, IO, Optional, Tuple

from repro.errors import ConfigError, ReproError
from repro.service.core import DrFixService
from repro.service.requests import ResponseStatus, request_from_payload

#: Ceiling on one request body; a serving layer must bound what it buffers.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: How long a frontend waits for the service to answer one request (default;
#: override with ``--request-timeout`` or the environment variable below).
REQUEST_TIMEOUT_S = 600.0
#: Environment override for the frontend request timeout, in seconds.
REQUEST_TIMEOUT_ENV_VAR = "DRFIX_REQUEST_TIMEOUT"


def resolve_request_timeout(explicit: Optional[float] = None) -> float:
    """The frontend request timeout: explicit flag > environment > default.

    Fails fast with :class:`ConfigError` on a malformed or non-positive
    value — a serving process must not come up with a timeout it will never
    honor.
    """
    if explicit is not None:
        value = explicit
    else:
        raw = os.environ.get(REQUEST_TIMEOUT_ENV_VAR, "").strip()
        if not raw:
            return REQUEST_TIMEOUT_S
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"{REQUEST_TIMEOUT_ENV_VAR} must be a number of seconds, "
                f"got {raw!r}")
    if not value > 0:
        raise ConfigError(f"request timeout must be positive, got {value}")
    return value


def _status_code(status: ResponseStatus) -> int:
    if status is ResponseStatus.OK:
        return 200
    if status is ResponseStatus.OVERLOADED:
        return 503
    return 500


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange; the service lives on the server object."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - log formatting only
            super().log_message(format, *args)

    def _write_json(self, code: int, payload: Dict[str, Any],
                    headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ConfigError("Content-Length must be an integer")
        if length <= 0:
            raise ConfigError("request body required")
        if length > MAX_BODY_BYTES:
            raise ConfigError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ConfigError("request body is not valid JSON")
        if not isinstance(data, dict):
            raise ConfigError("request body must be a JSON object")
        return data

    # -- routes --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        service = self.server.service
        if self.path == "/metrics":
            self._write_json(200, service.metrics().as_dict())
        elif self.path == "/healthz":
            health = service.health()
            # A draining server is alive but no longer admits work: 503 tells
            # a load balancer to stop routing here while the drain finishes.
            code = 503 if health.get("status") == "draining" else 200
            self._write_json(code, health)
        else:
            self._write_json(404, {"error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        kind = self.path.lstrip("/")
        if kind not in ("detect", "fix"):
            self._write_json(404, {"error": f"no such endpoint: {self.path}"})
            return
        try:
            data = self._read_body()
            request = request_from_payload(
                data, kind=kind, default_runs=self.server.default_runs)
        except ReproError as exc:
            # The body may be partly (or not at all) read at this point, so a
            # keep-alive connection would desync on the leftover bytes —
            # close it after the error response.
            self.close_connection = True
            self._write_json(400, {"error": str(exc)},
                             headers={"Connection": "close"})
            return
        try:
            response = self.server.service.call(
                request, timeout=self.server.request_timeout)
        except TimeoutError:
            # The request stays queued and will still be executed (warming
            # the cache); the client gets a structured timeout, not a
            # dropped socket.
            self._write_json(504, {
                "status": "error",
                "error": f"request not served within {self.server.request_timeout} s",
            })
            return
        headers = {"Retry-After": "1"} if response.status is ResponseStatus.OVERLOADED else None
        self._write_json(_status_code(response.status), response.as_dict(), headers)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP frontend bound to one service.

    ``service`` is a :class:`DrFixService` with or without worker
    processes; the frontend only carries its submit/call/metrics/health
    protocol.  Threaded so that slow cold requests never head-of-line-block
    the ``/metrics`` and ``/healthz`` probes; actual work still funnels
    through the service's bounded lanes, so concurrency stays
    admission-controlled.
    """

    daemon_threads = True

    def __init__(self, service: DrFixService, address: Tuple[str, int] = ("127.0.0.1", 0),
                 verbose: bool = False, request_timeout: float = REQUEST_TIMEOUT_S,
                 default_runs: int = 10):
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose
        self.request_timeout = request_timeout
        self.default_runs = default_runs

    @property
    def port(self) -> int:
        return self.server_address[1]

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (used by tests/benchmarks)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="drfix-service-http", daemon=True)
        thread.start()
        return thread


# ---------------------------------------------------------------------------
# Stdio transport
# ---------------------------------------------------------------------------


def handle_stdio_line(service: DrFixService, line: str,
                      timeout: float = REQUEST_TIMEOUT_S,
                      default_runs: int = 10) -> Optional[Dict[str, Any]]:
    """Serve one line-delimited JSON request; ``None`` means shut down."""
    text = line.strip()
    if not text:
        return {}
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("each request line must be a JSON object")
        kind = str(data.get("kind") or "").strip().lower()
        if kind == "shutdown":
            return None
        if kind == "metrics":
            return {"kind": "metrics", "status": "ok",
                    "payload": service.metrics().as_dict()}
        request = request_from_payload(data, default_runs=default_runs)
    except (ReproError, ValueError) as exc:
        return {"status": "error", "error": str(exc)}
    try:
        return service.call(request, timeout=timeout).as_dict()
    except TimeoutError as exc:
        # A structured error line; the stdio session itself survives.
        return {"status": "error", "error": str(exc)}


def serve_stdio(service: DrFixService, stdin: IO[str], stdout: IO[str],
                timeout: float = REQUEST_TIMEOUT_S, default_runs: int = 10) -> int:
    """Serve line-delimited JSON until EOF or ``shutdown``; returns lines served."""
    served = 0
    for line in stdin:
        result = handle_stdio_line(service, line, timeout=timeout,
                                   default_runs=default_runs)
        if result is None:
            break
        if not result:  # blank line
            continue
        stdout.write(json.dumps(result) + "\n")
        stdout.flush()
        served += 1
    return served


__all__ = [
    "MAX_BODY_BYTES",
    "REQUEST_TIMEOUT_ENV_VAR",
    "REQUEST_TIMEOUT_S",
    "ServiceHTTPServer",
    "handle_stdio_line",
    "resolve_request_timeout",
    "serve_stdio",
]
