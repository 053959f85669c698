"""Service observability: counters, latency percentiles, throughput.

:class:`MetricsRecorder` is the service's internal, lock-guarded accumulator;
:class:`ServiceMetrics` is the immutable snapshot handed to callers (the
``/metrics`` HTTP endpoint, the stdio ``metrics`` command, and the load
benchmark all render it).  Latencies are kept in a bounded window so a
long-running service's memory stays flat under sustained traffic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def latency_percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a latency sample set (0.0 when empty).

    Takes the fraction as 0..1.  Deliberately named apart from
    :func:`repro.evaluation.metrics.percentile` (0..100, linear
    interpolation, the Table 7 convention) so the two conventions can never
    be swapped silently.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass(frozen=True)
class ServiceMetrics:
    """One immutable snapshot of the service's counters."""

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    errors: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    queue_depth: int = 0
    in_flight: int = 0
    batches: int = 0
    batched_requests: int = 0
    p50_latency_ms: float = 0.0
    p95_latency_ms: float = 0.0
    throughput_rps: float = 0.0
    uptime_seconds: float = 0.0
    #: This process's program cache, as
    #: :meth:`repro.runtime.compiler.ProgramCache.stats` returns it: build
    #: ``entries``/``capacity``, ``hits``/``misses``, ``evictions``,
    #: ``singleflight_waits``, ``probationary`` builds and ``readmissions``,
    #: and the shared parse cache's ``parse_hits``/``parse_misses``/
    #: ``parse_entries``.  With ``workers > 0`` it is the master's own cache,
    #: not the worker processes' (which do the builds).
    program_cache: Dict[str, int] = field(default_factory=dict)
    #: Worker-process supervision counters (restarts, retries, breaker trips,
    #: per-shard queue depth) — empty with ``workers=0``.
    supervisor: Dict[str, Any] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": self.rejected,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "p50_latency_ms": round(self.p50_latency_ms, 3),
            "p95_latency_ms": round(self.p95_latency_ms, 3),
            "throughput_rps": round(self.throughput_rps, 3),
            "uptime_seconds": round(self.uptime_seconds, 3),
            "program_cache": dict(self.program_cache),
            "supervisor": dict(self.supervisor),
        }

    def render(self) -> str:
        return (
            f"served {self.served}/{self.submitted} "
            f"(rejected {self.rejected}, errors {self.errors}), "
            f"cache hit rate {self.cache_hit_rate:.0%}, "
            f"p50 {self.p50_latency_ms:.1f} ms, p95 {self.p95_latency_ms:.1f} ms, "
            f"{self.throughput_rps:.2f} req/s"
        )


@dataclass
class MetricsRecorder:
    """Thread-safe accumulator behind :class:`ServiceMetrics` snapshots."""

    latency_window: int = 4096
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        self.started_at = time.monotonic()
        self.submitted = 0
        self.served = 0
        self.rejected = 0
        self.errors = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.batches = 0
        self.batched_requests = 0
        self._latencies_ms: deque = deque(maxlen=self.latency_window)

    # ------------------------------------------------------------------

    def on_submit(self) -> None:
        with self._lock:
            self.submitted += 1

    def on_reject(self) -> None:
        with self._lock:
            self.submitted += 1
            self.rejected += 1

    def on_drop(self) -> None:
        """An already-admitted request resolved as rejected (shutdown drain);
        ``submitted`` was counted at admission, so only ``rejected`` moves."""
        with self._lock:
            self.rejected += 1

    def on_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size

    def on_served(self, latency_ms: float, cached: bool, error: bool = False) -> None:
        with self._lock:
            self.served += 1
            if error:
                self.errors += 1
            elif cached:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            self._latencies_ms.append(latency_ms)

    # ------------------------------------------------------------------

    def snapshot(self, queue_depth: int = 0, in_flight: int = 0,
                 supervisor: Optional[Dict[str, Any]] = None) -> ServiceMetrics:
        # Imported lazily: the metrics module must stay importable without
        # pulling the whole runtime stack in (and vice versa).
        from repro.runtime.compiler import PROGRAM_CACHE

        program_cache = PROGRAM_CACHE.stats()
        with self._lock:
            latencies: List[float] = list(self._latencies_ms)
            uptime = time.monotonic() - self.started_at
            return ServiceMetrics(
                submitted=self.submitted,
                served=self.served,
                rejected=self.rejected,
                errors=self.errors,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                queue_depth=queue_depth,
                in_flight=in_flight,
                batches=self.batches,
                batched_requests=self.batched_requests,
                p50_latency_ms=latency_percentile(latencies, 0.50),
                p95_latency_ms=latency_percentile(latencies, 0.95),
                throughput_rps=self.served / uptime if uptime > 0 else 0.0,
                uptime_seconds=uptime,
                program_cache=program_cache,
                supervisor=supervisor or {},
            )


__all__ = ["MetricsRecorder", "ServiceMetrics", "latency_percentile"]
