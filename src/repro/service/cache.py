"""Fingerprint-keyed result cache for the serving layer.

:class:`ResultCache` is a bounded, thread-safe in-memory LRU mapping a
request's cache key (source fingerprint × config fingerprint × request knobs,
see :meth:`repro.service.requests.ServiceRequest.cache_key`) to the
deterministic response payload.  Safe by construction: the differential test
proves a served payload is bit-identical to a direct invocation, so replaying
a stored payload for an identical key cannot change any observable result —
only its latency.

With a :class:`~repro.store.JsonStore` attached (``drfix serve --cache-dir``)
every ``put`` writes through to disk, and a memory miss falls back to the
store before declaring a true miss, promoting a disk hit into memory.  This
is what makes warm hits survive a full service restart and lets every worker
process share one warm set — the service probes the cache at submit, so a
payload computed once is never recomputed by any worker.
The key already folds in the config fingerprint, so one directory can be
shared by services running different configurations.

Entries are deep-copied on both ``put`` and ``get`` so callers can never
mutate a cached payload in place (the HTTP frontend, the stdio frontend, and
programmatic clients all receive private copies).
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.store import JsonStore

#: The on-disk entry format version: bump when the payload shape changes, so
#: old files stop validating and count as misses.
CACHE_VERSION = 1


class ResultCache:
    """Bounded LRU of served payloads keyed by request fingerprint,
    optionally written through to an on-disk store."""

    def __init__(self, capacity: int = 256, store: Optional[JsonStore] = None):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.store = store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key`` (a private copy), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
                if self.store is None:
                    return None
        if entry is None:
            # Disk I/O outside the lock; the parsed payload is private, so
            # it can go into memory as is.
            entry = self.store.get(key)
            if entry is None:
                return None
            self._remember(key, entry)
        # Copy outside the lock: entries are never mutated in place (put()
        # stores a private copy), so concurrent lookups need not serialize
        # behind a potentially large deep copy.
        return copy.deepcopy(entry)

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store a payload (copied), evicting the least-recently-used entry."""
        self._remember(key, copy.deepcopy(payload))
        if self.store is not None:
            self.store.put(key, payload)

    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    # ------------------------------------------------------------------

    def hit_rate(self) -> float:
        """Effective hit rate: a disk hit is a hit (it skipped the workers)."""
        disk_hits = self.store.hits if self.store is not None else 0
        with self._lock:
            total = self.hits + self.misses
            return (self.hits + disk_hits) / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = {
                "memory_entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
        if self.store is not None:
            stats.update({f"disk_{name}": count
                          for name, count in self.store.stats().items()})
        return stats


__all__ = ["CACHE_VERSION", "ResultCache"]
