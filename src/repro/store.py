"""One versioned JSON store: the on-disk format of every persistent cache.

Two layers replay results they computed once: the evaluation run store
(:mod:`repro.evaluation.store`) keeps per-case pipeline results across table
arms and sessions, and the service result cache (:mod:`repro.service.cache`)
keeps served payloads across requests and restarts.  Both persist through a
:class:`JsonStore`, which owns every on-disk decision:

* **layout** — a key maps to ``<root>/<key[:2]>/<key>.json`` (the two-level
  fan-out keeps directories small at scale);
* **envelope** — each file is ``{"version", "key", "payload"}`` with a dict
  payload;
* **misses** — a missing or unreadable file, corrupt JSON, a stale version,
  a mismatched key, a non-dict payload, or a payload the caller cannot decode
  all read as a miss: a bad entry can cost a recomputation, never a wrong
  answer;
* **atomic writes** — each write goes to a temp file named per process and
  per thread, which then replaces the entry (``os.replace``), so concurrent
  writers never collide and readers never observe a torn entry;
* **counters** — hits, misses and writes.

The key carries whatever must partition entries (the callers fold their
configuration fingerprint into it); the version is the caller's format
version, so a serialisation change invalidates old entries.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict


class JsonStore:
    """Versioned JSON entries under one root directory, one file per key."""

    def __init__(self, root: "Path | str", version: int):
        self.root = Path(root)
        # Created up front, so an unusable directory fails at construction
        # rather than on the first write.
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = version
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str,
            decode: Callable[[Dict[str, Any]], Any] = lambda payload: payload) -> Any:
        """``decode(payload)`` of the entry under ``key``, or ``None`` on a miss."""
        value = None
        try:
            envelope = json.loads(self.path(key).read_text())
            if (isinstance(envelope, dict)
                    and envelope.get("version") == self.version
                    and envelope.get("key") == key
                    and isinstance(envelope.get("payload"), dict)):
                value = decode(envelope["payload"])
        except (OSError, ValueError, KeyError, TypeError):
            pass  # unreadable, corrupt, or undecodable: a miss
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically write ``payload`` under ``key``; returns the entry's path."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps({"version": self.version, "key": key, "payload": payload},
                          sort_keys=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        tmp.write_text(text)
        os.replace(tmp, path)
        with self._lock:
            self.writes += 1
        return path

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "writes": self.writes}


__all__ = ["JsonStore"]
