"""The one on-disk store's contract, and its two users' view of it.

:class:`~repro.store.JsonStore` decides the layout, the envelope, what reads
as a miss, and how a write lands; the evaluation run store and the service
result cache only choose keys, versions and payloads.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.pipeline import FixOutcome
from repro.evaluation.runner import CaseResult
from repro.evaluation.store import STORE_VERSION, RunStore
from repro.service.cache import CACHE_VERSION, ResultCache
from repro.store import JsonStore

KEY = "abcdef0123"
PAYLOAD = {"x": [1, 2], "y": "z"}


def _write(store: JsonStore, key: str, text: str) -> None:
    path = store.path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _envelope(**overrides) -> str:
    envelope = {"version": 1, "key": KEY, "payload": PAYLOAD}
    envelope.update(overrides)
    return json.dumps(envelope)


class TestMissRule:
    def test_missing_file_is_a_miss(self, tmp_path):
        store = JsonStore(tmp_path, version=1)
        assert store.get(KEY) is None
        assert (store.hits, store.misses) == (0, 1)

    @pytest.mark.parametrize("text", [
        "{not json",
        "[1, 2]",
        _envelope(version=2),
        _envelope(version=None),
        _envelope(key="otherkey"),
        _envelope(payload=[1, 2]),
        _envelope(payload=None),
    ], ids=["corrupt-json", "not-a-dict", "stale-version", "no-version",
            "wrong-key", "list-payload", "null-payload"])
    def test_bad_entry_is_a_miss(self, tmp_path, text):
        store = JsonStore(tmp_path, version=1)
        _write(store, KEY, text)
        assert store.get(KEY) is None
        assert (store.hits, store.misses) == (0, 1)

    def test_undecodable_payload_is_a_miss(self, tmp_path):
        store = JsonStore(tmp_path, version=1)
        store.put(KEY, PAYLOAD)
        assert store.get(KEY, decode=lambda payload: payload["missing"]) is None
        assert (store.hits, store.misses) == (0, 1)


class TestEntries:
    def test_round_trip_across_instances(self, tmp_path):
        JsonStore(tmp_path, version=1).put(KEY, PAYLOAD)
        reborn = JsonStore(tmp_path, version=1)
        assert reborn.get(KEY) == PAYLOAD
        assert reborn.get(KEY, decode=lambda payload: payload["y"]) == "z"
        # A format bump invalidates every entry written before it.
        assert JsonStore(tmp_path, version=2).get(KEY) is None

    def test_layout_and_envelope(self, tmp_path):
        path = JsonStore(tmp_path, version=1).put(KEY, PAYLOAD)
        assert path == tmp_path / KEY[:2] / f"{KEY}.json"
        assert json.loads(path.read_text()) == {
            "version": 1, "key": KEY, "payload": PAYLOAD}
        assert [p.name for p in tmp_path.rglob("*")] == [KEY[:2], path.name]

    def test_counters(self, tmp_path):
        store = JsonStore(tmp_path, version=1)
        for index in range(3):
            store.put(f"key{index}", {"index": index})
        store.put("key0", {"index": 0})
        assert store.get("key0") == {"index": 0}
        assert store.get("key2") == {"index": 2}
        assert store.get("absent") is None
        assert store.stats() == {"hits": 2, "misses": 1, "writes": 4}
        assert len(list(tmp_path.glob("*/*.json"))) == 3

    def test_entry_in_the_earlier_service_format_is_a_hit(self, tmp_path):
        """A file as ``drfix serve --cache-dir`` wrote it before the store
        was shared still gives a warm hit."""
        key = "9f" + "0" * 38
        payload = {"package": "main", "passed": False, "race_hashes": ["h1"]}
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(
            {"version": CACHE_VERSION, "key": key, "payload": payload}, sort_keys=True))
        cache = ResultCache(4, JsonStore(tmp_path, CACHE_VERSION))
        assert cache.get(key) == payload
        assert cache.stats()["disk_hits"] == 1


class TestUsers:
    def test_result_cache_counts_bad_files_as_disk_misses(self, tmp_path):
        root = tmp_path / "cache"
        ResultCache(4, JsonStore(root, CACHE_VERSION)).put("goodkey", {"ok": True})
        path = root / "go" / "goodkey.json"
        assert path.exists()
        fresh = ResultCache(4, JsonStore(root, CACHE_VERSION))
        path.write_text("{not json")
        assert fresh.get("goodkey") is None
        path.write_text(json.dumps({
            "version": CACHE_VERSION + 1, "key": "goodkey", "payload": {"ok": True}}))
        assert fresh.get("goodkey") is None
        path.write_text(json.dumps({
            "version": CACHE_VERSION, "key": "otherkey", "payload": {"ok": True}}))
        assert fresh.get("goodkey") is None
        assert fresh.stats()["disk_misses"] == 3
        assert fresh.misses == 3 and fresh.hits == 0

    def test_run_store_corrupt_and_stale_entries_are_misses(self, tmp_path):
        case = SimpleNamespace(case_id="case-1", package=None)
        result = CaseResult(case=case, outcome=FixOutcome(bug_hash="h"))
        store = RunStore(tmp_path, namespace="t")
        path = store.save(result, "fp")
        assert path.is_relative_to(tmp_path / "t")
        assert store.load(case, "fp").outcome.bug_hash == "h"
        assert store.load(case, "other-fp") is None
        envelope = json.loads(path.read_text())
        path.write_text("{ not json")
        assert store.load(case, "fp") is None
        envelope["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(envelope))
        assert store.load(case, "fp") is None
        envelope["version"] = STORE_VERSION
        envelope["payload"] = {"reproduced": True}   # no outcome: undecodable
        path.write_text(json.dumps(envelope))
        assert store.load(case, "fp") is None
        assert (store.hits, store.misses) == (1, 4)
