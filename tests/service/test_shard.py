"""Unit and integration tests for the sharded service's supporting pieces:

routing, the persistent result cache (restart survival, corruption
tolerance), construction checks, health/metrics shapes, pidfile
discipline, and the frontend's configurable request timeout.
"""

import os
import re
import threading
from types import SimpleNamespace

import pytest

from repro.core.pipeline import FixOutcome
from repro.errors import ConfigError
from repro.evaluation.runner import CaseResult
from repro.evaluation.store import RunStore
from repro.fingerprint import shard_for
from repro.runtime.harness import GoFile, GoPackage
from repro.service import DetectRequest, DrFixService
from repro.service.cache import CACHE_VERSION, ResultCache
from repro.service.frontend import (
    REQUEST_TIMEOUT_ENV_VAR,
    REQUEST_TIMEOUT_S,
    resolve_request_timeout,
)
from repro.service.pidfile import Pidfile, pid_alive, read_pid, stop_daemon
from repro.store import JsonStore

RACY_SOURCE = """
package main

var total int

func add() {
	total = total + 1
}

func TestRace(t *T) {
	go add()
	go add()
}
"""


def make_package(tag: int) -> GoPackage:
    source = RACY_SOURCE.replace("total", f"total{tag}")
    return GoPackage(name=f"pkg{tag}", files=[GoFile("main.go", source)])


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


class TestShardRouting:
    def test_routing_is_stable_and_in_range(self):
        for tag in range(32):
            fp = DetectRequest(package=make_package(tag)).source_fingerprint()
            for shards in (1, 2, 3, 8):
                bucket = shard_for(fp, shards)
                assert 0 <= bucket < shards
                assert bucket == shard_for(fp, shards)

    def test_routing_spreads_distinct_packages(self):
        buckets = {
            shard_for(DetectRequest(package=make_package(tag)).source_fingerprint(), 4)
            for tag in range(64)
        }
        assert buckets == {0, 1, 2, 3}

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_for("abc", 0)

    def test_same_package_always_lands_on_one_worker(self):
        package = make_package(7)
        service = DrFixService(workers=2, heartbeat_interval_s=0.02)
        try:
            for seed in (1, 2, 3):
                response = service.call(
                    DetectRequest(package=package, runs=2, seed=seed), timeout=60)
                assert response.ok
            served = [w["served"] for w in service.worker_status()]
            assert sorted(served) == [0, 3]
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestShardConstruction:
    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigError):
            DrFixService(workers=-1, start=False)


# ---------------------------------------------------------------------------
# Identical in-flight requests
# ---------------------------------------------------------------------------


class TestIdenticalQueuedRequests:
    def test_queued_duplicate_is_answered_from_the_first_result(self):
        # The delay holds the first request on the worker long enough for
        # the identical second one to queue behind it on the same shard.
        service = DrFixService(workers=1, heartbeat_interval_s=0.02,
                               fault_plan="delay:worker=0:ms=300")
        try:
            first = service.submit(DetectRequest(package=make_package(11), runs=2))
            second = service.submit(DetectRequest(package=make_package(11), runs=2))
            cold, warm = first.result(60), second.result(60)
            assert cold.ok and not cold.cached
            assert warm.ok and warm.cached
            assert warm.payload == cold.payload
            assert warm.payload is not cold.payload
            assert service.worker_status()[0]["served"] == 1
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------


def _persistent_cache(root, capacity: int = 256) -> ResultCache:
    return ResultCache(capacity, JsonStore(root, CACHE_VERSION))


def _shared_case_result(worker: int, index: int) -> CaseResult:
    case = SimpleNamespace(case_id="shared")
    outcome = FixOutcome(bug_hash=f"{worker}-{index}", attempts=[])
    return CaseResult(case=case, outcome=outcome, review=None)


class TestPersistentResultCache:
    def test_round_trip_and_restart_survival(self, tmp_path):
        cache = _persistent_cache(tmp_path / "cache", capacity=4)
        cache.put("abcd", {"x": [1, 2], "y": "z"})
        assert cache.get("abcd") == {"x": [1, 2], "y": "z"}
        # A fresh instance over the same root (a "restarted" service) hits.
        reborn = _persistent_cache(tmp_path / "cache", capacity=4)
        assert reborn.get("abcd") == {"x": [1, 2], "y": "z"}
        assert reborn.store.hits == 1
        # ...and the hit was promoted to memory: no second disk read needed.
        assert reborn.get("abcd") == {"x": [1, 2], "y": "z"}
        assert reborn.store.hits == 1
        assert reborn.hits == 1

    def test_eviction_only_trims_memory_not_disk(self, tmp_path):
        cache = _persistent_cache(tmp_path / "cache", capacity=2)
        for index in range(5):
            cache.put(f"key{index}", {"value": index})
        assert len(cache) == 2                # LRU bound holds in memory
        assert len(list((tmp_path / "cache").glob("*/*.json"))) == 5  # all durable
        assert cache.get("key0") == {"value": 0}  # served from disk

    def test_hit_rate_counts_disk_hits(self, tmp_path):
        cache = _persistent_cache(tmp_path / "cache", capacity=4)
        cache.put("k", {"v": 1})
        reborn = _persistent_cache(tmp_path / "cache", capacity=4)
        assert reborn.get("k") is not None
        assert reborn.get("missing") is None
        assert reborn.hit_rate() == pytest.approx(0.5)
        stats = reborn.stats()
        assert stats["disk_hits"] == 1 and stats["disk_misses"] == 1
        assert stats["disk_writes"] == 0

    @pytest.mark.parametrize("kind", ["result_cache", "run_store"])
    def test_concurrent_writers_never_tear_an_entry(self, tmp_path, kind):
        """Threads of one process rewriting one entry never collide on a
        temp file, and a reader always sees a whole entry."""
        root = tmp_path / "cache"
        if kind == "result_cache":
            cache = _persistent_cache(root, capacity=32)
            write = lambda worker, index: cache.put(
                "shared", {"worker": worker, "index": index})
            read = lambda: _persistent_cache(root).get("shared")
            whole = lambda loaded: set(loaded) == {"worker", "index"}
        else:
            store = RunStore(root, namespace="t")
            write = lambda worker, index: store.save(
                _shared_case_result(worker, index), "fp")
            read = lambda: RunStore(root, namespace="t").load(
                SimpleNamespace(case_id="shared", package=None), "fp")
            whole = lambda loaded: re.fullmatch(r"[0-7]-\d+", loaded.outcome.bug_hash)
        errors = []

        def writer(worker):
            try:
                for index in range(25):
                    write(worker, index)
                    loaded = read()
                    assert loaded is not None and whole(loaded)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_in_process_service_accepts_cache_dir(self, tmp_path):
        package = make_package(3)
        with DrFixService(cache_dir=str(tmp_path / "cache")) as service:
            cold = service.call(DetectRequest(package=package, runs=2), timeout=60)
            assert cold.ok and not cold.cached
        with DrFixService(cache_dir=str(tmp_path / "cache")) as reborn:
            warm = reborn.call(DetectRequest(package=package, runs=2), timeout=60)
            assert warm.ok and warm.cached
            assert warm.payload == cold.payload

    def test_sharded_warm_hits_survive_a_full_restart(self, tmp_path):
        package = make_package(5)
        request = DetectRequest(package=package, runs=2, seed=1)
        first = DrFixService(workers=2, cache_dir=str(tmp_path / "cache"),
                             heartbeat_interval_s=0.02)
        try:
            cold = first.call(request, timeout=60)
            assert cold.ok and not cold.cached
        finally:
            first.shutdown()
        second = DrFixService(workers=2, cache_dir=str(tmp_path / "cache"),
                              heartbeat_interval_s=0.02)
        try:
            warm = second.call(request, timeout=60)
            assert warm.ok and warm.cached
            assert warm.payload == cold.payload
            # The hit never touched a worker.
            assert all(w["served"] == 0 for w in second.worker_status())
        finally:
            second.shutdown()


# ---------------------------------------------------------------------------
# Health and metrics shapes
# ---------------------------------------------------------------------------


class TestObservability:
    def test_sharded_health_reports_every_worker(self):
        service = DrFixService(workers=3, heartbeat_interval_s=0.02)
        try:
            health = service.health()
            assert health["status"] == "ok"
            assert len(health["workers"]) == 3
            for block in health["workers"]:
                assert {"shard", "pid", "state", "incarnation", "served",
                        "restarts", "last_heartbeat_age_s",
                        "queue_depth"} <= set(block)
                assert block["state"] == "ready"
                assert isinstance(block["pid"], int)
        finally:
            service.shutdown()

    def test_sharded_metrics_include_supervisor_counters(self):
        service = DrFixService(workers=2, heartbeat_interval_s=0.02)
        try:
            response = service.call(
                DetectRequest(package=make_package(1), runs=2), timeout=60)
            assert response.ok
            rendered = service.metrics().as_dict()
            supervisor = rendered["supervisor"]
            assert supervisor["workers"] == 2
            assert supervisor["restarts"] == 0
            assert supervisor["retries"] == 0
            assert supervisor["drops"] == 0
            assert len(supervisor["shards"]) == 2
            assert {s["shard"] for s in supervisor["shards"]} == {0, 1}
            assert rendered["served"] == 1
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Pidfile discipline
# ---------------------------------------------------------------------------


class TestPidfile:
    def test_acquire_release_cycle(self, tmp_path):
        path = tmp_path / "drfix.pid"
        with Pidfile(path):
            assert read_pid(path) == os.getpid()
        assert not path.exists()

    def test_double_acquire_refused_while_holder_lives(self, tmp_path):
        path = tmp_path / "drfix.pid"
        with Pidfile(path):
            with pytest.raises(ConfigError, match="already running"):
                Pidfile(path).acquire()

    def test_stale_pidfile_is_broken_and_reacquired(self, tmp_path):
        path = tmp_path / "drfix.pid"
        path.write_text("999999999\n")  # far past any real pid
        with Pidfile(path):
            assert read_pid(path) == os.getpid()

    def test_garbled_pidfile_is_treated_as_stale(self, tmp_path):
        path = tmp_path / "drfix.pid"
        path.write_text("not-a-pid\n")
        with Pidfile(path):
            assert read_pid(path) == os.getpid()

    def test_release_does_not_remove_a_reowned_pidfile(self, tmp_path):
        path = tmp_path / "drfix.pid"
        pidfile = Pidfile(path).acquire()
        path.write_text("424242\n")  # another process took it over
        pidfile.release()
        assert path.exists()

    def test_stop_daemon_errors_without_a_pidfile(self, tmp_path):
        with pytest.raises(ConfigError, match="no pidfile"):
            stop_daemon(tmp_path / "missing.pid")

    def test_stop_daemon_cleans_a_stale_pidfile(self, tmp_path):
        path = tmp_path / "drfix.pid"
        path.write_text("999999999\n")
        with pytest.raises(ConfigError, match="stale"):
            stop_daemon(path)
        assert not path.exists()

    def test_pid_alive_basics(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(-1)
        assert not pid_alive(999999999)


# ---------------------------------------------------------------------------
# Request-timeout configuration
# ---------------------------------------------------------------------------


class TestRequestTimeout:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(REQUEST_TIMEOUT_ENV_VAR, raising=False)
        assert resolve_request_timeout() == REQUEST_TIMEOUT_S

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(REQUEST_TIMEOUT_ENV_VAR, "42.5")
        assert resolve_request_timeout() == 42.5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(REQUEST_TIMEOUT_ENV_VAR, "42.5")
        assert resolve_request_timeout(7.0) == 7.0

    @pytest.mark.parametrize("raw", ["zero", "-3", "0"])
    def test_bad_values_fail_fast(self, monkeypatch, raw):
        monkeypatch.setenv(REQUEST_TIMEOUT_ENV_VAR, raw)
        with pytest.raises(ConfigError):
            resolve_request_timeout()

    def test_explicit_nonpositive_fails(self):
        with pytest.raises(ConfigError):
            resolve_request_timeout(0.0)

    def test_cli_rejects_nonpositive_request_timeout(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--request-timeout", "-1"])
        assert "positive" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Construction validation
# ---------------------------------------------------------------------------


class TestConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"workers": -1},
        {"max_queue_depth": 0},
        {"max_retries": -1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            DrFixService(start=False, **kwargs)

    def test_cache_capacity_still_validated(self):
        with pytest.raises(ValueError):
            ResultCache(0)
