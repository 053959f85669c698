"""The service contract, checked once per mode.

``DrFixService(workers=0)`` runs requests in this process and
``DrFixService(workers=2)`` runs them in worker processes; admission, the
result cache, single flight, metrics and health are one implementation, so
every check here must hold for both.  In worker mode a monkeypatched
``_execute_request`` is not seen in the children, so executions are counted
with ``worker_status()[i]["served"]`` instead.
"""

import sys
import threading

import pytest

import repro.service.core as service_core
from repro.core.config import DrFixConfig
from repro.fingerprint import shard_for
from repro.runtime.harness import GoFile, GoPackage
from repro.service import DetectRequest, DrFixService
from repro.service.requests import ResponseStatus

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

CLEAN_SOURCE = """
package main

func TestClean(t *T) {
	x := 1
	_ = x
}
"""

RUNS = 3
CONFIG = DrFixConfig(model="gpt-4o").validated()
MODES = pytest.mark.parametrize("workers", [0, 2], ids=["in_process", "workers2"])
HEALTH_KEYS = {"status", "workers", "broken_shards", "queue_depth", "in_flight",
               "cache_entries"}


def racy_package(tag: int) -> GoPackage:
    source = RACY_SOURCE.replace("total", f"total{tag}")
    return GoPackage(name=f"pkg{tag}", files=[GoFile("main.go", source)])


def clean_package(tag: int) -> GoPackage:
    return GoPackage(name=f"clean{tag}",
                     files=[GoFile("main.go", CLEAN_SOURCE + f"// {tag}\n")])


def detect(package: GoPackage) -> DetectRequest:
    return DetectRequest(package=package, runs=RUNS, seed=1)


def on_lane(lane: int, workers: int, count: int) -> list:
    """``count`` distinct racy packages that all queue on ``lane``."""
    found = [racy_package(tag) for tag in range(512)
             if shard_for(detect(racy_package(tag)).source_fingerprint(),
                          max(1, workers)) == lane]
    assert len(found) >= count
    return found[:count]


def service_for(workers: int, **overrides) -> DrFixService:
    options = dict(workers=workers, heartbeat_interval_s=0.02)
    options.update(overrides)
    return DrFixService(CONFIG, **options)


@MODES
def test_warm_repeat_is_cached(workers):
    service = service_for(workers)
    try:
        cold = service.call(detect(racy_package(1)), timeout=60)
        warm = service.call(detect(racy_package(1)), timeout=60)
        assert cold.ok and not cold.cached
        assert warm.ok and warm.cached
        assert warm.payload == cold.payload
        metrics = service.metrics()
        assert (metrics.cache_hits, metrics.cache_misses) == (1, 1)
        # The warm hit never reached a worker.
        assert sum(block["served"] for block in service.worker_status()) == (
            1 if workers else 0)
    finally:
        service.shutdown()


@MODES
def test_identical_submissions_run_once(workers, monkeypatch):
    executions = []
    real = service_core._execute_request

    def counting(config, database, request):
        executions.append(request.source_fingerprint())
        return real(config, database, request)

    monkeypatch.setattr(service_core, "_execute_request", counting)
    service = service_for(workers, max_in_flight=8, start=False)
    tickets = [service.submit(detect(racy_package(2))) for _ in range(5)]
    tickets.append(service.submit(detect(clean_package(2))))
    service.start()
    responses = [ticket.result(timeout=60) for ticket in tickets]
    served = sum(block["served"] for block in service.worker_status())
    service.shutdown()
    assert all(response.ok for response in responses)
    # Six requests, two keys, two executions.
    assert (served if workers else len(executions)) == 2
    payloads = [response.payload for response in responses[:5]]
    assert all(payload == payloads[0] for payload in payloads)
    assert [response.cached for response in responses[:5]] == [False] + [True] * 4
    metrics = service.metrics()
    assert metrics.submitted == metrics.served == 6


@MODES
def test_concurrent_clients_run_each_key_once(workers, monkeypatch):
    # More client threads than cores, switching often: a lost update to the
    # single-flight table or the cache would run some key twice.
    executions = []
    real = service_core._execute_request

    def counting(config, database, request):
        executions.append(request.source_fingerprint())
        return real(config, database, request)

    monkeypatch.setattr(service_core, "_execute_request", counting)
    packages = [racy_package(10 + index) for index in range(4)]
    responses = []
    lock = threading.Lock()

    def client(index: int) -> None:
        for step in range(10):
            response = service.call(detect(packages[(index + step) % 4]), timeout=60)
            with lock:
                responses.append(response)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    service = service_for(workers)
    try:
        threads = [threading.Thread(target=client, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        served = sum(block["served"] for block in service.worker_status())
    finally:
        sys.setswitchinterval(previous)
        service.shutdown()
    assert len(responses) == 80 and all(response.ok for response in responses)
    assert (served if workers else len(executions)) == 4
    assert sum(1 for response in responses if not response.cached) == 4
    metrics = service.metrics()
    assert metrics.submitted == metrics.served == 80
    assert (metrics.cache_hits, metrics.cache_misses) == (76, 4)


@MODES
def test_payloads_never_alias(workers):
    service = service_for(workers, start=False)
    tickets = [service.submit(detect(clean_package(3))) for _ in range(3)]
    service.start()
    responses = [ticket.result(timeout=60) for ticket in tickets]
    warm = service.call(detect(clean_package(3)), timeout=60)
    service.shutdown()
    reference = [dict(response.payload) for response in responses]
    responses[0].payload["race_hashes"].append("tampered")
    responses[0].payload["summary"] = "tampered"
    assert responses[1].payload == reference[1]
    assert responses[2].payload == reference[2]
    assert warm.payload == reference[1]


@MODES
def test_full_lane_answers_overloaded(workers):
    service = service_for(workers, max_queue_depth=3, start=False)
    *admitted_packages, over = on_lane(0, workers, 4)
    admitted = [service.submit(detect(package)) for package in admitted_packages]
    rejected = [service.submit(detect(over)) for _ in range(2)]
    for ticket in rejected:
        assert ticket.done()
        response = ticket.result(timeout=0)
        assert response.status is ResponseStatus.OVERLOADED
        assert "queue full (3/3 queued, 0 in flight)" in response.detail
        assert response.payload == {}
    assert not any(ticket.done() for ticket in admitted)
    service.start()
    assert all(ticket.result(timeout=60).ok for ticket in admitted)
    service.shutdown()
    metrics = service.metrics()
    assert (metrics.submitted, metrics.served, metrics.rejected) == (5, 3, 2)


@MODES
def test_submit_after_shutdown_is_overloaded(workers):
    service = service_for(workers)
    service.shutdown()
    response = service.call(detect(racy_package(4)), timeout=5)
    assert response.status is ResponseStatus.OVERLOADED
    assert "shut down" in response.detail


@MODES
def test_health_has_one_shape(workers):
    service = service_for(workers)
    try:
        health = service.health()
        assert set(health) == HEALTH_KEYS
        assert health["status"] == "ok"
        assert len(health["workers"]) == workers
        assert health["broken_shards"] == 0
    finally:
        service.shutdown()
    assert service.health()["status"] == "draining"


@pytest.mark.parametrize("cold_workers,warm_workers", [(0, 2), (2, 0)])
def test_cache_dir_is_shared_across_modes(tmp_path, cold_workers, warm_workers):
    # One config fingerprint, one keying: a payload one mode computed is a
    # warm hit for the other over the same --cache-dir.
    first = service_for(cold_workers, cache_dir=str(tmp_path))
    second = service_for(warm_workers, cache_dir=str(tmp_path))
    try:
        assert first.config_fp == second.config_fp
        cold = first.call(detect(racy_package(5)), timeout=60)
        warm = second.call(detect(racy_package(5)), timeout=60)
        assert cold.ok and not cold.cached
        assert warm.ok and warm.cached
        assert warm.payload == cold.payload
    finally:
        first.shutdown()
        second.shutdown()
