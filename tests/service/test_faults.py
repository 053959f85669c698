"""Fault-injection tests for the sharded serving layer.

Every scenario here drives the real multi-process service through the
deterministic ``DRFIX_FAULT_PLAN`` hook (:mod:`repro.service.faults`) and
asserts the robustness contract of the supervisor:

* a worker killed mid-request is restarted and the request retried — and the
  retried response is **bit-identical** to a direct in-process invocation;
* a crash-looping worker trips the circuit breaker: its shard answers
  ``worker_failed`` structurally, other shards keep serving, the master
  never wedges;
* a graceful drain never drops an admitted request;
* a flood aimed at a dead shard is answered with ``overloaded`` (or
  ``worker_failed``), never a hang.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core.config import DrFixConfig
from repro.errors import ConfigError
from repro.fingerprint import shard_for
from repro.runtime.harness import GoFile, GoPackage
from repro.service import DetectRequest, DrFixService
from repro.service.core import _execute_request
from repro.service.faults import CRASH_EXIT_CODE, KILL_EXIT_CODE, FaultPlan
from repro.service.requests import ResponseStatus

RACY_SOURCE = """
package main

var counter int

func bump() {
	counter = counter + 1
}

func TestRace(t *T) {
	go bump()
	go bump()
}
"""

RUNS = 3
CONFIG = DrFixConfig(model="gpt-4o").validated()


def make_package(tag: int) -> GoPackage:
    """A distinct racy package per tag (distinct source fingerprints)."""
    source = RACY_SOURCE.replace("counter", f"counter{tag}")
    return GoPackage(name=f"racer{tag}", files=[GoFile("main.go", source)])


def package_for_shard(shard: int, workers: int, start: int = 0) -> GoPackage:
    """The first tagged package (from ``start``) that routes to ``shard``."""
    for tag in range(start, start + 512):
        package = make_package(tag)
        request = DetectRequest(package=package, runs=RUNS, seed=1)
        if shard_for(request.source_fingerprint(), workers) == shard:
            return package
    raise AssertionError("no package found for shard")  # pragma: no cover


def direct_payload(package: GoPackage) -> dict:
    """The reference payload: exactly what a worker process computes."""
    payload, detail = _execute_request(
        CONFIG, None, DetectRequest(package=package, runs=RUNS, seed=1))
    assert payload is not None, detail
    return payload


def fast_service(**overrides) -> DrFixService:
    defaults = dict(
        config=CONFIG,
        workers=2,
        heartbeat_interval_s=0.02,
        restart_backoff_s=0.01,
        restart_backoff_cap_s=0.05,
        drain_timeout_s=30.0,
    )
    defaults.update(overrides)
    return DrFixService(**defaults)


# ---------------------------------------------------------------------------
# Fault-plan parsing
# ---------------------------------------------------------------------------


class TestFaultPlanParsing:
    def test_parses_multi_clause_plans(self):
        plan = FaultPlan.parse(
            "kill:worker=1:after=3;delay:point=respond:ms=25;"
            "crash:worker=any:incarnation=any")
        assert len(plan.clauses) == 3
        kill, delay, crash = plan.clauses
        assert (kill.action, kill.worker, kill.after) == ("kill", 1, 3)
        assert (delay.point, delay.ms) == ("respond", 25.0)
        assert crash.worker is None and crash.incarnation is None

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan.parse("")
        assert FaultPlan.parse("kill")

    @pytest.mark.parametrize("spec", [
        "explode",                    # unknown action
        "kill:when=now",              # unknown field
        "kill:worker=x",              # non-integer worker
        "kill:after=0",               # request counts are 1-based
        "delay:point=middle",         # unknown point
        "kill:worker=",               # empty value
    ])
    def test_malformed_plans_fail_fast(self, spec):
        with pytest.raises(ConfigError):
            FaultPlan.parse(spec)

    def test_env_resolution_prefers_explicit(self, monkeypatch):
        monkeypatch.setenv("DRFIX_FAULT_PLAN", "kill:worker=0")
        assert FaultPlan.resolve("delay:ms=1").clauses[0].action == "delay"
        assert FaultPlan.resolve(None).clauses[0].action == "kill"
        monkeypatch.delenv("DRFIX_FAULT_PLAN")
        assert not FaultPlan.resolve(None)


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_kill_at_receive_is_retried_bit_identically(self):
        package = package_for_shard(1, 2)
        reference = direct_payload(package)
        service = fast_service(fault_plan="kill:worker=1:after=1:point=receive")
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.status is ResponseStatus.OK
            assert response.payload == reference
            assert (json.dumps(response.payload, sort_keys=True)
                    == json.dumps(reference, sort_keys=True))
            stats = service.supervisor_stats()
            assert stats["worker_deaths"] == 1
            assert stats["retries"] == 1
            assert stats["restarts"] == 1
            workers = service.worker_status()
            assert workers[1]["incarnation"] == 1
            assert workers[1]["last_exit_code"] == KILL_EXIT_CODE
        finally:
            service.shutdown()

    def test_kill_after_compute_is_retried_bit_identically(self):
        # point=respond kills after the payload is computed but before it is
        # sent: the master must notice the death and recompute.
        package = package_for_shard(0, 2)
        reference = direct_payload(package)
        service = fast_service(fault_plan="kill:worker=0:after=1:point=respond")
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.status is ResponseStatus.OK
            assert response.payload == reference
            assert service.supervisor_stats()["retries"] == 1
        finally:
            service.shutdown()

    def test_crash_exit_is_recovered_like_a_kill(self):
        package = package_for_shard(0, 2)
        service = fast_service(fault_plan="crash:worker=0:after=1")
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.ok
            assert service.worker_status()[0]["last_exit_code"] == CRASH_EXIT_CODE
        finally:
            service.shutdown()

    def test_wedged_worker_is_liveness_killed_and_request_retried(self):
        package = package_for_shard(1, 2)
        reference = direct_payload(package)
        service = fast_service(
            fault_plan="wedge:worker=1:after=1",
            liveness_deadline_s=0.3,
        )
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.ok
            assert response.payload == reference
            stats = service.supervisor_stats()
            assert stats["liveness_kills"] == 1
            assert stats["retries"] == 1
        finally:
            service.shutdown()

    def test_delay_fault_only_slows_the_response(self):
        package = package_for_shard(0, 2)
        reference = direct_payload(package)
        service = fast_service(fault_plan="delay:worker=0:after=1:ms=40")
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.ok
            assert response.payload == reference
            assert service.supervisor_stats()["worker_deaths"] == 0
        finally:
            service.shutdown()

    def test_healthy_shard_keeps_serving_while_sibling_crash_loops(self):
        broken_pkg = package_for_shard(0, 2)
        healthy_pkg = package_for_shard(1, 2)
        reference = direct_payload(healthy_pkg)
        service = fast_service(
            fault_plan="kill:worker=0:incarnation=any:after=1",
            max_retries=1,
            breaker_threshold=100,
        )
        try:
            broken = service.submit(
                DetectRequest(package=broken_pkg, runs=RUNS, seed=1))
            healthy = service.call(
                DetectRequest(package=healthy_pkg, runs=RUNS, seed=1), timeout=60)
            assert healthy.ok and healthy.payload == reference
            failed = broken.result(timeout=60)
            assert failed.status is ResponseStatus.WORKER_FAILED
            assert "died" in failed.detail
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_crash_loop_trips_breaker_without_wedging_the_master(self):
        package = package_for_shard(0, 2)
        service = fast_service(
            fault_plan="kill:worker=0:incarnation=any:after=1",
            max_retries=10,          # retries alone never give up...
            breaker_threshold=3,     # ...the breaker does.
        )
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.status is ResponseStatus.WORKER_FAILED
            assert "circuit breaker" in response.detail or "crash-looping" in response.detail
            stats = service.supervisor_stats()
            assert stats["breaker_trips"] == 1
            assert stats["worker_deaths"] == 3
            assert service.worker_status()[0]["state"] == "broken"
            # The broken shard now fails fast; the master still answers.
            after = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=10)
            assert after.status is ResponseStatus.WORKER_FAILED
            # And the healthy shard still serves.
            healthy = service.call(
                DetectRequest(package=package_for_shard(1, 2), runs=RUNS, seed=1),
                timeout=60)
            assert healthy.ok
            assert service.health()["status"] == "degraded"
        finally:
            service.shutdown()

    def test_success_resets_the_failure_streak(self):
        package = package_for_shard(0, 2)
        # Kill incarnations 0 and 1 on their first request; incarnation 2
        # succeeds — consecutive_failures must reset to 0, not trip at 3.
        service = fast_service(
            fault_plan="kill:worker=0:incarnation=0:after=1;"
                       "kill:worker=0:incarnation=1:after=1",
            max_retries=5,
            breaker_threshold=3,
        )
        try:
            response = service.call(
                DetectRequest(package=package, runs=RUNS, seed=1), timeout=60)
            assert response.ok
            status = service.worker_status()[0]
            assert status["consecutive_failures"] == 0
            assert status["incarnation"] == 2
            assert service.supervisor_stats()["breaker_trips"] == 0
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# Drain and backpressure
# ---------------------------------------------------------------------------


class TestDrainAndBackpressure:
    def test_drain_never_drops_an_admitted_request(self):
        service = fast_service(workers=2, max_queue_depth=32)
        tickets = []
        try:
            for tag in range(6):
                tickets.append(service.submit(
                    DetectRequest(package=make_package(tag), runs=RUNS, seed=1)))
            service.begin_drain()
            late = service.submit(
                DetectRequest(package=make_package(99), runs=RUNS, seed=1))
            assert late.result(5).status is ResponseStatus.OVERLOADED
        finally:
            service.shutdown()
        for ticket in tickets:
            response = ticket.result(timeout=5)
            assert response.status is ResponseStatus.OK, response.detail
        assert service.health()["status"] == "draining"

    def test_drain_completes_in_flight_work_through_a_crash(self):
        package = package_for_shard(0, 2)
        service = fast_service(fault_plan="kill:worker=0:after=1")
        ticket = service.submit(DetectRequest(package=package, runs=RUNS, seed=1))
        service.shutdown()  # drains: the retry must still happen
        response = ticket.result(timeout=5)
        assert response.status is ResponseStatus.OK
        assert response.payload == direct_payload(package)

    def test_drain_deadline_answers_leftovers_and_counts_them_once(self):
        package = package_for_shard(0, 2)
        service = fast_service(fault_plan="delay:worker=0:after=1:ms=1000",
                               drain_timeout_s=0.2)
        ticket = service.submit(DetectRequest(package=package, runs=RUNS, seed=1))
        service.shutdown()
        response = ticket.result(timeout=5)
        assert response.status is ResponseStatus.WORKER_FAILED
        assert "drain deadline" in response.detail
        metrics = service.metrics()
        assert (metrics.submitted, metrics.served, metrics.rejected) == (1, 0, 1)
        assert service.supervisor_stats()["drops"] == 1

    def test_flood_under_a_dead_shard_answers_overloaded_not_deadlock(self):
        workers = 2
        dead_pkg = package_for_shard(0, workers)
        service = fast_service(
            workers=workers,
            max_queue_depth=3,
            fault_plan="kill:worker=0:incarnation=any:after=1",
            max_retries=1,
            breaker_threshold=1000,
        )
        try:
            tickets = [service.submit(
                DetectRequest(package=dead_pkg, runs=RUNS, seed=seed))
                for seed in range(1, 13)]
            responses = [t.result(timeout=60) for t in tickets]
            statuses = [r.status for r in responses]
            assert ResponseStatus.OVERLOADED in statuses
            assert ResponseStatus.OK not in statuses
            assert all(s in (ResponseStatus.OVERLOADED, ResponseStatus.WORKER_FAILED)
                       for s in statuses)
            # Every answer says why, and each request is counted exactly once.
            assert all(r.detail for r in responses)
            metrics = service.metrics()
            assert metrics.submitted == 12
            assert metrics.submitted == metrics.served + metrics.rejected
        finally:
            service.shutdown()

    def test_submit_after_shutdown_is_rejected_structurally(self):
        service = fast_service(workers=1)
        service.shutdown()
        ticket = service.submit(
            DetectRequest(package=make_package(1), runs=RUNS, seed=1))
        assert ticket.result(5).status is ResponseStatus.OVERLOADED


# ---------------------------------------------------------------------------
# End-to-end: SIGTERM drain of the real daemon
# ---------------------------------------------------------------------------


class TestSigtermDrain:
    def test_daemon_drains_in_flight_request_on_sigterm(self, tmp_path):
        """SIGTERM mid-request: the admitted request completes, the daemon
        exits 0, and the pidfile is removed — the full graceful-drain path."""
        pidfile = tmp_path / "drfix.pid"
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--workers", "2",
             "--no-rag", "--port", "0", "--pidfile", str(pidfile)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=tmp_path)
        try:
            banner = proc.stdout.readline()
            port = int(re.search(r"127\.0\.0\.1:(\d+)", banner).group(1))
            body = json.dumps({
                "package": "p",
                "files": {"main.go": RACY_SOURCE},
                "runs": 6, "seed": 1,
            }).encode()
            responses = []

            def client():
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/detect", data=body,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=60) as reply:
                    responses.append((reply.status, json.load(reply)))

            thread = threading.Thread(target=client)
            thread.start()
            time.sleep(0.2)  # let the request be admitted
            proc.send_signal(signal.SIGTERM)
            thread.join(timeout=60)
            assert not thread.is_alive(), "client hung through the drain"
            assert proc.wait(timeout=30) == 0
            status, payload = responses[0]
            assert status == 200 and payload["status"] == "ok"
            assert payload["payload"]["summary"].endswith("data race(s)")
            assert not pidfile.exists()
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.wait()
