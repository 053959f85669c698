"""Behavioural tests for the in-process serving layer: admission control,
batch scheduling, deduplication, caching, error folding, and metrics."""

import threading
import time

import pytest

import repro.service.core as service_core
from repro.core.config import DrFixConfig
from repro.runtime.harness import GoFile, GoPackage
from repro.service import DetectRequest, DrFixService, FixRequest
from repro.service.requests import ResponseStatus

RACY_SOURCE = """
package demo

import "sync"

func Run(items []string) int {
	total := 0
	var wg sync.WaitGroup
	for _, item := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total = total + len(item)
		}()
	}
	wg.Wait()
	return total
}
"""

RACY_TEST = """
package demo

import "testing"

func TestRun(t *testing.T) {
	Run([]string{"a", "bb", "ccc"})
}
"""

CLEAN_SOURCE = """
package demo

func Two() int {
	return 2
}
"""

CLEAN_TEST = """
package demo

import "testing"

func TestTwo(t *testing.T) {
	if Two() != 2 {
		t.Errorf("wrong")
	}
}
"""


def racy_package(tag: str = "") -> GoPackage:
    # An optional trailing comment makes distinct-but-equivalent packages
    # (distinct source fingerprints) cheap to mint.
    suffix = f"\n// variant {tag}\n" if tag else ""
    return GoPackage(name="demo", files=[
        GoFile("run.go", RACY_SOURCE + suffix), GoFile("run_test.go", RACY_TEST),
    ])


def clean_package(tag: str = "") -> GoPackage:
    suffix = f"\n// variant {tag}\n" if tag else ""
    return GoPackage(name="demo", files=[
        GoFile("two.go", CLEAN_SOURCE + suffix), GoFile("two_test.go", CLEAN_TEST),
    ])


@pytest.fixture
def config() -> DrFixConfig:
    return DrFixConfig(model="gpt-4o", validator_runs=6, detection_runs=8)


class TestServing:
    def test_detect_and_fix_round_trip(self, config):
        with DrFixService(config, database=None) as service:
            detect = service.call(DetectRequest(package=racy_package(), runs=8), timeout=60)
            assert detect.ok and not detect.cached
            assert detect.payload["race_hashes"]
            assert detect.payload["reports"][0]["diagnosis"]
            fix = service.call(FixRequest(package=racy_package(), runs=8), timeout=120)
            assert fix.ok and fix.payload["fixed_any"]
            assert any(r["diff"] for r in fix.payload["results"])
            clean = service.call(DetectRequest(package=clean_package(), runs=6), timeout=60)
            assert clean.ok and clean.payload["passed"]

    def test_repeat_submission_is_a_warm_hit(self, config):
        with DrFixService(config, database=None) as service:
            cold = service.call(DetectRequest(package=racy_package(), runs=8), timeout=60)
            warm = service.call(DetectRequest(package=racy_package(), runs=8), timeout=60)
            assert not cold.cached and warm.cached
            assert cold.payload == warm.payload
            metrics = service.metrics()
            assert metrics.cache_hits == 1 and metrics.cache_misses == 1

    def test_batch_deduplicates_identical_requests(self, config, monkeypatch):
        executions = []
        real = service_core._execute_request

        def counting(cfg, database, request):
            executions.append(request.source_fingerprint())
            return real(cfg, database, request)

        monkeypatch.setattr(service_core, "_execute_request", counting)
        service = DrFixService(config, database=None, max_in_flight=8, start=False)
        tickets = [service.submit(DetectRequest(package=racy_package(), runs=6))
                   for _ in range(5)]
        tickets.append(service.submit(DetectRequest(package=clean_package(), runs=6)))
        service.start()
        responses = [t.result(timeout=60) for t in tickets]
        service.shutdown()
        assert all(r.ok for r in responses)
        # 6 requests, 2 unique keys, exactly 2 executions.
        assert len(executions) == 2
        # The five identical submissions share one payload; the leader is the
        # cold computation, the followers are marked as shared/cached.
        payloads = [r.payload for r in responses[:5]]
        assert all(p == payloads[0] for p in payloads)
        assert sum(1 for r in responses[:5] if not r.cached) == 1

    def test_error_is_folded_into_a_structured_response(self, config, monkeypatch):
        def boom(request, cfg):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(service_core, "execute_detect", boom)
        with DrFixService(config, database=None) as service:
            response = service.call(DetectRequest(package=clean_package(), runs=4), timeout=30)
            assert response.status is ResponseStatus.ERROR
            assert "worker exploded" in response.detail
            assert service.metrics().errors == 1
        # The scheduler survived the error: a fresh service still serves.

    def test_invalid_bounds_rejected(self, config):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            DrFixService(config, max_queue_depth=0, start=False)
        with pytest.raises(ConfigError):
            DrFixService(config, max_in_flight=0, start=False)

    def test_bad_executor_name_fails_at_construction(self, config):
        # Not inside the scheduler thread, where it would strand tickets.
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="unknown executor"):
            DrFixService(config, executor="bogus", start=False)

    def test_scheduler_survives_a_batch_path_failure(self, config, monkeypatch):
        # A failure in the batch machinery itself (not the guarded worker
        # body) must resolve the stranded tickets with ERROR and keep the
        # scheduler thread alive for later batches.
        real_executor = service_core.CaseExecutor
        failures = [True]  # fail the first batch only

        class ExplodingExecutor:
            def __init__(self, *args, **kwargs):
                if failures:
                    failures.pop()
                    raise RuntimeError("pool construction failed")
                self._real = real_executor(*args, **kwargs)

            def map(self, fn, items):
                return self._real.map(fn, items)

        monkeypatch.setattr(service_core, "CaseExecutor", ExplodingExecutor)
        with DrFixService(config, database=None) as service:
            broken = service.call(DetectRequest(package=clean_package("x"), runs=4),
                                  timeout=30)
            assert broken.status is ResponseStatus.ERROR
            assert "internal batch failure" in broken.detail
            # The scheduler survived: the next request is served normally.
            healthy = service.call(DetectRequest(package=clean_package("y"), runs=4),
                                   timeout=30)
            assert healthy.ok and healthy.payload["passed"]


    def test_deeply_nested_source_is_a_build_error(self, config):
        # Nesting past the parser's recursion limit is reported as a Go
        # syntax error in the build, not as a RecursionError.
        nested = "package demo\n\nfunc F() int {\n\treturn " + "(" * 3000 + "1" + ")" * 3000 + "\n}\n"
        package = GoPackage(name="demo", files=[GoFile("deep.go", nested)])
        payload = service_core.execute_detect(DetectRequest(package=package, runs=2), config)
        assert not payload["built"]
        [error] = payload["build_errors"]
        assert error.startswith("deep.go:4:") and error.endswith(": nesting too deep")


    def test_nesting_too_deep_to_lower_is_a_build_error(self, config):
        # Nesting the parser accepts but the runtime compiler cannot lower
        # is a build error too, not a RecursionError.
        body = "x := 0\n" + "{\n" * 300 + "x++\n" + "}\n" * 300
        source = ("package demo\n\nimport \"testing\"\n\n"
                  "func TestDeep(t *testing.T) {\n" + body + "}\n")
        package = GoPackage(name="demo", files=[GoFile("deep_test.go", source)])
        payload = service_core.execute_detect(DetectRequest(package=package, runs=2), config)
        assert not payload["built"]
        [error] = payload["build_errors"]
        assert error.startswith("deep_test.go:") and error.endswith(": nesting too deep")

    def test_nesting_too_deep_in_an_uncalled_function_is_a_build_error(self, config):
        body = "x := 0\n" + "{\n" * 300 + "x++\n" + "}\n" * 300
        source = ("package demo\n\nimport \"testing\"\n\n"
                  "func Deep() {\n" + body + "}\n\n"
                  "func TestShallow(t *testing.T) {\n}\n")
        package = GoPackage(name="demo", files=[GoFile("uncalled_test.go", source)])
        payload = service_core.execute_detect(DetectRequest(package=package, runs=2), config)
        assert not payload["built"]
        [error] = payload["build_errors"]
        assert error.startswith("uncalled_test.go:") and error.endswith(": nesting too deep")


class TestAdmissionControl:
    def test_queue_bound_yields_structured_overloaded(self, config):
        service = DrFixService(config, database=None, max_queue_depth=3, start=False)
        admitted = [service.submit(DetectRequest(package=racy_package(str(i)), runs=4))
                    for i in range(3)]
        rejected = [service.submit(DetectRequest(package=racy_package("over"), runs=4))
                    for _ in range(2)]
        # Rejections resolve immediately, before the scheduler even runs.
        for ticket in rejected:
            assert ticket.done()
            response = ticket.result(timeout=0)
            assert response.status is ResponseStatus.OVERLOADED
            assert "queue full (3/3" in response.detail
            assert response.payload == {}
        assert not any(t.done() for t in admitted)
        service.start()
        for ticket in admitted:
            assert ticket.result(timeout=60).ok
        service.shutdown()
        metrics = service.metrics()
        assert metrics.rejected == 2 and metrics.served == 3
        assert metrics.submitted == 5

    def test_flood_never_deadlocks_or_grows_unbounded(self, config, monkeypatch):
        def slow(cfg, database, request):
            time.sleep(0.03)
            return {"ok": True}, ""

        monkeypatch.setattr(service_core, "_execute_request", slow)
        service = DrFixService(config, database=None, max_queue_depth=2,
                               max_in_flight=1, cache_capacity=4)
        tickets = [service.submit(DetectRequest(package=racy_package(str(i)), runs=4))
                   for i in range(12)]
        responses = [t.result(timeout=30) for t in tickets]
        service.shutdown()
        statuses = [r.status for r in responses]
        assert statuses.count(ResponseStatus.OVERLOADED) > 0
        assert all(s in (ResponseStatus.OK, ResponseStatus.OVERLOADED) for s in statuses)
        metrics = service.metrics()
        assert metrics.served + metrics.rejected == 12
        assert metrics.queue_depth == 0
        # The queue never held more than its bound.
        assert all("(2/2" in r.detail for r in responses
                   if r.status is ResponseStatus.OVERLOADED)

    def test_shutdown_without_start_resolves_admitted_tickets(self, config):
        # A never-started scheduler cannot drain the queue; shutdown must
        # resolve admitted tickets instead of stranding them forever.
        service = DrFixService(config, database=None, start=False)
        tickets = [service.submit(DetectRequest(package=clean_package(str(i)), runs=4))
                   for i in range(3)]
        service.shutdown()
        for ticket in tickets:
            assert ticket.done()
            response = ticket.result(timeout=0)
            assert response.status is ResponseStatus.OVERLOADED
            assert "before it was started" in response.detail
        metrics = service.metrics()
        assert metrics.submitted == 3 and metrics.rejected == 3

    def test_drain_deadline_answers_leftovers(self, config, monkeypatch):
        def slow(cfg, database, request):
            time.sleep(0.3)
            return {"ok": True}, ""

        monkeypatch.setattr(service_core, "_execute_request", slow)
        service = DrFixService(config, database=None, max_in_flight=1,
                               drain_timeout_s=0.05)
        tickets = [service.submit(DetectRequest(package=clean_package(str(i)), runs=4))
                   for i in range(2)]
        service.shutdown()
        for ticket in tickets:
            response = ticket.result(timeout=0)
            assert response.status is ResponseStatus.WORKER_FAILED
            assert "drain deadline" in response.detail
        metrics = service.metrics()
        assert (metrics.submitted, metrics.served, metrics.rejected) == (2, 0, 2)

    def test_duplicate_responses_never_alias(self, config):
        # Leader/follower and warm-hit fan-outs must hand out private
        # payload copies: mutating one response cannot affect another.
        service = DrFixService(config, database=None, max_in_flight=8, start=False)
        tickets = [service.submit(DetectRequest(package=clean_package("alias"), runs=4))
                   for _ in range(3)]
        service.start()
        responses = [t.result(timeout=60) for t in tickets]
        warm = service.call(DetectRequest(package=clean_package("alias"), runs=4),
                            timeout=60)
        service.shutdown()
        reference = [dict(r.payload) for r in responses]
        responses[0].payload["race_hashes"].append("tampered")
        responses[0].payload["summary"] = "tampered"
        assert responses[1].payload == reference[1]
        assert responses[2].payload == reference[2]
        assert warm.payload == reference[1]

    def test_submission_after_shutdown_is_rejected(self, config):
        service = DrFixService(config, database=None)
        service.shutdown()
        response = service.call(DetectRequest(package=clean_package(), runs=4), timeout=5)
        assert response.status is ResponseStatus.OVERLOADED
        assert "shut down" in response.detail

    def test_shutdown_drains_admitted_requests(self, config):
        service = DrFixService(config, database=None, max_queue_depth=8, start=False)
        tickets = [service.submit(DetectRequest(package=clean_package(str(i)), runs=4))
                   for i in range(3)]
        service.start()
        service.shutdown()  # must serve what it admitted
        assert all(t.done() for t in tickets)
        assert all(t.result(timeout=0).ok for t in tickets)


class TestConcurrentClients:
    def test_many_threads_submit_and_all_resolve(self, config):
        service = DrFixService(config, database=None, max_queue_depth=64, max_in_flight=4)
        packages = [racy_package(), clean_package()]
        results = []
        lock = threading.Lock()

        def client(index: int) -> None:
            response = service.call(
                DetectRequest(package=packages[index % 2], runs=6), timeout=120)
            with lock:
                results.append(response)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.shutdown()
        assert len(results) == 10 and all(r.ok for r in results)
        racy_payloads = {r.request_id: r.payload for r in results
                         if r.payload["race_hashes"]}
        clean_payloads = [r.payload for r in results if not r.payload["race_hashes"]]
        assert len(racy_payloads) == 5 and len(clean_payloads) == 5
        # Identical submissions resolved to identical payloads.
        values = list(racy_payloads.values())
        assert all(v == values[0] for v in values)
        assert all(p == clean_payloads[0] for p in clean_payloads)
        metrics = service.metrics()
        assert metrics.served == 10
        assert metrics.cache_hits + metrics.cache_misses == 10
        assert metrics.cache_hits >= 8  # 2 unique keys across 10 requests
