"""Frontend tests: JSON over HTTP and line-delimited JSON stdio.

``test_http_mixed_batch_cold_then_warm`` is the in-process server smoke the
CI ``service-smoke`` job runs by name: boot the HTTP server, submit a mixed
detect/fix batch twice, assert the second pass is bit-identical and warm.
"""

import http.client
import io
import json

import pytest

from repro.core.config import DrFixConfig
from repro.service import DrFixService
from repro.service.frontend import ServiceHTTPServer, handle_stdio_line, serve_stdio

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

CLEAN_FILES = {
    "two.go": "package demo\n\nfunc Two() int {\n\treturn 2\n}\n",
    "two_test.go": ("package demo\n\nimport \"testing\"\n\n"
                    "func TestTwo(t *testing.T) {\n"
                    "\tif Two() != 2 {\n\t\tt.Errorf(\"wrong\")\n\t}\n}\n"),
}

RACY_BODY = {
    "package": "demo",
    "files": {"run.go": RACY_SOURCE, "run_test.go": RACY_TEST},
    "runs": 8,
}


@pytest.fixture
def service():
    service = DrFixService(DrFixConfig(model="gpt-4o", validator_runs=6),
                           database=None, max_queue_depth=32)
    yield service
    service.shutdown()


@pytest.fixture
def server(service):
    server = ServiceHTTPServer(service, ("127.0.0.1", 0))
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


def _request(server, method, path, body=None):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=300)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


class TestHTTP:
    def test_http_mixed_batch_cold_then_warm(self, server):
        # Cold pass: a mixed detect/fix batch.
        cold = [
            _request(server, "POST", "/detect", RACY_BODY),
            _request(server, "POST", "/fix", RACY_BODY),
        ]
        # Warm pass: the identical batch again.
        warm = [
            _request(server, "POST", "/detect", RACY_BODY),
            _request(server, "POST", "/fix", RACY_BODY),
        ]
        for (cold_status, cold_data), (warm_status, warm_data) in zip(cold, warm):
            assert cold_status == 200 and warm_status == 200
            assert cold_data["status"] == "ok" and warm_data["status"] == "ok"
            assert cold_data["cached"] is False and warm_data["cached"] is True
            # Bit-identical payloads across cold and warm serving.
            assert (json.dumps(cold_data["payload"], sort_keys=True)
                    == json.dumps(warm_data["payload"], sort_keys=True))
        detect_payload = cold[0][1]["payload"]
        assert detect_payload["race_hashes"]
        fix_payload = cold[1][1]["payload"]
        assert fix_payload["fixed_any"]
        status, metrics = _request(server, "GET", "/metrics")
        assert status == 200
        assert metrics["cache_hit_rate"] > 0
        assert metrics["served"] == 4
        # The interpreter's program cache is surfaced alongside the service
        # counters: running the racy package compiled it at least once.
        program_cache = metrics["program_cache"]
        assert set(program_cache) >= {
            "hits", "misses", "evictions", "singleflight_waits",
        }
        assert program_cache["misses"] >= 1

    def test_healthz(self, server):
        status, data = _request(server, "GET", "/healthz")
        assert status == 200 and data["status"] == "ok"
        assert "queue_depth" in data and "cache_entries" in data

    def test_malformed_body_is_400(self, server):
        status, data = _request(server, "POST", "/detect", {"files": {}})
        assert status == 400 and "files" in data["error"]

    def test_malformed_content_length_is_400_not_a_dropped_socket(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.putrequest("POST", "/detect")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            data = json.loads(response.read().decode("utf-8"))
            assert "Content-Length" in data["error"]
        finally:
            connection.close()

    def test_rejected_body_closes_the_connection(self, server):
        # The body is not drained on rejection, so keep-alive reuse would
        # desync; the server must signal Connection: close.
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request("POST", "/detect", body=json.dumps({"files": {}}),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_unknown_endpoint_is_404(self, server):
        status, data = _request(server, "GET", "/nope")
        assert status == 404
        status, data = _request(server, "POST", "/lint", RACY_BODY)
        assert status == 404

    def test_overloaded_maps_to_503(self, service):
        service.shutdown()  # rejects everything from here on
        server = ServiceHTTPServer(service, ("127.0.0.1", 0))
        server.serve_in_background()
        try:
            status, data = _request(server, "POST", "/detect", RACY_BODY)
            assert status == 503
            assert data["status"] == "overloaded"
            assert data["detail"]
        finally:
            server.shutdown()
            server.server_close()


class TestStdio:
    def test_session_detect_metrics_shutdown(self, service):
        lines = [
            json.dumps(dict(RACY_BODY, kind="detect")),
            json.dumps(dict(RACY_BODY, kind="detect")),  # warm hit
            json.dumps({"kind": "metrics"}),
            json.dumps({"kind": "shutdown"}),
            json.dumps(dict(RACY_BODY, kind="detect")),  # never reached
        ]
        stdout = io.StringIO()
        served = serve_stdio(service, io.StringIO("\n".join(lines) + "\n"), stdout)
        assert served == 3  # two detects + metrics; shutdown ends the session
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert responses[0]["status"] == "ok" and responses[0]["cached"] is False
        assert responses[1]["status"] == "ok" and responses[1]["cached"] is True
        assert responses[0]["payload"] == responses[1]["payload"]
        assert responses[2]["kind"] == "metrics"
        assert responses[2]["payload"]["cache_hits"] == 1

    def test_bad_lines_get_structured_errors(self, service):
        assert handle_stdio_line(service, "not json")["status"] == "error"
        assert handle_stdio_line(service, json.dumps({"kind": "lint"}))["status"] == "error"
        assert handle_stdio_line(service, "   ") == {}  # blank lines are skipped

    def test_eof_ends_session(self, service):
        stdout = io.StringIO()
        body = {"package": "demo", "files": CLEAN_FILES, "kind": "detect", "runs": 4}
        served = serve_stdio(service, io.StringIO(json.dumps(body) + "\n"), stdout)
        assert served == 1
        response = json.loads(stdout.getvalue())
        assert response["status"] == "ok" and response["payload"]["passed"]
