"""Unit tests for the service request model, result cache, and metrics."""

import pytest

from repro.core.config import DrFixConfig
from repro.errors import ConfigError
from repro.fingerprint import config_fingerprint
from repro.runtime.harness import GoFile, GoPackage
from repro.service.cache import ResultCache
from repro.service.metrics import MetricsRecorder, latency_percentile
from repro.service.requests import (
    DetectRequest,
    FixRequest,
    RequestKind,
    ResponseStatus,
    ServiceResponse,
    package_from_payload,
    request_from_payload,
)


def _package(source: str = "package p\n\nfunc F() int {\n\treturn 1\n}\n") -> GoPackage:
    return GoPackage(name="p", files=[GoFile("p.go", source)])


class TestRequestModel:
    def test_kinds_and_describe(self):
        detect = DetectRequest(package=_package(), runs=5, seed=3)
        fix = FixRequest(package=_package())
        assert detect.kind is RequestKind.DETECT
        assert fix.kind is RequestKind.FIX
        assert "detect(p, runs=5, seed=3)" == detect.describe()

    def test_validated_rejects_empty_and_nonpositive(self):
        with pytest.raises(ConfigError):
            DetectRequest(package=GoPackage(name="p", files=[])).validated()
        with pytest.raises(ConfigError):
            DetectRequest(package=_package(), runs=0).validated()

    def test_cache_key_varies_by_everything_that_matters(self):
        fp = config_fingerprint(DrFixConfig())
        base = DetectRequest(package=_package(), runs=5, seed=0)
        assert base.cache_key(fp) == DetectRequest(package=_package(), runs=5, seed=0).cache_key(fp)
        # Kind, source, runs, seed, and config each change the key.
        assert base.cache_key(fp) != FixRequest(package=_package(), runs=5, seed=0).cache_key(fp)
        assert base.cache_key(fp) != DetectRequest(package=_package(), runs=6, seed=0).cache_key(fp)
        assert base.cache_key(fp) != DetectRequest(package=_package(), runs=5, seed=1).cache_key(fp)
        other_pkg = _package("package p\n\nfunc F() int {\n\treturn 2\n}\n")
        assert base.cache_key(fp) != DetectRequest(package=other_pkg, runs=5).cache_key(fp)
        other_fp = config_fingerprint(DrFixConfig(model="o1-preview"))
        assert base.cache_key(fp) != base.cache_key(other_fp)

    def test_config_fingerprints_are_pinned(self):
        # The fingerprints that key both persistent stores hash every config
        # field: they move only when a field is added, removed or re-defaulted,
        # and an old on-disk entry then becomes a miss, never a wrong answer.
        assert config_fingerprint(DrFixConfig()) == "c4e86812112cd8c89853"
        assert config_fingerprint(DrFixConfig(model="gpt-4o")) == "621bba35d865e4a9d528"


class TestWireParsing:
    def test_round_trip(self):
        data = {"package": "demo", "files": {"a.go": "package demo\n"}, "runs": 7, "seed": 2}
        request = request_from_payload(data, kind="detect")
        assert isinstance(request, DetectRequest)
        assert request.package.name == "demo"
        assert request.runs == 7 and request.seed == 2

    def test_kind_from_body_and_default_runs(self):
        data = {"kind": "fix", "files": {"a.go": "package demo\n"}}
        request = request_from_payload(data, default_runs=4)
        assert isinstance(request, FixRequest)
        assert request.runs == 4

    def test_file_order_is_preserved(self):
        files = {"z.go": "package d\n", "a.go": "package d\n"}
        package = package_from_payload({"package": "d", "files": files})
        assert [f.name for f in package.files] == ["z.go", "a.go"]

    @pytest.mark.parametrize("data, fragment", [
        ({"files": {}}, "non-empty 'files'"),
        ({"files": {"a.go": 7}}, "string"),
        ({"files": {"a.go": "package d\n"}, "runs": "many"}, "integers"),
    ])
    def test_malformed_payloads(self, data, fragment):
        with pytest.raises(ConfigError, match=fragment):
            request_from_payload(data, kind="detect")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown request kind"):
            request_from_payload({"files": {"a.go": "package d\n"}}, kind="lint")


class TestServiceResponse:
    def test_wire_form(self):
        response = ServiceResponse(
            request_id="r1", kind="detect", status=ResponseStatus.OK,
            payload={"passed": True}, cached=True, duration_ms=1.23456,
        )
        data = response.as_dict()
        assert data["status"] == "ok" and data["cached"] is True
        assert data["payload"] == {"passed": True}
        assert data["duration_ms"] == 1.235
        assert response.ok


class TestResultCache:
    def test_lru_eviction_and_bounds(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes 'a'
        cache.put("c", {"v": 3})  # evicts 'b' (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1} and cache.get("c") == {"v": 3}
        assert len(cache) == 2

    def test_entries_are_copy_protected(self):
        cache = ResultCache()
        payload = {"nested": {"list": [1, 2]}}
        cache.put("k", payload)
        payload["nested"]["list"].append(3)  # caller mutation after put
        first = cache.get("k")
        first["nested"]["list"].append(4)  # caller mutation after get
        assert cache.get("k") == {"nested": {"list": [1, 2]}}

    def test_hit_accounting(self):
        cache = ResultCache()
        assert cache.get("missing") is None
        cache.put("k", {})
        cache.get("k")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestMetrics:
    def test_latency_percentile(self):
        assert latency_percentile([], 0.5) == 0.0
        samples = list(range(1, 101))
        assert latency_percentile(samples, 0.50) == 51  # nearest-rank, 0-indexed
        assert latency_percentile(samples, 0.95) == 95
        assert latency_percentile([7.0], 0.95) == 7.0

    def test_recorder_snapshot(self):
        recorder = MetricsRecorder()
        recorder.on_submit()
        recorder.on_submit()
        recorder.on_reject()
        recorder.on_batch(2)
        recorder.on_served(10.0, cached=False)
        recorder.on_served(1.0, cached=True)
        snap = recorder.snapshot(queue_depth=3, in_flight=1)
        assert snap.submitted == 3 and snap.rejected == 1
        assert snap.served == 2 and snap.cache_hits == 1 and snap.cache_misses == 1
        assert snap.cache_hit_rate == 0.5
        assert snap.queue_depth == 3 and snap.in_flight == 1
        assert snap.mean_batch_size == 2.0
        assert snap.p50_latency_ms in (1.0, 10.0)
        assert snap.throughput_rps > 0
        data = snap.as_dict()
        assert data["cache_hit_rate"] == 0.5
        assert "p95_latency_ms" in data and "uptime_seconds" in data
        assert "req/s" in snap.render()
