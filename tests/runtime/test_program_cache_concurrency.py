"""Concurrency hammer tests for the process-wide :class:`ProgramCache`.

The serving layer makes this cache truly hot for the first time: a warm-up
burst lands the *same* package on many worker threads at once, and a sustained
mixed workload churns more packages than the LRU holds.  These tests pin the
properties that matter under that load:

* **single-flight builds** — N threads racing one fingerprint produce exactly
  one parse/lower, not N (the waiters block on the per-fingerprint event and
  then take the hit);
* **stable hit accounting** — ``hits + misses`` equals the number of calls,
  at any interleaving;
* **LRU bounds** — the entry count never exceeds the configured capacity, no
  matter how many threads insert concurrently.
"""

import threading
import time

import repro.runtime.compiler as compiler
from repro.runtime.compiler import ProgramCache
from repro.runtime.harness import GoFile, GoPackage

PACKAGE_TEMPLATE = """
package hammer

func Value{tag}() int {{
	total := 0
	for i := 0; i < 3; i++ {{
		total = total + i
	}}
	return total
}}
"""


def _package(tag: str) -> GoPackage:
    return GoPackage(name="hammer", files=[
        GoFile("lib.go", PACKAGE_TEMPLATE.format(tag=tag)),
    ])


class _CountingParse:
    """Wraps ``parse_file`` to count builds and widen the race window."""

    def __init__(self, real, delay: float = 0.0):
        self.real = real
        self.delay = delay
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, source, name):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self.real(source, name)


def _hammer(thread_count, worker):
    barrier = threading.Barrier(thread_count)
    results = [None] * thread_count
    errors = []

    def run(index):
        try:
            barrier.wait()
            results[index] = worker(index)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(thread_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


class TestSingleFlight:
    def test_racing_threads_build_once(self, monkeypatch):
        counting = _CountingParse(compiler.parse_file, delay=0.005)
        monkeypatch.setattr(compiler, "parse_file", counting)
        cache = ProgramCache(capacity=8)
        package = _package("A")
        threads = 16

        results = _hammer(threads, lambda _i: cache.get_or_build(package))

        # One build (the package has one file), however many threads raced.
        assert counting.calls == 1
        # Everyone got the same entry object, and accounting is exact:
        # one miss (the builder), hits for every waiter.
        assert all(entry is results[0] for entry in results)
        assert cache.misses == 1
        assert cache.hits == threads - 1
        assert cache.hits + cache.misses == threads

    def test_distinct_fingerprints_build_independently(self, monkeypatch):
        counting = _CountingParse(compiler.parse_file, delay=0.002)
        monkeypatch.setattr(compiler, "parse_file", counting)
        cache = ProgramCache(capacity=8)
        packages = [_package(f"P{i}") for i in range(4)]

        # 12 threads, 3 per package, all released together.
        results = _hammer(12, lambda i: cache.get_or_build(packages[i % 4]))

        assert counting.calls == 4  # one build per fingerprint
        assert cache.misses == 4 and cache.hits == 8
        by_fingerprint = {entry.fingerprint for entry in results}
        assert len(by_fingerprint) == 4

    def test_build_errors_are_single_flight_too(self, monkeypatch):
        counting = _CountingParse(compiler.parse_file, delay=0.002)
        monkeypatch.setattr(compiler, "parse_file", counting)
        cache = ProgramCache(capacity=8)
        broken = GoPackage(name="hammer", files=[GoFile("bad.go", "package hammer\nfunc {")])

        results = _hammer(8, lambda _i: cache.get_or_build(broken))

        assert counting.calls == 1
        assert all(entry.errors for entry in results)
        assert cache.misses == 1 and cache.hits == 7

    def test_singleflight_counts_waiters(self):
        cache = ProgramCache(capacity=8)
        package = _package("W")
        barrier = threading.Barrier(4)
        results = []

        def build():
            barrier.wait()
            results.append(cache.get_or_build(package))

        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(entry) for entry in results}) == 1
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] + stats["singleflight_waits"] == 3

    def test_stats_snapshot_has_every_counter(self):
        expected = {
            "entries", "capacity", "hits", "misses", "evictions",
            "singleflight_waits", "probationary", "readmissions",
            "parse_hits", "parse_misses", "parse_entries",
        }
        assert expected == set(ProgramCache(capacity=2).stats())


class TestBoundsUnderLoad:
    def test_lru_capacity_is_never_exceeded(self):
        cache = ProgramCache(capacity=4)
        packages = [_package(f"L{i}") for i in range(12)]
        threads = 8

        def churn(index):
            # Each thread walks the packages from a different offset, so
            # inserts and evictions interleave heavily.
            for step in range(len(packages)):
                package = packages[(index + step) % len(packages)]
                entry = cache.get_or_build(package)
                assert entry.fingerprint == compiler.package_fingerprint(package)
                assert len(cache) <= cache.capacity
            return True

        results = _hammer(threads, churn)
        assert all(results)
        assert len(cache) <= cache.capacity
        # Accounting stayed exact across all evictions and rebuilds.
        assert cache.hits + cache.misses == threads * len(packages)

    def test_mixed_hot_and_cold_traffic(self):
        cache = ProgramCache(capacity=3)
        hot = _package("HOT")
        cold = [_package(f"C{i}") for i in range(6)]

        def traffic(index):
            entries = []
            for step in range(10):
                if step % 2 == 0:
                    entries.append(cache.get_or_build(hot))
                else:
                    entries.append(cache.get_or_build(cold[(index + step) % 6]))
            return entries

        results = _hammer(6, traffic)
        fingerprint = compiler.package_fingerprint(hot)
        for entries in results:
            for entry in entries[::2]:
                assert entry.fingerprint == fingerprint
        assert len(cache) <= 3
        assert cache.hits + cache.misses == 6 * 10
