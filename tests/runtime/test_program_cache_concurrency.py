"""Concurrency hammer tests for the process-wide :class:`ProgramCache`.

The serving layer's thread lanes and ``drfix evaluate --executor thread``
call the cache from several threads at once, and a sustained mixed workload
churns more packages than the LRU holds.  These tests pin the properties that
matter under that load:

* **stable hit accounting** — ``hits + misses`` equals the number of calls,
  at any interleaving;
* **LRU bounds** — the entry count never exceeds the capacity, no matter how
  many threads insert concurrently;
* **right builds** — every call gets a build of the package it asked for.
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


class TestRacingMisses:
    def test_racing_threads_all_get_a_build_of_their_package(self, monkeypatch):
        counting = _CountingParse(compiler.parse_file, delay=0.002)
        monkeypatch.setattr(compiler, "parse_file", counting)
        cache = ProgramCache()
        packages = [_package(f"P{i}") for i in range(4)]

        # 12 threads, 3 per package, all released together.
        results = _hammer(12, lambda i: cache.get_or_build(packages[i % 4]))

        for index, entry in enumerate(results):
            assert entry.fingerprint == compiler.package_fingerprint(packages[index % 4])
        # A miss is one build (each package has one file); racing misses on
        # one fingerprint may each build it.
        assert cache.misses == counting.calls
        assert 4 <= cache.misses and cache.hits + cache.misses == 12
        assert len(cache) == 4

    def test_racing_build_errors_are_all_reported(self):
        cache = ProgramCache()
        broken = GoPackage(name="hammer", files=[GoFile("bad.go", "package hammer\nfunc {")])

        results = _hammer(8, lambda _i: cache.get_or_build(broken))

        assert all(entry.errors for entry in results)
        assert cache.hits + cache.misses == 8 and len(cache) == 1

    def test_stats_snapshot_has_every_counter(self):
        expected = {
            "entries", "capacity", "hits", "misses", "evictions",
            "parse_hits", "parse_misses", "parse_entries",
        }
        assert expected == set(ProgramCache().stats())


class TestBoundsUnderLoad:
    def test_lru_capacity_is_never_exceeded(self):
        cache = ProgramCache()
        packages = [_package(f"L{i}") for i in range(3 * cache.capacity)]
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
        cache = ProgramCache()
        hot = _package("HOT")
        cold = [_package(f"C{i}") for i in range(2 * cache.capacity)]

        def traffic(index):
            entries = []
            for step in range(10):
                if step % 2 == 0:
                    entries.append(cache.get_or_build(hot))
                else:
                    entries.append(cache.get_or_build(cold[(index * 10 + step) % len(cold)]))
            return entries

        results = _hammer(6, traffic)
        fingerprint = compiler.package_fingerprint(hot)
        for entries in results:
            for entry in entries[::2]:
                assert entry.fingerprint == fingerprint
        assert len(cache) <= cache.capacity
        assert cache.hits + cache.misses == 6 * 10
