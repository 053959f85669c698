"""Which event reorderings the FastTrack detector is and is not sensitive to.

Two interleavings that only swap *independent* events (disjoint goroutines,
disjoint sync objects, disjoint memory cells) establish the same
happens-before relation, so the detector must end in the same state with the
same verdict.  Reordering events that share a goroutine, a sync object or a
memory cell can change happens-before, and the detector's verdict must follow
it.  The detector keys nothing off raw addresses or ``hash()``, so its
results are also identical across processes whatever ``PYTHONHASHSEED`` they
inherit.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.harness import GoFile, GoPackage, run_package_tests
from repro.runtime.memory import Cell
from repro.runtime.race_detector import RaceDetector, race_key
from repro.runtime.scheduler import SchedulerPolicy
from repro.runtime.vector_clock import SyncVar, VectorClock

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _detector_with_forks() -> RaceDetector:
    """Goroutine 0 forks goroutines 1 and 2, which then run unordered."""
    detector = RaceDetector()
    detector.register_goroutine(0)
    detector.on_fork(0, 1)
    detector.on_fork(0, 2)
    return detector


def _stack(tid: int) -> tuple:
    return ((f"worker{tid}", "w.go", 10 + tid),)


def _write(detector: RaceDetector, tid: int, cell: Cell) -> None:
    detector.on_write(tid, cell, _stack(tid), ())


def _read(detector: RaceDetector, tid: int, cell: Cell) -> None:
    detector.on_read(tid, cell, _stack(tid), ())


def _clocks(detector: RaceDetector):
    return {tid: detector.clock_of(tid).copy() for tid in (0, 1, 2)}


def _write_epochs(detector: RaceDetector, *cells: Cell):
    return [(detector._locations[c.address].write_tid,
             detector._locations[c.address].write_clock) for c in cells]


def _race_keys(detector: RaceDetector):
    return [race_key(race.variable, race.current.stack, race.previous.stack)
            for race in detector.races]


class TestCommutingPermutations:
    def test_independent_sync_events_commute(self):
        """Releases by disjoint goroutines on disjoint sync objects, in either
        order, leave every goroutine clock and sync clock identical."""
        a_lock, a_chan = SyncVar(), SyncVar()
        a = _detector_with_forks()
        a.on_release(1, a_lock)
        a.on_release(2, a_chan)

        b_lock, b_chan = SyncVar(), SyncVar()
        b = _detector_with_forks()
        b.on_release(2, b_chan)
        b.on_release(1, b_lock)

        assert _clocks(a) == _clocks(b)
        assert a_lock.vc == b_lock.vc and a_chan.vc == b_chan.vc

    def test_independent_goroutine_runs_commute_via_public_api(self):
        """Two goroutines each guarding their own cell with their own lock:
        running one fully before the other, in either order, is the same
        happens-before structure and neither order races."""
        def run(order):
            detector = _detector_with_forks()
            locks = {1: SyncVar(), 2: SyncVar()}
            cells = {1: Cell(name="x"), 2: Cell(name="y")}
            for tid in order:
                detector.on_acquire(tid, locks[tid])
                _write(detector, tid, cells[tid])
                detector.on_release(tid, locks[tid])
            return detector, cells

        first, first_cells = run((1, 2))
        second, second_cells = run((2, 1))
        assert _clocks(first) == _clocks(second)
        assert (_write_epochs(first, first_cells[1], first_cells[2])
                == _write_epochs(second, second_cells[1], second_cells[2]))
        assert not first.races and not second.races

    def test_interleaved_but_per_goroutine_ordered_permutations_commute(self):
        """Every interleaving that keeps each goroutine's own events in
        program order ends in the same state with no race."""
        def run(slots):
            detector = _detector_with_forks()
            x, y = Cell(name="x"), Cell(name="y")
            lock_a, lock_b = SyncVar(), SyncVar()
            programs = {
                1: [lambda: _write(detector, 1, x),
                    lambda: detector.on_release(1, lock_a),
                    lambda: _read(detector, 1, x)],
                2: [lambda: _write(detector, 2, y),
                    lambda: detector.on_release(2, lock_b),
                    lambda: _read(detector, 2, y)],
            }
            cursor = {1: 0, 2: 0}
            for tid in slots:
                programs[tid][cursor[tid]]()
                cursor[tid] += 1
            return (_clocks(detector), _write_epochs(detector, x, y),
                    lock_a.vc, lock_b.vc, _race_keys(detector))

        interleavings = set()
        for positions in itertools.combinations(range(6), 3):
            interleavings.add(tuple(1 if i in positions else 2 for i in range(6)))
        assert len(interleavings) == 20
        outcomes = [run(slots) for slots in sorted(interleavings)]
        assert all(outcome == outcomes[0] for outcome in outcomes)
        assert outcomes[0][-1] == []

    def test_commuted_racy_accesses_report_the_same_race(self):
        """Two unordered writes race in either order, and the reported race
        has the same key both ways."""
        keys = []
        for order in ((1, 2), (2, 1)):
            detector = _detector_with_forks()
            cell = Cell(name="x")
            for tid in order:
                _write(detector, tid, cell)
            keys.append(_race_keys(detector))
        assert len(keys[0]) == 1
        assert keys[0] == keys[1]


class TestOrderSensitivity:
    def test_lock_handoff_direction_decides_the_race(self):
        """Goroutine 1 writes then releases; goroutine 2 acquires then writes.
        With the release first the writes are ordered; with the acquire
        first (it observes nothing) they race."""
        ordered = _detector_with_forks()
        lock, cell = SyncVar(), Cell(name="x")
        _write(ordered, 1, cell)
        ordered.on_release(1, lock)
        ordered.on_acquire(2, lock)
        _write(ordered, 2, cell)
        assert not ordered.races

        racy = _detector_with_forks()
        lock, cell = SyncVar(), Cell(name="x")
        racy.on_acquire(2, lock)
        _write(racy, 2, cell)
        _write(racy, 1, cell)
        racy.on_release(1, lock)
        assert len(racy.races) == 1

    def test_reordering_a_goroutines_own_events_changes_the_verdict(self):
        """A write published before the release is seen by the acquirer; the
        same write moved after the release is not."""
        def run(write_first):
            detector = _detector_with_forks()
            lock, cell = SyncVar(), Cell(name="x")
            if write_first:
                _write(detector, 1, cell)
                detector.on_release(1, lock)
            else:
                detector.on_release(1, lock)
                _write(detector, 1, cell)
            detector.on_acquire(2, lock)
            _read(detector, 2, cell)
            return detector

        assert not run(write_first=True).races
        assert len(run(write_first=False).races) == 1

    def test_release_and_acquire_are_distinct_events(self):
        """A release alone orders nothing for another goroutine; only the
        acquire that follows it does."""
        released_only = _detector_with_forks()
        lock, cell = SyncVar(), Cell(name="x")
        _write(released_only, 1, cell)
        released_only.on_release(1, lock)
        _read(released_only, 2, cell)
        assert len(released_only.races) == 1

        acquired = _detector_with_forks()
        lock, cell = SyncVar(), Cell(name="x")
        _write(acquired, 1, cell)
        acquired.on_release(1, lock)
        acquired.on_acquire(2, lock)
        _read(acquired, 2, cell)
        assert not acquired.races

    def test_release_advances_only_the_releasers_clock(self):
        detector = _detector_with_forks()
        lock = SyncVar()
        before = _clocks(detector)
        detector.on_release(1, lock)
        after_release = _clocks(detector)
        assert after_release[1].get(1) == before[1].get(1) + 1
        assert after_release[2] == before[2] and after_release[0] == before[0]
        detector.on_acquire(2, lock)
        after_acquire = _clocks(detector)
        # The acquirer learns goroutine 1's released time but does not tick
        # its own entry.
        assert after_acquire[2].get(1) == before[1].get(1)
        assert after_acquire[2].get(2) == before[2].get(2)


class TestAccessOrder:
    def test_accesses_to_distinct_cells_commute(self):
        def run(order):
            detector = _detector_with_forks()
            cells = {1: Cell(name="a"), 2: Cell(name="b")}
            for tid in order:
                _write(detector, tid, cells[tid])
            return _write_epochs(detector, cells[1], cells[2]), detector.races

        forward, backward = run((1, 2)), run((2, 1))
        assert forward == backward
        assert forward[1] == []

    def test_conflicting_access_reorder_changes_the_reported_pair(self):
        """Write-then-read and read-then-write on one cell both race, but the
        report's current and previous accesses swap roles."""
        write_first = _detector_with_forks()
        cell = Cell(name="x")
        _write(write_first, 1, cell)
        _read(write_first, 2, cell)

        read_first = _detector_with_forks()
        cell = Cell(name="x")
        _read(read_first, 2, cell)
        _write(read_first, 1, cell)

        (wr,), (rw,) = write_first.races, read_first.races
        assert (wr.current.is_write, wr.previous.is_write) == (False, True)
        assert (rw.current.is_write, rw.previous.is_write) == (True, False)
        assert _race_keys(write_first) == _race_keys(read_first)

    @pytest.mark.parametrize("first_writes,second_writes,races", [
        (False, False, False),
        (False, True, True),
        (True, False, True),
        (True, True, True),
    ], ids=["read-read", "read-write", "write-read", "write-write"])
    def test_read_and_write_are_distinct_access_events(
        self, first_writes, second_writes, races
    ):
        detector = _detector_with_forks()
        cell = Cell(name="x")
        for tid, writes in ((1, first_writes), (2, second_writes)):
            (_write if writes else _read)(detector, tid, cell)
        assert detector.has_races() is races

    def test_verdict_does_not_depend_on_cell_addresses(self):
        """Two runs of one interleaving see different raw addresses (the
        allocator counter is process-global); the reported races match."""
        keys = []
        for address in (0xC000000000, 0xC000005550):
            detector = _detector_with_forks()
            cell = Cell(name="x", address=address)
            _write(detector, 1, cell)
            _read(detector, 2, cell)
            keys.append(_race_keys(detector))
        assert len(keys[0]) == 1
        assert keys[0] == keys[1]


class TestDeterminism:
    def test_same_event_sequence_same_state(self):
        def trace():
            detector = RaceDetector()
            sync, cell = SyncVar(), Cell(name="x")
            detector.on_fork(1, 2)
            _write(detector, 2, cell)
            detector.on_release(2, sync)
            _write(detector, 1, cell)
            detector.on_acquire(1, sync)
            detector.on_join(1, 2)
            return ({tid: detector.clock_of(tid).copy() for tid in (1, 2)},
                    sync.vc, _race_keys(detector))

        first, second = trace(), trace()
        assert first == second
        assert len(first[2]) == 1

    def test_reset_restores_the_empty_state(self):
        detector = _detector_with_forks()
        cell = Cell(name="x")
        _write(detector, 1, cell)
        _write(detector, 2, cell)
        assert detector.races
        detector.reset()
        assert detector.races == []
        assert detector._locations == {}
        assert detector._thread_clocks == {}
        assert detector._reported_keys == set()
        assert detector.clock_of(1) == VectorClock({1: 1})

    def test_reset_detector_reports_a_repeated_race_again(self):
        """Reported-race dedup is per run: after ``reset`` the same racy trace
        is reported again instead of being suppressed as a duplicate."""
        detector = RaceDetector()
        keys = []
        for _ in range(2):
            detector.register_goroutine(0)
            detector.on_fork(0, 1)
            detector.on_fork(0, 2)
            cell = Cell(name="x")
            _write(detector, 1, cell)
            _write(detector, 2, cell)
            keys.append(_race_keys(detector))
            detector.reset()
        assert len(keys[0]) == 1
        assert keys[0] == keys[1]


RACY = GoPackage(
    name="counter",
    files=[GoFile("counter_test.go", """package counter

import (
\t"sync"
\t"testing"
)

func TestCounter(t *testing.T) {
\tcount := 0
\tvar wg sync.WaitGroup
\tfor i := 0; i < 3; i++ {
\t\twg.Add(1)
\t\tgo func() {
\t\t\tcount++
\t\t\twg.Done()
\t\t}()
\t}
\twg.Wait()
}
""")],
)


class TestHarnessRepeatability:
    def test_repeat_sweep_is_deterministic(self):
        def sweep():
            result = run_package_tests(
                RACY, runs=6, seed=1, policies=(SchedulerPolicy.RANDOM,))
            return (result.race_hashes(), result.scheduler_steps,
                    result.test_failures, result.output, result.runs)

        first = sweep()
        assert first[0], "the unguarded counter must race"
        assert sweep() == first

    def test_single_goroutine_program_reports_no_race(self):
        package = GoPackage(
            name="solo",
            files=[GoFile("solo_test.go", """package solo

import "testing"

func TestSolo(t *testing.T) {
\ttotal := 0
\tfor i := 0; i < 4; i++ {
\t\ttotal += i
\t}
\tprintln(total)
}
""")],
        )
        result = run_package_tests(package, runs=4, seed=0)
        assert result.runs == 4
        assert result.reports == []
        assert result.passed


_REPLAY_SCRIPT = """
from repro.corpus.templates.capture_by_ref import make_err_capture_case
from repro.runtime.harness import run_package_tests

case = make_err_capture_case(4242, 1)
result = run_package_tests(case.package, runs=8, seed=5)
print(result.race_hashes())
print(result.scheduler_steps, result.runs)
print([report.render() for report in result.reports])
"""


class TestProcessStability:
    def test_detection_is_identical_across_hash_seeds(self):
        """Bug hashes, step counts and rendered reports do not depend on
        ``hash()`` randomisation: two processes with different
        ``PYTHONHASHSEED`` values print byte-identical results."""
        outputs = []
        for hash_seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", _REPLAY_SCRIPT],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed},
                check=True,
                timeout=120,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        hashes = outputs[0].splitlines()[0]
        assert hashes != "[]", "the err-capture case must race"
