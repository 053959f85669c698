"""Unit tests for vector clocks and the FastTrack-style detector."""

from hypothesis import given, settings, strategies as st

from repro.runtime.memory import Cell
from repro.runtime.race_detector import RaceDetector
from repro.runtime.vector_clock import Epoch, SyncVar, VectorClock

#: A stack for accesses whose source line no assertion reads.
STACK = (("F", "f.go", 1),)


def stack(line: int) -> tuple:
    """A fresh one-frame stack tuple at ``line``."""
    return (("F", "f.go", line),)


class TestVectorClock:
    def test_increment_and_get(self):
        clock = VectorClock()
        clock.increment(3)
        clock.increment(3)
        assert clock.get(3) == 2 and clock.get(7) == 0

    def test_join_takes_componentwise_max(self):
        a = VectorClock({1: 5, 2: 1})
        b = VectorClock({1: 2, 3: 4})
        a.join(b)
        assert a.get(1) == 5 and a.get(2) == 1 and a.get(3) == 4

    def test_dominates(self):
        a = VectorClock({1: 3, 2: 2})
        b = VectorClock({1: 1, 2: 2})
        assert a.dominates(b)
        assert not b.dominates(a)

    def test_epoch_happens_before(self):
        clock = VectorClock({4: 7})
        assert Epoch(4, 7).happens_before(clock)
        assert not Epoch(4, 8).happens_before(clock)

    def test_equality_ignores_zero_entries(self):
        assert VectorClock({1: 2, 5: 0}) == VectorClock({1: 2})

    def test_set_zero_clears_stale_entry(self):
        # Regression: ``set`` used to silently drop zero values, so a stale
        # nonzero entry could never be cleared back to 0.
        clock = VectorClock()
        clock.set(3, 5)
        assert clock.get(3) == 5
        clock.set(3, 0)
        assert clock.get(3) == 0
        assert clock == VectorClock()
        # Setting an absent tid to zero stays a no-op (clock remains sparse).
        clock.set(9, 0)
        assert clock.get(9) == 0 and clock == VectorClock()

    @given(st.dictionaries(st.integers(1, 6), st.integers(0, 20), max_size=5),
           st.dictionaries(st.integers(1, 6), st.integers(0, 20), max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_join_is_least_upper_bound(self, left, right):
        a = VectorClock(left)
        b = VectorClock(right)
        joined = a.copy()
        joined.join(b)
        assert joined.dominates(a) and joined.dominates(b)
        for tid in set(left) | set(right):
            assert joined.get(tid) == max(left.get(tid, 0), right.get(tid, 0))


class TestSyncVar:
    def test_release_acquire_transfers_knowledge(self):
        sync = SyncVar()
        releaser = VectorClock({1: 4})
        acquirer = VectorClock({2: 1})
        sync.release(releaser)
        sync.acquire(acquirer)
        assert acquirer.get(1) == 4


class TestRaceDetector:
    def test_unordered_write_write_is_a_race(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.register_goroutine(2)
        detector.on_write(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        assert detector.has_races()

    def test_fork_edge_orders_parent_before_child(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.on_write(1, cell, STACK, ())
        detector.on_fork(1, 2)
        detector.on_write(2, cell, STACK, ())
        assert not detector.has_races()

    def test_child_write_after_fork_races_with_parent_later_write(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.on_fork(1, 2)
        detector.on_write(2, cell, STACK, ())
        detector.on_write(1, cell, STACK, ())
        assert detector.has_races()

    def test_lock_release_acquire_orders_accesses(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        mutex = SyncVar()
        detector.register_goroutine(1)
        detector.register_goroutine(2)
        detector.on_fork(1, 2)
        detector.on_acquire(1, mutex)
        detector.on_write(1, cell, STACK, ())
        detector.on_release(1, mutex)
        detector.on_acquire(2, mutex)
        detector.on_write(2, cell, STACK, ())
        detector.on_release(2, mutex)
        assert not detector.has_races()

    def test_read_read_is_not_a_race(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.register_goroutine(2)
        detector.on_read(1, cell, STACK, ())
        detector.on_read(2, cell, STACK, ())
        assert not detector.has_races()

    def test_unordered_read_then_write_is_a_race(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.register_goroutine(2)
        detector.on_read(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        assert detector.has_races()

    def test_synchronized_cells_are_ignored(self):
        detector = RaceDetector()
        cell = Cell(name="internal", synchronized=True)
        detector.on_write(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        assert not detector.has_races()

    def test_duplicate_races_are_deduplicated(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.on_write(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        detector.on_write(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        assert len(detector.races) == 1

    def test_join_edge_clears_race(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.on_fork(1, 2)
        detector.on_write(2, cell, STACK, ())
        detector.on_join(1, 2)
        detector.on_write(1, cell, STACK, ())
        assert not detector.has_races()

    def test_reset_clears_state(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.on_write(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        detector.reset()
        assert not detector.has_races()


class TestFastTrackStateMachine:
    """FastTrack fast paths: adaptive read state and in-place epoch updates."""

    def _state(self, detector: RaceDetector, cell: Cell):
        return detector._locations[cell.address]

    def test_single_reader_keeps_inline_read_epoch(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.on_read(1, cell, STACK, ())
        state = self._state(detector, cell)
        assert state.read_tid == 1
        assert state.read_clocks is None and state.read_stacks is None

    def test_same_epoch_read_updates_in_place_and_refreshes_stack(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        first, second = stack(1), stack(2)
        detector.on_read(1, cell, first, ())
        detector.on_read(1, cell, second, ())
        state = self._state(detector, cell)
        # Still read-exclusive: no promotion, and the stored stack tracks the
        # most recent read (the bit-identity deviation from textbook
        # FastTrack, which would skip the update entirely).
        assert state.read_tid == 1
        assert state.read_stack is second
        assert state.read_clocks is None

    def test_concurrent_readers_promote_to_shared_maps(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.on_fork(1, 2)
        detector.on_read(1, cell, STACK, ())
        detector.on_read(2, cell, STACK, ())
        state = self._state(detector, cell)
        assert state.read_tid == -2  # shared mode
        assert list(state.read_stacks) == [1, 2]  # promotion preserves order
        assert state.read_clocks is not None and len(state.read_clocks) == 2

    def test_write_demotes_read_state_and_stores_epoch_inline(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.on_fork(1, 2)
        detector.on_read(1, cell, STACK, ())
        detector.on_read(2, cell, STACK, ())
        write = stack(9)
        detector.on_write(1, cell, write, ())
        state = self._state(detector, cell)
        assert state.read_tid == -1 and state.read_stacks is None
        assert state.write_tid == 1
        assert state.write_clock == detector.clock_of(1).get(1)
        assert state.write_stack is write

    def test_same_epoch_write_only_refreshes_stack(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        first, second = stack(1), stack(2)
        detector.on_write(1, cell, first, ())
        clock_before = self._state(detector, cell).write_clock
        detector.on_write(1, cell, second, ())
        state = self._state(detector, cell)
        assert state.write_clock == clock_before
        assert state.write_stack is second
        assert not detector.has_races()

    def test_write_write_race_reported_from_epochs(self):
        detector = RaceDetector()
        cell = Cell(name="x")
        detector.register_goroutine(1)
        detector.register_goroutine(2)
        detector.on_write(1, cell, STACK, ())
        detector.on_write(2, cell, STACK, ())
        assert detector.has_races()

    def test_shared_read_then_unordered_write_reports_each_reader(self):
        detector = RaceDetector()
        cell = Cell(name="y")
        detector.on_fork(1, 2)
        detector.on_fork(1, 3)
        detector.on_read(2, cell, (("R2", "f.go", 2),), ())
        detector.on_read(3, cell, (("R3", "f.go", 3),), ())
        detector.on_write(1, cell, (("W", "f.go", 9),), ())
        assert len(detector.races) == 2
        assert [race.previous.goroutine_id for race in detector.races] == [2, 3]

    def test_race_records_are_built_from_both_accesses_stacks(self):
        detector = RaceDetector()
        cell = Cell(name="y")
        detector.on_fork(1, 2)
        reader, writer = (("R", "f.go", 2),), (("W", "f.go", 9),)
        creation = (("Test", "f_test.go", 4),)
        detector.on_read(2, cell, reader, creation)
        detector.on_write(1, cell, writer, ())
        (race,) = detector.races
        assert (race.previous.goroutine_id, race.previous.is_write) == (2, False)
        assert race.previous.stack is reader and race.previous.creation_stack is creation
        assert (race.current.goroutine_id, race.current.is_write) == (1, True)
        assert race.current.stack is writer and race.current.creation_stack == ()
        assert race.variable == "y"
        assert race.current.address == race.previous.address == cell.address

    def test_fork_ordered_reads_do_not_race_with_parent_write(self):
        detector = RaceDetector()
        cell = Cell(name="z")
        detector.register_goroutine(1)
        detector.on_write(1, cell, STACK, ())
        detector.on_fork(1, 2)
        detector.on_read(2, cell, STACK, ())
        assert not detector.has_races()
