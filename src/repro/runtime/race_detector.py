"""FastTrack dynamic happens-before race detection.

The detector implements the FastTrack protocol (Flanagan & Freund, PLDI 2009)
at the granularity the interpreter needs:

* every goroutine ``t`` carries a vector clock ``C_t``;
* every synchronization object (mutex, channel, WaitGroup, atomic cell)
  carries a clock that is joined on release/acquire edges;
* every memory cell records the *epoch* of its last write (a single
  ``(tid, clock)`` pair, not a full vector clock) and an **adaptive read
  state**: a single read epoch while one goroutine is reading, promoted to a
  per-goroutine read map only when concurrent readers appear and demoted back
  on the next write — FastTrack's read-share/read-exclusive transitions;
* an access races with a previous access when the previous access's epoch is
  not ordered before the current goroutine's clock.

Fast paths mirror FastTrack's: a repeated read by the owning goroutine updates
the read epoch in place (no dict or clock allocation), and a write updates the
write epoch in place (no ``Epoch``/``VectorClock`` objects are allocated per
access, and clearing the read state never copies anything).  Each access
passes its call stack and its goroutine's creation stack, both memoised
tuples the goroutine already holds, and the cell's state keeps them by
reference.  One deliberate deviation from the letter of the paper keeps
reports unchanged from the pre-FastTrack detector: those stack references are
refreshed even on same-epoch accesses, because a later race must report the
most recent conflicting source line.

Nothing is built for an access that does not race.  A race is first checked
against the run's reported keys (:func:`race_key`: the variable plus both
leaf frames); only a new key builds the two :class:`AccessRecord` snapshots
(goroutine id, read/write, call stack) and the :class:`RaceRecord` the
harness renders as a ThreadSanitizer-format report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.runtime.memory import Cell
from repro.runtime.vector_clock import SyncVar, VectorClock

#: A call stack: ``(function, file, line)`` frames, leaf first.
Stack = Tuple[Tuple[str, str, int], ...]


@dataclass(slots=True)
class AccessRecord:
    """A snapshot of one racing memory access, retained for race reporting."""

    goroutine_id: int
    is_write: bool
    stack: Stack
    variable: str
    address: int
    creation_stack: Stack = ()


@dataclass
class RaceRecord:
    """Two conflicting, unordered accesses to the same location."""

    current: AccessRecord
    previous: AccessRecord

    @property
    def variable(self) -> str:
        return self.current.variable or self.previous.variable


def race_key(variable: str, current: Stack, previous: Stack) -> Tuple:
    """A run's coarse dedup key for a race: the variable plus the leaf
    frames' ``(function, line)`` of both stacks, in either order."""
    cur = (current[0][0], current[0][2]) if current else ("?", 0)
    prev = (previous[0][0], previous[0][2]) if previous else ("?", 0)
    return (variable, cur, prev) if cur <= prev else (variable, prev, cur)


#: ``read_tid`` sentinel: no reads since the last write.
_NO_READER = -1
#: ``read_tid`` sentinel: concurrent readers — the read state is the
#: ``read_clocks``/``read_stacks`` maps (FastTrack's read-shared mode).
_SHARED = -2


class _LocationState:
    """Per-cell detector metadata in FastTrack form.

    The write state is a bare epoch (two ints) plus the writer's stack and
    creation stack.  The read state is adaptive: ``read_tid >= 0`` means a
    single goroutine has read since the last write and its epoch and stacks
    live inline (they are stale otherwise); ``_SHARED`` means concurrent
    readers promoted the state to per-goroutine maps (``read_stacks`` holds
    ``(stack, creation_stack)``).
    """

    __slots__ = (
        "write_tid", "write_clock", "write_stack", "write_creation",
        "read_tid", "read_clock", "read_stack", "read_creation",
        "read_clocks", "read_stacks",
    )

    def __init__(self) -> None:
        self.write_tid = _NO_READER
        self.write_clock = 0
        self.write_stack: Stack = ()
        self.write_creation: Stack = ()
        self.read_tid = _NO_READER
        self.read_clock = 0
        self.read_stack: Stack = ()
        self.read_creation: Stack = ()
        self.read_clocks: Optional[Dict[int, int]] = None
        self.read_stacks: Optional[Dict[int, Tuple[Stack, Stack]]] = None


class RaceDetector:
    """Tracks happens-before and flags conflicting unordered accesses.

    Pure FastTrack: goroutine and synchronization-object vector clocks, and
    per-cell write epochs with adaptive read state (see the module
    docstring).  Nothing else runs on the per-access path."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.races: List[RaceRecord] = []
        self._thread_clocks: Dict[int, VectorClock] = {}
        self._locations: Dict[int, _LocationState] = {}
        self._reported_keys: set[Tuple] = set()

    # ------------------------------------------------------------------
    # Goroutine lifecycle
    # ------------------------------------------------------------------

    def register_goroutine(self, tid: int) -> None:
        if tid not in self._thread_clocks:
            clock = VectorClock()
            clock.increment(tid)
            self._thread_clocks[tid] = clock

    def clock_of(self, tid: int) -> VectorClock:
        clock = self._thread_clocks.get(tid)
        if clock is None:
            self.register_goroutine(tid)
            clock = self._thread_clocks[tid]
        return clock

    def on_fork(self, parent_tid: int, child_tid: int) -> None:
        """``go`` statement: the child inherits the parent's knowledge."""
        parent = self.clock_of(parent_tid)
        child = self.clock_of(child_tid)
        child.join(parent)
        child.increment(child_tid)
        parent.increment(parent_tid)

    def on_join(self, waiter_tid: int, finished_tid: int) -> None:
        """A join edge (e.g. WaitGroup.Wait observing a goroutine's Done)."""
        waiter = self.clock_of(waiter_tid)
        finished = self.clock_of(finished_tid)
        waiter.join(finished)
        waiter.increment(waiter_tid)

    # ------------------------------------------------------------------
    # Synchronization objects
    # ------------------------------------------------------------------

    def on_release(self, tid: int, sync: SyncVar) -> None:
        """Unlock / channel send / WaitGroup.Done / atomic store."""
        clock = self.clock_of(tid)
        sync.release(clock)
        clock.increment(tid)

    def on_acquire(self, tid: int, sync: SyncVar) -> None:
        """Lock / channel receive / WaitGroup.Wait return / atomic load."""
        clock = self.clock_of(tid)
        sync.acquire(clock)

    # ------------------------------------------------------------------
    # Memory accesses
    # ------------------------------------------------------------------

    def _record(self, cell: Cell, tid: int, is_write: bool, stack: Stack,
                creation: Stack, prev_tid: int, prev_is_write: bool,
                prev_stack: Stack, prev_creation: Stack) -> None:
        """Record a race unless its key was already reported in this run."""
        name = cell.name
        key = race_key(name, stack, prev_stack)
        if key in self._reported_keys:
            return
        self._reported_keys.add(key)
        address = cell.address
        self.races.append(RaceRecord(
            current=AccessRecord(tid, is_write, stack, name, address, creation),
            previous=AccessRecord(prev_tid, prev_is_write, prev_stack, name, address,
                                  prev_creation),
        ))

    def on_read(self, tid: int, cell: Cell, stack: Stack, creation: Stack) -> None:
        if not self.enabled or cell.synchronized:
            return
        clock = self._thread_clocks.get(tid)
        if clock is None:
            clock = self.clock_of(tid)
        state = self._locations.get(cell.address)
        if state is None:
            state = _LocationState()
            self._locations[cell.address] = state
        clocks = clock._clocks
        write_tid = state.write_tid
        if write_tid >= 0 and write_tid != tid:
            # Write-read conflict check: the stored write epoch must be
            # ordered before this goroutine's clock.
            if state.write_clock > clocks.get(write_tid, 0):
                self._record(cell, tid, False, stack, creation,
                             write_tid, True, state.write_stack, state.write_creation)
        own = clocks.get(tid, 0)
        read_tid = state.read_tid
        if read_tid == tid or read_tid == _NO_READER:
            # Same-reader fast path (refresh the inline read epoch and stacks
            # in place), or read-exclusive: this goroutine becomes the sole
            # tracked reader.
            state.read_tid = tid
            state.read_clock = own
            state.read_stack = stack
            state.read_creation = creation
        elif read_tid == _SHARED:
            state.read_clocks[tid] = own
            state.read_stacks[tid] = (stack, creation)
        else:
            # Second distinct reader since the last write: promote to the
            # read-shared maps (insertion order: prior reader first, which
            # preserves report ordering on a later racing write).
            state.read_clocks = {read_tid: state.read_clock, tid: own}
            state.read_stacks = {read_tid: (state.read_stack, state.read_creation),
                                 tid: (stack, creation)}
            state.read_tid = _SHARED

    def on_write(self, tid: int, cell: Cell, stack: Stack, creation: Stack) -> None:
        if not self.enabled or cell.synchronized:
            return
        clock = self._thread_clocks.get(tid)
        if clock is None:
            clock = self.clock_of(tid)
        state = self._locations.get(cell.address)
        if state is None:
            state = _LocationState()
            self._locations[cell.address] = state
        clocks = clock._clocks
        write_tid = state.write_tid
        if write_tid >= 0 and write_tid != tid:
            if state.write_clock > clocks.get(write_tid, 0):
                self._record(cell, tid, True, stack, creation,
                             write_tid, True, state.write_stack, state.write_creation)
        read_tid = state.read_tid
        if read_tid != _NO_READER:
            if read_tid == _SHARED:
                # Write after read-shared: every reader epoch must be ordered
                # before this write.  Iterate in place (insertion order) —
                # the maps are dropped right after, so no defensive copy.
                read_clocks = state.read_clocks
                for reader_tid, (read_stack, read_creation) in state.read_stacks.items():
                    if reader_tid == tid:
                        continue
                    if read_clocks[reader_tid] > clocks.get(reader_tid, 0):
                        self._record(cell, tid, True, stack, creation,
                                     reader_tid, False, read_stack, read_creation)
                state.read_clocks = None
                state.read_stacks = None
            elif read_tid != tid:
                if state.read_clock > clocks.get(read_tid, 0):
                    self._record(cell, tid, True, stack, creation,
                                 read_tid, False, state.read_stack, state.read_creation)
            # Demote to read-free (FastTrack's write-exclusive state).
            state.read_tid = _NO_READER
        # Same-epoch write fast path: only the stack references refresh; the
        # epoch ints are written in place, no Epoch/VectorClock allocation.
        state.write_tid = tid
        state.write_clock = clocks.get(tid, 0)
        state.write_stack = stack
        state.write_creation = creation

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def has_races(self) -> bool:
        return bool(self.races)

    def reset(self) -> None:
        self.races.clear()
        self._locations.clear()
        self._thread_clocks.clear()
        self._reported_keys.clear()
