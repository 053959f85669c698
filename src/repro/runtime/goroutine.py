"""Goroutine bookkeeping for the cooperative scheduler."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple

StackFrameTuple = Tuple[str, str, int]  # (function, file, line)


class GoroutineState(enum.Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


@dataclass(slots=True)
class Frame:
    """An interpreter call-stack frame."""

    func_name: str
    file: str
    line: int = 0
    #: Deferred ``(callee, args)`` pairs, LIFO.  ``None`` until the first
    #: ``defer`` — most frames never defer, so the list is lazy (see
    #: :meth:`push_deferred`).
    deferred: Optional[List[Any]] = None
    #: The snapshots of every frame below this one, caller first, taken by
    #: :meth:`Goroutine.push_frame` (see :meth:`Goroutine.stack_snapshot`).
    parents: Tuple[StackFrameTuple, ...] = ()

    def push_deferred(self, entry: Any) -> None:
        if self.deferred is None:
            self.deferred = [entry]
        else:
            self.deferred.append(entry)


@dataclass(slots=True)
class SchedulePoint:
    """A value yielded by interpreter coroutines to the scheduler.

    ``kind`` is ``"step"`` for a plain preemption point or ``"block"`` when the
    goroutine cannot make progress; in the latter case ``predicate`` tells the
    scheduler when the goroutine becomes runnable again and ``reason`` is used
    for deadlock diagnostics.
    """

    kind: str = "step"
    predicate: Optional[Callable[[], bool]] = None
    reason: str = ""


STEP = SchedulePoint(kind="step")


def blocked(predicate: Callable[[], bool], reason: str) -> SchedulePoint:
    return SchedulePoint(kind="block", predicate=predicate, reason=reason)


@dataclass(slots=True, eq=False)
class Goroutine:
    """One logical Go thread of execution.  Compared by identity: the
    scheduler removes finished goroutines from its live list, which would
    otherwise compare every field of each goroutine ahead of the one removed."""

    gid: int
    name: str = "main"
    creation_stack: Tuple[StackFrameTuple, ...] = ()
    state: GoroutineState = GoroutineState.RUNNABLE
    generator: Optional[Generator[SchedulePoint, None, Any]] = None
    stack: List[Frame] = field(default_factory=list)
    block_point: Optional[SchedulePoint] = None
    failure: Optional[BaseException] = None
    #: The last snapshot (see :meth:`stack_snapshot`), kept for repeated
    #: accesses at the same leaf line (the common case: consecutive memory
    #: accesses of one statement) and dropped by every push and pop.
    _snap: Optional[Tuple[StackFrameTuple, ...]] = field(
        default=None, repr=False, compare=False)
    _snap_line: int = field(default=-1, repr=False, compare=False)
    _snap_file: str = field(default="", repr=False, compare=False)

    # -- call-stack maintenance -----------------------------------------------------------

    def push_frame(self, frame: Frame) -> None:
        """Push ``frame``, saving on it the snapshots of the frames below.

        Only the leaf frame's line or file ever changes, and a caller stays
        below the leaf until its callee returns, so the caller's snapshot
        taken here holds for as long as ``frame`` is on the stack."""
        stack = self.stack
        if stack:
            caller = stack[-1]
            frame.parents = ((caller.func_name, caller.file, caller.line),) + caller.parents
        stack.append(frame)
        self._snap = None

    def pop_frame(self) -> Frame:
        frame = self.stack.pop()
        self._snap = None
        return frame

    def stack_snapshot(self, leaf_line: int | None = None) -> Tuple[StackFrameTuple, ...]:
        """Return the current call stack, leaf frame first: the leaf at
        ``leaf_line`` (its own line when none is given) on top of the
        parents tuple saved at its push."""
        stack = self.stack
        if not stack:
            return ()
        leaf = stack[-1]
        line = leaf_line if leaf_line else leaf.line
        snap = self._snap
        if snap is not None and self._snap_line == line and self._snap_file == leaf.file:
            return snap
        snap = self._snap = ((leaf.func_name, leaf.file, line),) + leaf.parents
        self._snap_line = line
        self._snap_file = leaf.file
        return snap

    @property
    def is_live(self) -> bool:
        return self.state in (GoroutineState.RUNNABLE, GoroutineState.BLOCKED)

    def describe(self) -> str:
        return f"goroutine {self.gid} [{self.name}] ({self.state.value})"
