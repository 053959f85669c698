"""Incremental call-stack snapshots equal the ones rebuilt from scratch.

``Goroutine.push_frame`` saves on each frame the snapshots of the frames
below it, and ``stack_snapshot`` puts the leaf on top of that tuple and
memoises the result per leaf line and file.  Random sequences of pushes,
pops, leaf line and file changes and snapshots must see, after every step,
exactly the stack that walking the frames gives.  Only the leaf's line and
file ever change, as in the interpreter: a caller's line is frozen while
its callee runs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.goroutine import Frame, Goroutine

NAMES = st.sampled_from(["main", "f", "g", "T.m", "f.func1"])
FILES = st.sampled_from(["a.go", "b_test.go"])
LINES = st.integers(0, 40)

OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("push"), NAMES, FILES, LINES),
    st.tuples(st.just("pop")),
    st.tuples(st.just("line"), LINES),
    st.tuples(st.just("file"), FILES),
    st.tuples(st.just("snapshot"), st.one_of(st.none(), LINES)),
), max_size=60)


def rebuilt(goroutine: Goroutine, leaf_line=None):
    stack = goroutine.stack
    if not stack:
        return ()
    leaf = stack[-1]
    line = leaf_line if leaf_line else leaf.line
    return ((leaf.func_name, leaf.file, line),) + tuple(
        (frame.func_name, frame.file, frame.line) for frame in stack[-2::-1])


@settings(max_examples=300, deadline=None)
@given(OPERATIONS)
def test_incremental_snapshot_equals_the_rebuilt_one(operations):
    goroutine = Goroutine(gid=1)
    for operation in operations:
        kind = operation[0]
        if kind == "push":
            _, name, file_name, line = operation
            goroutine.push_frame(Frame(func_name=name, file=file_name, line=line))
        elif kind == "pop":
            if goroutine.stack:
                goroutine.pop_frame()
        elif kind == "line":
            if goroutine.stack:
                goroutine.stack[-1].line = operation[1]
        elif kind == "file":
            if goroutine.stack:
                goroutine.stack[-1].file = operation[1]
        else:
            leaf_line = operation[1]
            assert goroutine.stack_snapshot(leaf_line) == rebuilt(goroutine, leaf_line)
        assert goroutine.stack_snapshot() == rebuilt(goroutine)


def test_snapshots_share_the_saved_parents():
    """A callee's snapshots extend the tuple saved at its push: no frame
    below the leaf is snapshotted again."""
    goroutine = Goroutine(gid=1)
    goroutine.push_frame(Frame(func_name="main", file="a.go", line=3))
    goroutine.push_frame(Frame(func_name="f", file="a.go", line=9))
    first = goroutine.stack_snapshot(10)
    second = goroutine.stack_snapshot(11)
    assert first[1:] == second[1:] == (("main", "a.go", 3),)
    assert first[1] is second[1]
    assert goroutine.stack_snapshot(11) is second
