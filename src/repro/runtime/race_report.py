"""ThreadSanitizer-format data-race reports: rendering, parsing, and hashing.

The Go race detector prints reports of the form::

    WARNING: DATA RACE
    Write at 0x00c0000b4010 by goroutine 7:
      mypkg.SomeFunction.func1()
          /path/service/handler.go:15 +0x44
      ...
    Previous write at 0x00c0000b4010 by goroutine 6:
      mypkg.SomeFunction()
          /path/service/handler.go:23 +0x88
    Goroutine 7 (running) created at:
      mypkg.SomeFunction()
          /path/service/handler.go:12

Dr.Fix's frontend consumes such reports (Section 4.2).  This module produces
them from detector :class:`~repro.runtime.race_detector.RaceRecord` objects,
parses them back into structured :class:`RaceReport` values, and computes the
*stable bug hash* from the function names in both stacks, which the validator
uses to decide whether the targeted race is gone (Section 4.4.1).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.runtime.race_detector import AccessRecord, RaceRecord


@dataclass(frozen=True)
class StackFrame:
    """One frame of a goroutine stack trace."""

    function: str
    file: str
    line: int

    def render(self) -> str:
        return f"  {self.function}()\n      {self.file}:{self.line} +0x0"


@dataclass
class GoroutineTrace:
    """One racing access: goroutine id, access kind, and its stack."""

    goroutine_id: int
    is_write: bool
    frames: List[StackFrame] = field(default_factory=list)
    creation_frames: List[StackFrame] = field(default_factory=list)

    @property
    def leaf(self) -> Optional[StackFrame]:
        return self.frames[0] if self.frames else None

    @property
    def root(self) -> Optional[StackFrame]:
        return self.frames[-1] if self.frames else None


@dataclass
class RaceReport:
    """A structured data-race report (two unordered conflicting accesses)."""

    first: GoroutineTrace
    second: GoroutineTrace
    variable: str = ""
    address: int = 0
    package: str = ""

    # -- identity -----------------------------------------------------------------------

    def bug_hash(self) -> str:
        """A stable hash derived from the function names in both stacks.

        Per Section 4.2 of the paper, the hash intentionally ignores line
        numbers and addresses so that a fix that moves code (but leaves the
        racing functions present) still maps to the same bug, and reports for
        the same root cause observed in different runs coincide.
        """
        return stacks_hash([frame.function for frame in self.first.frames],
                           [frame.function for frame in self.second.frames],
                           self.variable)

    def involved_functions(self) -> List[str]:
        seen: List[str] = []
        for trace in (self.first, self.second):
            for frame in trace.frames + trace.creation_frames:
                if frame.function not in seen:
                    seen.append(frame.function)
        return seen

    def involved_files(self) -> List[str]:
        seen: List[str] = []
        for trace in (self.first, self.second):
            for frame in trace.frames + trace.creation_frames:
                if frame.file not in seen:
                    seen.append(frame.file)
        return seen

    def racy_lines(self, file: str | None = None) -> List[int]:
        lines = []
        for trace in (self.first, self.second):
            leaf = trace.leaf
            if leaf is not None and (file is None or leaf.file == file):
                lines.append(leaf.line)
        return lines

    # -- rendering ----------------------------------------------------------------------

    def render(self) -> str:
        lines = ["WARNING: DATA RACE"]
        lines.append(self._render_access(self.second, previous=False))
        lines.append(self._render_access(self.first, previous=True))
        for trace in (self.second, self.first):
            if trace.creation_frames:
                lines.append(f"Goroutine {trace.goroutine_id} (running) created at:")
                lines.extend(frame.render() for frame in trace.creation_frames)
        lines.append("==================")
        return "\n".join(lines)

    def _render_access(self, trace: GoroutineTrace, previous: bool) -> str:
        kind = "write" if trace.is_write else "read"
        prefix = "Previous " + kind if previous else kind.capitalize()
        header = (
            f"{prefix} at 0x{self.address:012x} by goroutine {trace.goroutine_id}:"
        )
        body = "\n".join(frame.render() for frame in trace.frames)
        return f"{header}\n{body}"


# ---------------------------------------------------------------------------
# Construction from detector records
# ---------------------------------------------------------------------------


def stacks_hash(first: Iterable[str], second: Iterable[str], variable: str) -> str:
    """The stable bug hash of two stacks' function names (either order) and
    the racing variable; see :meth:`RaceReport.bug_hash`."""
    names = sorted(["|".join(first), "|".join(second)])
    digest = hashlib.sha256(("\n".join(names) + "\n" + variable).encode("utf-8"))
    return digest.hexdigest()[:16]


def race_hash(record: RaceRecord) -> str:
    """The bug hash of ``report_from_race(record)``, without rendering it."""
    return stacks_hash([frame[0] for frame in record.previous.stack],
                       [frame[0] for frame in record.current.stack],
                       record.variable)


def _trace_from_record(record: AccessRecord) -> GoroutineTrace:
    frames = [StackFrame(function=f, file=file, line=line) for f, file, line in record.stack]
    creation = [
        StackFrame(function=f, file=file, line=line) for f, file, line in record.creation_stack
    ]
    return GoroutineTrace(
        goroutine_id=record.goroutine_id,
        is_write=record.is_write,
        frames=frames,
        creation_frames=creation,
    )


def report_from_race(record: RaceRecord, package: str = "") -> RaceReport:
    """Build a :class:`RaceReport` from a detector :class:`RaceRecord`."""
    return RaceReport(
        first=_trace_from_record(record.previous),
        second=_trace_from_record(record.current),
        variable=record.variable,
        address=record.current.address,
        package=package,
    )


# ---------------------------------------------------------------------------
# Parsing (round-trip of the textual format)
# ---------------------------------------------------------------------------

_ACCESS_RE = re.compile(
    r"^(Previous )?(read|write|Read|Write) at 0x(?P<addr>[0-9a-f]+) by goroutine (?P<gid>\d+):",
)
_FRAME_FUNC_RE = re.compile(r"^  (?P<func>.+)\(\)$")
_FRAME_LOC_RE = re.compile(r"^      (?P<file>.+):(?P<line>\d+)( \+0x[0-9a-f]+)?$")
_CREATED_RE = re.compile(r"^Goroutine (?P<gid>\d+) \((running|finished)\) created at:")


def parse_report(text: str) -> RaceReport:
    """Parse a ThreadSanitizer-format report produced by :meth:`RaceReport.render`.

    Only the structure Dr.Fix consumes is recovered: access kinds, goroutine
    ids, stack frames, and goroutine creation frames.
    """
    lines = text.splitlines()
    traces: List[GoroutineTrace] = []
    creation_map: dict[int, List[StackFrame]] = {}
    address = 0
    index = 0
    current_frames: Optional[List[StackFrame]] = None
    pending_func: Optional[str] = None

    def flush_pending() -> None:
        nonlocal pending_func
        pending_func = None

    while index < len(lines):
        line = lines[index]
        access_match = _ACCESS_RE.match(line)
        created_match = _CREATED_RE.match(line)
        if access_match:
            flush_pending()
            address = int(access_match.group("addr"), 16)
            trace = GoroutineTrace(
                goroutine_id=int(access_match.group("gid")),
                is_write="write" in access_match.group(2).lower(),
            )
            traces.append(trace)
            current_frames = trace.frames
        elif created_match:
            flush_pending()
            gid = int(created_match.group("gid"))
            creation_map[gid] = []
            current_frames = creation_map[gid]
        else:
            func_match = _FRAME_FUNC_RE.match(line)
            loc_match = _FRAME_LOC_RE.match(line)
            if func_match:
                pending_func = func_match.group("func")
            elif loc_match and pending_func is not None and current_frames is not None:
                current_frames.append(
                    StackFrame(
                        function=pending_func,
                        file=loc_match.group("file"),
                        line=int(loc_match.group("line")),
                    )
                )
                pending_func = None
        index += 1

    if len(traces) < 2:
        raise ValueError("race report does not contain two access stacks")
    for trace in traces:
        trace.creation_frames = creation_map.get(trace.goroutine_id, [])
    # render() prints the *current* access first and the previous one second;
    # reconstruct the original (first=previous, second=current) order.
    second, first = traces[0], traces[1]
    return RaceReport(first=first, second=second, address=address)


def call_paths(report: RaceReport) -> Tuple[List[str], List[str]]:
    """Root-first call paths of the two racing goroutines (for LCA analysis)."""
    first = [frame.function for frame in reversed(report.first.frames)]
    second = [frame.function for frame in reversed(report.second.frames)]
    return first, second
