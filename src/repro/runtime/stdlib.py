"""Minimal Go standard-library shims used by the corpus programs.

Only the slices of the standard library that the paper's listings and the
synthetic corpus exercise are provided: ``fmt``, ``errors``, ``strings``,
``strconv``, ``time``, ``context``, ``math/rand``, ``crypto/md5``, and
``sync/atomic``.  Each function is implemented as a generator handler
``(interp, goroutine, args, node) -> value`` so it can yield scheduling points
and route memory accesses through the race detector.  Notably:

* ``math/rand`` sources and ``crypto/md5`` hashes keep their internal state in
  ordinary (unsynchronized) cells — sharing them across goroutines races,
  exactly like the real packages (paper's "Others" and "parallel test"
  categories);
* ``sync/atomic`` operations establish happens-before edges through a per-cell
  :class:`~repro.runtime.vector_clock.SyncVar` so atomic-only protocols
  validate as race-free while mixed atomic/plain usage still races.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.errors import GoRuntimeError
from repro.runtime.channels import Channel
from repro.runtime.goroutine import Goroutine, STEP
from repro.runtime.memory import Cell
from repro.runtime.values import (
    BuiltinFunc,
    ErrorValue,
    PointerValue,
    SliceValue,
    StructValue,
    format_value,
)


# ---------------------------------------------------------------------------
# fmt
# ---------------------------------------------------------------------------


def _format(spec: str, args: List[Any]) -> str:
    result: List[str] = []
    arg_index = 0
    index = 0
    while index < len(spec):
        char = spec[index]
        if char == "%" and index + 1 < len(spec):
            verb = spec[index + 1]
            if verb == "%":
                result.append("%")
            else:
                value = args[arg_index] if arg_index < len(args) else None
                arg_index += 1
                if verb in ("v", "s", "w", "d", "t", "f", "q", "x"):
                    rendered = format_value(value)
                    if verb == "q":
                        rendered = f'"{rendered}"'
                    result.append(rendered)
                else:
                    result.append(format_value(value))
            index += 2
            continue
        result.append(char)
        index += 1
    return "".join(result)


def _fmt_println(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    interp.output.append(" ".join(format_value(a) for a in args))
    return None


def _fmt_printf(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    spec = args[0] if args else ""
    interp.output.append(_format(str(spec), args[1:]))
    return None


def _fmt_sprintf(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    spec = args[0] if args else ""
    return _format(str(spec), args[1:])


def _fmt_sprint(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return " ".join(format_value(a) for a in args)


def _fmt_errorf(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    spec = args[0] if args else ""
    return ErrorValue(message=_format(str(spec), args[1:]))


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


def _errors_new(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return ErrorValue(message=str(args[0]) if args else "")


def _errors_is(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    left, right = (args + [None, None])[:2]
    if isinstance(left, ErrorValue) and isinstance(right, ErrorValue):
        return left.message == right.message or right.message in left.message
    return left is right


def _errors_wrap(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    err, message = (args + [None, ""])[:2]
    inner = err.message if isinstance(err, ErrorValue) else format_value(err)
    return ErrorValue(message=f"{message}: {inner}")


# ---------------------------------------------------------------------------
# strings / strconv
# ---------------------------------------------------------------------------


def _strings_new_reader(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    reader = StructValue(type_name="Reader")
    reader.fields["s"] = Cell(value=args[0] if args else "", name="Reader.s")
    reader.fields["pos"] = Cell(value=0, name="Reader.pos")
    return reader


def _strings_contains(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return str(args[1]) in str(args[0])


def _strings_join(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    slice_value, sep = (args + [None, ""])[:2]
    if isinstance(slice_value, SliceValue):
        return str(sep).join(format_value(c.value) for c in slice_value.elements)
    return ""


def _strings_split(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    text, sep = (args + ["", ""])[:2]
    parts = str(text).split(str(sep))
    return SliceValue(elements=[Cell(value=p) for p in parts], name="strings.Split")


def _strings_has_prefix(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return str(args[0]).startswith(str(args[1]))


def _strings_to_upper(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return str(args[0]).upper()


def _strconv_itoa(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return str(int(args[0] or 0))


def _strconv_atoi(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    try:
        return int(str(args[0]))
    except (TypeError, ValueError):
        from repro.runtime.values import TupleValue

        return TupleValue(values=[0, ErrorValue(message="invalid syntax")])


# ---------------------------------------------------------------------------
# time
# ---------------------------------------------------------------------------

_TIME_COUNTER = [0]


def _time_now(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    _TIME_COUNTER[0] += 1
    now = StructValue(type_name="Time")
    now.fields["t"] = Cell(value=_TIME_COUNTER[0], name="Time.t")
    return _TimeValue(_TIME_COUNTER[0])


@dataclass
class _TimeValue:
    """A ``time.Time`` stand-in supporting the handful of methods the corpus uses."""

    ticks: int

    def go_call(self, interp, goroutine, name, args, node) -> Generator:
        if False:  # pragma: no cover
            yield STEP
        if name == "Unix" or name == "UnixNano" or name == "UnixMilli":
            return self.ticks
        if name == "Add":
            return _TimeValue(self.ticks + int(args[0] or 0))
        if name == "Sub":
            other = args[0]
            return self.ticks - (other.ticks if isinstance(other, _TimeValue) else 0)
        if name == "Before":
            other = args[0]
            return self.ticks < (other.ticks if isinstance(other, _TimeValue) else 0)
        if name == "After":
            other = args[0]
            return self.ticks > (other.ticks if isinstance(other, _TimeValue) else 0)
        raise GoRuntimeError(f"time.Time has no method {name}")


def _time_since(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    start = args[0]
    _TIME_COUNTER[0] += 1
    return _TIME_COUNTER[0] - (start.ticks if isinstance(start, _TimeValue) else 0)


def _time_sleep(interp, goroutine, args, node):
    steps = min(int(args[0] or 1), 8) if args else 1
    for _ in range(max(1, steps)):
        yield STEP
    return None


def _time_after(interp, goroutine, args, node):
    """Return a channel that is closed by an internal timer goroutine."""
    if False:  # pragma: no cover
        yield STEP
    channel = Channel(capacity=1, name="time.After")
    delay = min(int(args[0] or 1), 40) if args else 10
    _spawn_timer(interp, goroutine, channel, max(2, delay))
    return channel


def _spawn_timer(interp, goroutine: Goroutine, channel: Channel, steps: int) -> None:
    timer = interp.new_goroutine(name="timer", parent=goroutine)
    interp.detector.on_fork(goroutine.gid, timer.gid)

    def body():
        for _ in range(steps):
            yield STEP
        if not channel.closed:
            interp.detector.on_release(timer.gid, channel.sync)
            channel.close()

    timer.generator = body()


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


@dataclass
class ContextValue:
    """A ``context.Context`` stand-in with a Done channel."""

    done: Channel = field(default_factory=lambda: Channel(capacity=1, name="ctx.Done"))
    err: Optional[ErrorValue] = None
    cancelled: bool = False

    def go_call(self, interp, goroutine, name, args, node) -> Generator:
        if False:  # pragma: no cover
            yield STEP
        if name == "Done":
            return self.done
        if name == "Err":
            return self.err
        if name == "Value":
            return None
        if name == "Deadline":
            from repro.runtime.values import TupleValue

            return TupleValue(values=[None, False])
        raise GoRuntimeError(f"context.Context has no method {name}")

    def cancel(self, interp, goroutine) -> None:
        if not self.cancelled:
            self.cancelled = True
            self.err = ErrorValue(message="context canceled")
            if not self.done.closed:
                interp.detector.on_release(goroutine.gid, self.done.sync)
                self.done.close()


def _context_background(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return ContextValue()


def _context_with_cancel(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    from repro.runtime.values import TupleValue

    ctx = ContextValue()

    def cancel_handler(interp_, goroutine_, cancel_args, cancel_node):
        if False:  # pragma: no cover
            yield STEP
        ctx.cancel(interp_, goroutine_)
        return None

    return TupleValue(values=[ctx, BuiltinFunc(name="cancel", handler=cancel_handler)])


def _context_with_timeout(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    from repro.runtime.values import TupleValue

    ctx = ContextValue()
    delay = 20
    if len(args) > 1 and isinstance(args[1], (int, float)):
        delay = max(2, min(int(args[1]), 40))
    _spawn_timer(interp, goroutine, ctx.done, delay)

    def cancel_handler(interp_, goroutine_, cancel_args, cancel_node):
        if False:  # pragma: no cover
            yield STEP
        ctx.cancel(interp_, goroutine_)
        return None

    return TupleValue(values=[ctx, BuiltinFunc(name="cancel", handler=cancel_handler)])


# ---------------------------------------------------------------------------
# math/rand — thread-unsafe sources (paper's "Others" category)
# ---------------------------------------------------------------------------


@dataclass
class RandSource:
    """A ``rand.Source`` whose state lives in an ordinary, race-detectable cell."""

    state_cell: Cell

    def go_call(self, interp, goroutine, name, args, node) -> Generator:
        if name in ("Int63", "Seed"):
            value = yield from _lcg_step(interp, goroutine, self.state_cell, node)
            return value
        raise GoRuntimeError(f"rand.Source has no method {name}")


@dataclass
class RandValue:
    """A ``*rand.Rand`` bound to a source."""

    source: RandSource

    def go_call(self, interp, goroutine, name, args, node) -> Generator:
        value = yield from _lcg_step(interp, goroutine, self.source.state_cell, node)
        if name == "Intn":
            bound = int(args[0] or 1) if args else 1
            return value % max(1, bound)
        if name in ("Int63", "Int", "Int31"):
            return value
        if name == "Float64":
            return (value % 1_000_000) / 1_000_000.0
        if name == "Read":
            return len(args[0].elements) if args and isinstance(args[0], SliceValue) else 0
        raise GoRuntimeError(f"rand.Rand has no method {name}")


def _lcg_step(interp, goroutine, cell: Cell, node) -> Generator:
    current = yield from interp.read_cell(goroutine, cell, node)
    new = ((current or 1) * 6364136223846793005 + 1442695040888963407) % (2 ** 63)
    yield from interp.write_cell(goroutine, cell, new, node)
    return new


def _rand_new_source(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    seed = int(args[0] or 1) if args else 1
    return RandSource(state_cell=Cell(value=seed, name="rand.Source.state"))


def _rand_new(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    source = args[0]
    if not isinstance(source, RandSource):
        source = RandSource(state_cell=Cell(value=1, name="rand.Source.state"))
    return RandValue(source=source)


_GLOBAL_RAND_CELL = Cell(value=42, name="rand.globalSource", synchronized=True)


def _rand_intn(interp, goroutine, args, node):
    value = yield from _lcg_step(interp, goroutine, _GLOBAL_RAND_CELL, node)
    bound = int(args[0] or 1) if args else 1
    return value % max(1, bound)


# ---------------------------------------------------------------------------
# crypto/md5 — thread-unsafe hash (paper's parallel-test category)
# ---------------------------------------------------------------------------


@dataclass
class HashValue:
    """A ``hash.Hash`` whose accumulator is an ordinary, race-detectable cell."""

    state_cell: Cell

    def go_call(self, interp, goroutine, name, args, node) -> Generator:
        if name == "Write":
            current = yield from interp.read_cell(goroutine, self.state_cell, node)
            data = args[0] if args else ""
            text = data if isinstance(data, str) else format_value(data)
            yield from interp.write_cell(goroutine, self.state_cell, (current or "") + text, node)
            from repro.runtime.values import TupleValue

            return TupleValue(values=[len(text), None])
        if name == "Sum":
            import hashlib

            current = yield from interp.read_cell(goroutine, self.state_cell, node)
            return hashlib.md5(str(current or "").encode("utf-8")).hexdigest()
        if name == "Reset":
            yield from interp.write_cell(goroutine, self.state_cell, "", node)
            return None
        if name == "Size":
            if False:  # pragma: no cover
                yield STEP
            return 16
        raise GoRuntimeError(f"hash.Hash has no method {name}")


def _md5_new(interp, goroutine, args, node):
    if False:  # pragma: no cover
        yield STEP
    return HashValue(state_cell=Cell(value="", name="md5.Hash.state"))


# ---------------------------------------------------------------------------
# sync/atomic
# ---------------------------------------------------------------------------


def _atomic_add(interp, goroutine, args, node):
    pointer, delta = (args + [None, 1])[:2]
    _, new = yield from interp.atomic_rmw(goroutine, pointer, lambda old: (old or 0) + int(delta or 0), node)
    return new


def _atomic_load(interp, goroutine, args, node):
    pointer = args[0] if args else None
    value = yield from interp.atomic_load(goroutine, pointer, node)
    return value


def _atomic_store(interp, goroutine, args, node):
    pointer, value = (args + [None, 0])[:2]
    yield from interp.atomic_rmw(goroutine, pointer, lambda old: value, node)
    return None


def _atomic_cas(interp, goroutine, args, node):
    pointer, old_expected, new_value = (args + [None, 0, 0])[:3]
    result = {}

    def update(old):
        if old == old_expected:
            result["swapped"] = True
            return new_value
        result["swapped"] = False
        return old

    yield from interp.atomic_rmw(goroutine, pointer, update, node)
    return result.get("swapped", False)


# ---------------------------------------------------------------------------
# Package registry
# ---------------------------------------------------------------------------


_PACKAGES: Dict[str, Dict[str, Any]] = {
    "fmt": {
        "Println": _fmt_println,
        "Printf": _fmt_printf,
        "Print": _fmt_println,
        "Sprintf": _fmt_sprintf,
        "Sprint": _fmt_sprint,
        "Sprintln": _fmt_sprint,
        "Errorf": _fmt_errorf,
    },
    "errors": {
        "New": _errors_new,
        "Is": _errors_is,
        "Wrap": _errors_wrap,
        "Wrapf": _errors_wrap,
    },
    "strings": {
        "NewReader": _strings_new_reader,
        "Contains": _strings_contains,
        "Join": _strings_join,
        "Split": _strings_split,
        "HasPrefix": _strings_has_prefix,
        "ToUpper": _strings_to_upper,
    },
    "strconv": {
        "Itoa": _strconv_itoa,
        "Atoi": _strconv_atoi,
    },
    "time": {
        "Now": _time_now,
        "Since": _time_since,
        "Sleep": _time_sleep,
        "After": _time_after,
        "Nanosecond": 1,
        "Microsecond": 1,
        "Millisecond": 2,
        "Second": 5,
        "Minute": 10,
        "Hour": 20,
    },
    "context": {
        "Background": _context_background,
        "TODO": _context_background,
        "WithCancel": _context_with_cancel,
        "WithTimeout": _context_with_timeout,
        "WithDeadline": _context_with_timeout,
    },
    "rand": {
        "NewSource": _rand_new_source,
        "New": _rand_new,
        "Intn": _rand_intn,
        "Int63": _rand_intn,
    },
    "md5": {
        "New": _md5_new,
    },
    "sha256": {
        "New": _md5_new,
    },
    "atomic": {
        "AddInt32": _atomic_add,
        "AddInt64": _atomic_add,
        "AddUint32": _atomic_add,
        "AddUint64": _atomic_add,
        "LoadInt32": _atomic_load,
        "LoadInt64": _atomic_load,
        "LoadUint32": _atomic_load,
        "LoadUint64": _atomic_load,
        "StoreInt32": _atomic_store,
        "StoreInt64": _atomic_store,
        "StoreUint32": _atomic_store,
        "StoreUint64": _atomic_store,
        "CompareAndSwapInt32": _atomic_cas,
        "CompareAndSwapInt64": _atomic_cas,
    },
    # Packages whose members are types handled elsewhere (sync) or that the
    # corpus references only for constants.
    "sync": {},
    "testing": {},
    "http": {"StatusOK": 200, "StatusInternalServerError": 500},
    "os": {},
    "io": {},
    "sort": {},
}


def is_package(name: str) -> bool:
    """True when ``name`` refers to a known standard-library package."""
    return name in _PACKAGES


def get_member(package: str, member: str) -> Any:
    """Resolve ``package.member`` to a callable or constant, or ``None``."""
    members = _PACKAGES.get(package)
    if members is None:
        return None
    value = members.get(member)
    if value is None:
        return None
    if callable(value):
        return BuiltinFunc(name=f"{package}.{member}", handler=value)
    return value
