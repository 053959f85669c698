"""The interpreter for the Go subset: one program's run under the detector.

An :class:`Interpreter` runs a :class:`~repro.runtime.compiler.CompiledProgram`
once: it owns the run's heap, goroutines, race detector and scheduler, and
executes the program's lowered closures (see :mod:`repro.runtime.compiler`),
lowering each function body on its first call and each package-level
initializer on its first evaluation.  It evaluates no AST itself: every Go
statement and expression, builtins included, runs as lowered code, and the
closures call back into the interpreter only for runtime services — memory
accesses and their detector records, function calls and goroutine spawns,
channels, the ``sync``/``sync/atomic`` primitives, conversions and zero
values.

Every evaluation is a Python generator: goroutines yield
:class:`~repro.runtime.goroutine.SchedulePoint` objects at memory accesses and
synchronization operations, and the :class:`~repro.runtime.scheduler.Scheduler`
decides which goroutine advances next.  Memory accesses are routed through the
:class:`~repro.runtime.race_detector.RaceDetector`, which is how the
reproduction stands in for ``go test -race``.

Deliberate semantic choices (documented in docs/architecture.md §Design choices):

* loop variables have **per-loop** scope (Go ≤ 1.21 semantics), because the
  paper's "capture of loop variable" race category depends on it;
* unbuffered channels are modelled with capacity one — the send→receive
  happens-before edge is preserved, only the rendezvous back-pressure is
  relaxed;
* struct assignment copies field cells (value semantics), pointers/slices/maps
  share state (reference semantics), mirroring Go.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import GoPanic, GoRuntimeError
from repro.golang import ast_nodes as ast
from repro.runtime.channels import Channel
from repro.runtime.goroutine import Frame, Goroutine, GoroutineState, STEP, blocked
from repro.runtime.memory import Cell, Environment
from repro.runtime.race_detector import RaceDetector
from repro.runtime.scheduler import Scheduler
from repro.runtime.sync_primitives import Mutex, Once, RWMutex, SyncMap, WaitGroup
from repro.runtime.values import (
    BuiltinFunc,
    FuncValue,
    MapValue,
    PointerValue,
    SliceValue,
    StructValue,
    TupleValue,
    TypeValue,
    format_value,
    is_truthy,
    zero_value,
)
from repro.runtime.vector_clock import SyncVar

if TYPE_CHECKING:
    from repro.runtime.compiler import CompiledProgram

#: The failure a program ends with when it overflows its stack.
STACK_OVERFLOW = "fatal error: stack overflow (goroutine stack exceeds the interpreter's limit)"


# ---------------------------------------------------------------------------
# Control-flow signals
# ---------------------------------------------------------------------------


class Signal:
    """Base class for non-linear control flow escaping a statement."""

    __slots__ = ()


@dataclass(slots=True)
class ReturnSignal(Signal):
    values: List[Any] = field(default_factory=list)


@dataclass(slots=True)
class BreakSignal(Signal):
    label: Optional[str] = None


@dataclass(slots=True)
class ContinueSignal(Signal):
    label: Optional[str] = None


class FallthroughSignal(Signal):
    """``fallthrough``: the enclosing ``switch`` runs the next clause's body."""

    __slots__ = ()


@dataclass(slots=True)
class PackageRef:
    """A reference to an imported package (``fmt``, ``sync``, ...)."""

    name: str


@dataclass(slots=True)
class BoundMethod:
    """A method value whose receiver is a runtime object handled natively."""

    receiver: Any
    name: str


@dataclass
class ProgramResult:
    """The outcome of one program execution under the detector."""

    races: List[Any] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    output: List[str] = field(default_factory=list)
    steps: int = 0
    goroutines: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


_NUMERIC_TYPES = {
    "int", "int8", "int16", "int32", "int64",
    "uint", "uint8", "uint16", "uint32", "uint64", "byte", "rune", "uintptr",
}


class Interpreter:
    """Run one compiled program: a fresh heap, detector and scheduler over
    the program's shared code.

    The program's declaration tables are read, not rebuilt; only ``types``
    is copied, because local ``type`` declarations add to it at run time."""

    def __init__(
        self,
        program: CompiledProgram,
        detector: Optional[RaceDetector] = None,
        scheduler: Optional[Scheduler] = None,
    ):
        self.program = program
        self._code = program.code
        meta = program.meta
        self.detector = detector if detector is not None else RaceDetector()
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.globals = Environment()
        self.output: List[str] = []
        self.funcs: Dict[str, ast.FuncDecl] = meta.funcs
        self.methods: Dict[Tuple[str, str], Tuple[ast.FuncDecl, Any]] = meta.methods
        self.types: Dict[str, ast.TypeSpec] = dict(meta.types)
        self.package = program.files[0].package if program.files else "main"
        self._global_specs: List[Tuple[ast.ValueSpec, str]] = meta.global_specs
        self._closure_counters: Dict[str, int] = {}
        self._atomic_syncs: Dict[int, SyncVar] = {}
        self._globals_initialized = False

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def new_goroutine(self, name: str, parent: Optional[Goroutine] = None) -> Goroutine:
        gid = self.scheduler.new_gid()
        goroutine = Goroutine(
            gid=gid,
            name=name,
            creation_stack=parent.stack_snapshot() if parent is not None else (),
        )
        self.detector.register_goroutine(gid)
        self.scheduler.register(goroutine)
        return goroutine

    def run_func(self, name: str, args: Sequence[Any] = ()) -> ProgramResult:
        """Run a single top-level function to completion (plus any goroutines
        it spawns) and return the collected result."""
        decl = self.funcs.get(name)
        if decl is None:
            raise GoRuntimeError(f"undefined function: {name}")
        func_value = FuncValue(decl=decl, name=name)

        def body(goroutine: Goroutine) -> Generator:
            yield from self.init_globals(goroutine)
            yield from self.call_function(goroutine, func_value, list(args), None)

        return self.run_program(body, name=name)

    def run_program(self, body, name: str = "main") -> ProgramResult:
        """Run ``body`` (a callable ``goroutine -> generator``) as the main goroutine."""
        main = self.new_goroutine(name=name)
        main.generator = body(main)
        result = ProgramResult()
        try:
            self.scheduler.run(main)
        except GoRuntimeError as exc:
            result.failures.append(str(exc))
        except RecursionError:
            # Out of Python stack is Go's goroutine stack overflow: the
            # program dies, keeping whatever it reported before the crash.
            result.failures.append(STACK_OVERFLOW)
        for goroutine in self.scheduler.goroutines.values():
            if goroutine.state is GoroutineState.FAILED and goroutine.failure is not None:
                result.failures.append(
                    f"goroutine {goroutine.gid} ({goroutine.name}): {goroutine.failure}"
                )
        result.races = list(self.detector.races)
        result.output = list(self.output)
        result.steps = self.scheduler.steps
        result.goroutines = len(self.scheduler.goroutines)
        return result

    def init_globals(self, goroutine: Goroutine) -> Generator:
        """Evaluate package-level variable initializers, each lowered on its
        first evaluation (see :meth:`CompiledProgram.values_code`)."""
        if self._globals_initialized:
            return
        self._globals_initialized = True
        goroutine.push_frame(Frame(func_name="init", file=self.package + ".go"))
        try:
            for spec, file_name in self._global_specs:
                goroutine.stack[-1].file = file_name
                values: List[Any] = []
                if spec.values:
                    values = yield from self.program.values_code(spec)(
                        self, goroutine, self.globals)
                for index, var_name in enumerate(spec.names):
                    if index < len(values):
                        value = values[index]
                    else:
                        value = self._zero_for_type(spec.type_)
                    cell = self.globals.declare(var_name, value)
                    cell.name = var_name
        finally:
            goroutine.pop_frame()

    def call_function(self, goroutine: Goroutine, func: FuncValue, args: List[Any],
                      node: Optional[ast.Node]) -> Generator:
        """Call a user-defined function or closure; the returned generator
        yields its schedule points and returns its value.

        A plain function handing back :meth:`_call`'s generator, so a call
        costs one generator, not two."""
        decl = func.decl
        if decl is not None:
            body = decl.body
            entry = self._code.get(id(body))
            entry = (entry[1] if entry is not None and entry[0] is body
                     else self.program.callable_entry(decl))
            return self._call(goroutine, entry, self.globals, entry[6],
                              func.name or decl.name, func.bound_receiver, args, node)
        lit = func.lit
        body = lit.body
        entry = self._code.get(id(body))
        entry = (entry[1] if entry is not None and entry[0] is body
                 else self.program.callable_entry(lit))
        if func.file:
            file_name = func.file
        else:
            file_name = goroutine.stack[-1].file if goroutine.stack else "<source>"
        return self._call(goroutine, entry,
                          func.env if func.env is not None else self.globals,
                          file_name, func.name or "func literal", None, args, node)

    def call_method(self, goroutine: Goroutine, decl: ast.FuncDecl, receiver: Any,
                    args: List[Any], node: Optional[ast.Node]) -> Generator:
        """Call the struct method ``decl`` on ``receiver``, as a method call
        ``x.m(...)`` does: no method value is built."""
        body = decl.body
        entry = self._code.get(id(body))
        entry = (entry[1] if entry is not None and entry[0] is body
                 else self.program.callable_entry(decl))
        return self._call(goroutine, entry, self.globals, entry[6], entry[7],
                          receiver, args, node)

    def _call(self, goroutine: Goroutine, entry: tuple, parent_env: Environment,
              file_name: str, name: str, receiver: Any, args: List[Any],
              node: Optional[ast.Node]) -> Generator:
        """Run one call of a callable (see
        :meth:`~repro.runtime.compiler.CompiledProgram.callable_entry`).

        Binding runs one flat loop over the entry's plan.  Declare order
        fixes cell addresses, so it follows the parameter list exactly."""
        stmt_codes, needs_scope, params, results, flat_params, line, _file, _name, \
            recv_names = entry
        if stmt_codes is None:
            raise GoRuntimeError(f"function {name} has no body")
        env = Environment(parent_env)
        cells = env.cells
        # Inlined ``Environment.declare`` throughout.
        for recv_name in recv_names:
            cell = Cell(receiver, recv_name)
            if recv_name != "_":
                cells[recv_name] = cell
        if len(args) == 1 and flat_params > 1 and isinstance(args[0], TupleValue):
            args = list(args[0].values)
        index = 0
        n_args = len(args)
        for param_name, is_variadic, type_ in params:
            if is_variadic:
                rest = [_copy_struct(v) if isinstance(v, StructValue) else v
                        for v in args[index:]]
                value = SliceValue(elements=[Cell(value=v) for v in rest], name=param_name)
                index = n_args
            else:
                value = args[index] if index < n_args else self._zero_for_type(type_)
                # Inlined ``_pass_value``: Go's value semantics copy structs.
                if isinstance(value, StructValue):
                    value = _copy_struct(value)
                index += 1
            cell = Cell(value, param_name)
            if param_name != "_":
                cells[param_name] = cell
        for result_name, result_type in results:
            cell = Cell(self._zero_for_type(result_type), result_name)
            if result_name != "_":
                cells[result_name] = cell

        frame = Frame(name, file_name, line)
        goroutine.push_frame(frame)
        return_values: List[Any] = []
        panic: Optional[BaseException] = None
        try:
            # The body block's statements, run in place.
            scope = Environment(env) if needs_scope else env
            signal = None
            for stmt_code in stmt_codes:
                signal = yield from stmt_code(self, goroutine, scope)
                if signal is not None:
                    break
            if isinstance(signal, ReturnSignal):
                return_values = signal.values
            if not return_values and results:
                # Bare return with named results.
                return_values = []
                for result_name, _result_type in results:
                    cell = env.lookup(result_name)
                    return_values.append(cell.value if cell is not None else None)
        except GoPanic as exc:
            panic = exc
        # Deferred calls run in LIFO order even when unwinding a panic.
        if frame.deferred:
            for deferred_func, deferred_args in reversed(frame.deferred):
                yield from self._invoke(goroutine, deferred_func, list(deferred_args), node)
        goroutine.pop_frame()
        if panic is not None:
            raise panic
        if len(return_values) == 1:
            return return_values[0]
        if return_values:
            return TupleValue(values=return_values)
        return None

    # ------------------------------------------------------------------
    # Memory access bookkeeping
    # ------------------------------------------------------------------

    def _record_access(self, goroutine: Goroutine, cell: Cell, is_write: bool,
                       node: Optional[ast.Node]) -> None:
        line = node.pos.line if node is not None and node.pos.line else None
        access = self.detector.on_write if is_write else self.detector.on_read
        access(goroutine.gid, cell, goroutine.stack_snapshot(leaf_line=line),
               goroutine.creation_stack)

    def read_cell(self, goroutine: Goroutine, cell: Cell, node: Optional[ast.Node]) -> Generator:
        yield STEP
        self._record_access(goroutine, cell, is_write=False, node=node)
        return cell.value

    def write_cell(self, goroutine: Goroutine, cell: Cell, value: Any,
                   node: Optional[ast.Node]) -> Generator:
        yield STEP
        self._record_access(goroutine, cell, is_write=True, node=node)
        cell.value = value
        return None

    # ------------------------------------------------------------------
    # Calling functions
    # ------------------------------------------------------------------

    def _pass_value(self, value: Any) -> Any:
        """Apply Go's value semantics when passing/assigning: structs copy."""
        if isinstance(value, StructValue):
            return _copy_struct(value)
        return value

    def _invoke(self, goroutine: Goroutine, callee: Any, args: List[Any],
                node: Optional[ast.Node]) -> Generator:
        """Invoke any callable runtime value: the generator of the call,
        with no generator level of its own."""
        if isinstance(callee, FuncValue):
            return self.call_function(goroutine, callee, args, node)
        if isinstance(callee, BuiltinFunc):
            return callee.handler(self, goroutine, args, node)
        if isinstance(callee, BoundMethod):
            return self.call_native_method(goroutine, callee.receiver, callee.name, args, node)
        if isinstance(callee, TypeValue):
            return _returning(self._convert(callee, args))
        raise GoRuntimeError(f"cannot call value of type {type(callee).__name__}")

    # ------------------------------------------------------------------
    # Goroutine spawning
    # ------------------------------------------------------------------

    def spawn(self, parent: Goroutine, callee: Any, args: List[Any],
              node: Optional[ast.Node]) -> Goroutine:
        name = callee.display_name() if isinstance(callee, FuncValue) else "goroutine"
        child = self.new_goroutine(name=name, parent=parent)
        self.detector.on_fork(parent.gid, child.gid)

        def body() -> Generator:
            yield STEP
            yield from self._invoke(child, callee, args, node)

        child.generator = body()
        return child

    # ------------------------------------------------------------------
    # Channels and ranges
    # ------------------------------------------------------------------

    def channel_send(self, goroutine: Goroutine, channel: Any, value: Any) -> Generator:
        if not isinstance(channel, Channel):
            raise GoPanic("send on nil channel" if channel is None else "send on non-channel value")
        while not channel.can_send():
            yield blocked(channel.can_send, f"send on full channel {channel.name}")
        self.detector.on_release(goroutine.gid, channel.sync)
        channel.send(self._pass_value(value))
        yield STEP

    def channel_recv(self, goroutine: Goroutine, channel: Any) -> Generator:
        if not isinstance(channel, Channel):
            if channel is None:
                yield blocked(lambda: False, "receive on nil channel")
                raise GoRuntimeError("receive on nil channel")
            raise GoRuntimeError("receive on non-channel value")
        while not channel.can_recv():
            yield blocked(channel.can_recv, f"receive on empty channel {channel.name}")
        value, ok = channel.recv()
        self.detector.on_acquire(goroutine.gid, channel.sync)
        yield STEP
        return value, ok

    def _range_items(self, goroutine: Goroutine, container: Any,
                     stmt: ast.RangeStmt) -> Generator:
        if isinstance(container, SliceValue):
            items = []
            for index, cell in enumerate(list(container.elements)):
                value = yield from self.read_cell(goroutine, cell, stmt)
                items.append((index, value))
            return items
        if isinstance(container, MapValue):
            yield from self.read_cell(goroutine, container.location, stmt)
            return [(k, v) for k, v in list(container.entries.items())]
        if isinstance(container, SyncMap):
            return list(container.snapshot())
        if isinstance(container, Channel):
            items = []
            while True:
                if not container.can_recv() and container.closed:
                    break
                value, ok = yield from self.channel_recv(goroutine, container)
                if not ok:
                    break
                items.append((len(items), value))
            return items
        if isinstance(container, str):
            return list(enumerate(container))
        if isinstance(container, int):
            return [(i, i) for i in range(container)]
        if container is None:
            return []
        raise GoRuntimeError(f"cannot range over {format_value(container)}")

    # ------------------------------------------------------------------
    # Closures, types and zero values
    # ------------------------------------------------------------------

    def _make_closure(self, goroutine: Goroutine, expr: ast.FuncLit, env: Environment) -> FuncValue:
        enclosing = goroutine.stack[-1].func_name if goroutine.stack else "main"
        file_name = goroutine.stack[-1].file if goroutine.stack else "<source>"
        counter = self._closure_counters.get(enclosing, 0) + 1
        self._closure_counters[enclosing] = counter
        return FuncValue(lit=expr, env=env, name=f"{enclosing}.func{counter}", file=file_name)

    def _resolve_type(self, type_expr: ast.Expr | None) -> ast.Expr | None:
        """Follow named types to their underlying definition (one level deep chains)."""
        seen = 0
        current = type_expr
        while isinstance(current, ast.Ident) and current.name in self.types and seen < 16:
            current = self.types[current.name].type_
            seen += 1
        return current

    def _new_struct(self, type_expr: ast.Expr | None) -> StructValue:
        name = _type_display(type_expr)
        struct = StructValue(type_name=name)
        underlying = self._resolve_type(type_expr)
        if isinstance(underlying, ast.StructType):
            for field_decl in underlying.fields:
                for field_name in field_decl.names:
                    struct.fields[field_name] = Cell(
                        value=self._zero_for_type(field_decl.type_),
                        name=f"{name}.{field_name}",
                    )
                if not field_decl.names:
                    embedded = _type_display(field_decl.type_)
                    short = embedded.split(".")[-1]
                    struct.fields[short] = Cell(
                        value=self._zero_for_type(field_decl.type_), name=f"{name}.{short}"
                    )
        return struct

    def _zero_for_type(self, type_expr: ast.Expr | None) -> Any:
        sync_value = _sync_zero(type_expr)
        if sync_value is not None:
            return sync_value
        underlying = self._resolve_type(type_expr)
        if underlying is not type_expr:
            sync_value = _sync_zero(underlying)
            if sync_value is not None:
                return sync_value
        if isinstance(underlying, ast.StructType):
            return self._new_struct(type_expr)
        return zero_value(underlying if underlying is not None else type_expr)

    # ------------------------------------------------------------------
    # Methods of runtime objects
    # ------------------------------------------------------------------

    def call_native_method(self, goroutine: Goroutine, receiver: Any, name: str,
                           args: List[Any], node: Optional[ast.Node]) -> Generator:
        """Call method ``name`` of a runtime object (a ``sync`` primitive or
        a value with ``go_call``): the generator of the call, with no
        generator level of its own."""
        if isinstance(receiver, Mutex):
            return self._mutex_call(goroutine, receiver, name)
        if isinstance(receiver, RWMutex):
            return self._rwmutex_call(goroutine, receiver, name)
        if isinstance(receiver, WaitGroup):
            return self._waitgroup_call(goroutine, receiver, name, args)
        if isinstance(receiver, SyncMap):
            return self._syncmap_call(goroutine, receiver, name, args, node)
        if isinstance(receiver, Once):
            return self._once_call(goroutine, receiver, name, args, node)
        if hasattr(receiver, "go_call"):
            return receiver.go_call(self, goroutine, name, args, node)
        raise GoRuntimeError(
            f"unsupported method {name} on {type(receiver).__name__}"
        )

    # -- sync primitive methods ----------------------------------------------------------

    def _mutex_call(self, goroutine: Goroutine, mutex: Mutex, name: str) -> Generator:
        if name == "Lock":
            while not mutex.can_lock():
                yield blocked(mutex.can_lock, "sync.Mutex.Lock")
            mutex.lock(goroutine.gid)
            self.detector.on_acquire(goroutine.gid, mutex.sync)
            yield STEP
            return None
        if name == "Unlock":
            self.detector.on_release(goroutine.gid, mutex.sync)
            mutex.unlock()
            yield STEP
            return None
        if name == "TryLock":
            if mutex.can_lock():
                mutex.lock(goroutine.gid)
                self.detector.on_acquire(goroutine.gid, mutex.sync)
                return True
            return False
        raise GoRuntimeError(f"sync.Mutex has no method {name}")

    def _rwmutex_call(self, goroutine: Goroutine, mutex: RWMutex, name: str) -> Generator:
        if name == "Lock":
            while not mutex.can_lock():
                yield blocked(mutex.can_lock, "sync.RWMutex.Lock")
            mutex.lock(goroutine.gid)
            self.detector.on_acquire(goroutine.gid, mutex.sync)
            yield STEP
            return None
        if name == "Unlock":
            self.detector.on_release(goroutine.gid, mutex.sync)
            mutex.unlock()
            yield STEP
            return None
        if name == "RLock":
            while not mutex.can_rlock():
                yield blocked(mutex.can_rlock, "sync.RWMutex.RLock")
            mutex.rlock()
            self.detector.on_acquire(goroutine.gid, mutex.sync)
            yield STEP
            return None
        if name == "RUnlock":
            self.detector.on_release(goroutine.gid, mutex.sync)
            mutex.runlock()
            yield STEP
            return None
        raise GoRuntimeError(f"sync.RWMutex has no method {name}")

    def _waitgroup_call(self, goroutine: Goroutine, group: WaitGroup, name: str,
                        args: List[Any]) -> Generator:
        if name == "Add":
            group.add(int(args[0]) if args else 1)
            yield STEP
            return None
        if name == "Done":
            self.detector.on_release(goroutine.gid, group.sync)
            group.done()
            yield STEP
            return None
        if name == "Wait":
            while not group.ready():
                yield blocked(group.ready, "sync.WaitGroup.Wait")
            self.detector.on_acquire(goroutine.gid, group.sync)
            yield STEP
            return None
        raise GoRuntimeError(f"sync.WaitGroup has no method {name}")

    def _syncmap_call(self, goroutine: Goroutine, sync_map: SyncMap, name: str,
                      args: List[Any], node: Optional[ast.Node]) -> Generator:
        # Every sync.Map operation is internally synchronized: acquire then release.
        self.detector.on_acquire(goroutine.gid, sync_map.sync)
        yield STEP
        result: Any = None
        if name == "Load":
            value, ok = sync_map.load(_map_key(args[0]))
            result = TupleValue(values=[value, ok])
        elif name == "Store":
            sync_map.store(_map_key(args[0]), args[1] if len(args) > 1 else None)
        elif name == "LoadOrStore":
            value, loaded = sync_map.load_or_store(_map_key(args[0]), args[1] if len(args) > 1 else None)
            result = TupleValue(values=[value, loaded])
        elif name == "Delete":
            sync_map.delete(_map_key(args[0]))
        elif name == "Range":
            callback = args[0]
            self.detector.on_release(goroutine.gid, sync_map.sync)
            for key, value in sync_map.snapshot():
                keep_going = yield from self._invoke(goroutine, callback, [key, value], node)
                if not is_truthy(keep_going):
                    break
            return None
        else:
            raise GoRuntimeError(f"sync.Map has no method {name}")
        self.detector.on_release(goroutine.gid, sync_map.sync)
        return result

    def _once_call(self, goroutine: Goroutine, once: Once, name: str, args: List[Any],
                   node: Optional[ast.Node]) -> Generator:
        if name != "Do":
            raise GoRuntimeError(f"sync.Once has no method {name}")
        while not once.can_enter():
            yield blocked(once.can_enter, "sync.Once.Do")
        self.detector.on_acquire(goroutine.gid, once.sync)
        if once.should_run():
            once.running = True
            try:
                yield from self._invoke(goroutine, args[0], [], node)
            finally:
                once.running = False
                once.done = True
        self.detector.on_release(goroutine.gid, once.sync)
        return None

    # -- atomic operations (used by the stdlib shims) -------------------------------------

    def atomic_sync_for(self, cell: Cell) -> SyncVar:
        sync = self._atomic_syncs.get(cell.address)
        if sync is None:
            sync = SyncVar()
            self._atomic_syncs[cell.address] = sync
        return sync

    def atomic_rmw(self, goroutine: Goroutine, pointer: PointerValue, update,
                   node: Optional[ast.Node]) -> Generator:
        """Perform an atomic read-modify-write on the pointed-to cell.

        The whole operation executes at a single scheduling point (no yields
        between the read and the write), which is what makes it atomic with
        respect to other goroutines.
        """
        if pointer is None or pointer.cell is None:
            raise GoPanic("atomic operation on nil pointer")
        cell = pointer.cell
        sync = self.atomic_sync_for(cell)
        yield STEP
        self.detector.on_acquire(goroutine.gid, sync)
        self._record_access(goroutine, cell, is_write=False, node=node)
        old = cell.value
        new = update(old if old is not None else 0)
        self._record_access(goroutine, cell, is_write=True, node=node)
        cell.value = new
        self.detector.on_release(goroutine.gid, sync)
        return old, new

    def atomic_load(self, goroutine: Goroutine, pointer: PointerValue,
                    node: Optional[ast.Node]) -> Generator:
        if pointer is None or pointer.cell is None:
            raise GoPanic("atomic load of nil pointer")
        sync = self.atomic_sync_for(pointer.cell)
        yield STEP
        self.detector.on_acquire(goroutine.gid, sync)
        self._record_access(goroutine, pointer.cell, is_write=False, node=node)
        value = pointer.cell.value
        self.detector.on_release(goroutine.gid, sync)
        return value if value is not None else 0

    # -- type conversions ------------------------------------------------------------------

    def _convert(self, type_value: TypeValue, args: List[Any]) -> Any:
        if not args:
            return None
        value = args[0]
        name = type_value.name or _type_display(type_value.expr)
        base = name.split(".")[-1]
        if base in _NUMERIC_TYPES:
            if isinstance(value, str) and len(value) == 1:
                return ord(value)
            return int(value or 0)
        if base in ("float32", "float64"):
            return float(value or 0)
        if base == "string":
            if isinstance(value, int):
                return chr(value)
            return "" if value is None else str(value)
        if base == "bool":
            return bool(value)
        if base in ("Duration",):
            return int(value or 0)
        return value


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _type_display(type_expr: ast.Expr | None) -> str:
    if type_expr is None:
        return ""
    if isinstance(type_expr, ast.Ident):
        return type_expr.name
    if isinstance(type_expr, ast.SelectorExpr):
        # Unqualified name: methods are looked up by the local type name.
        return type_expr.sel
    if isinstance(type_expr, ast.StarExpr):
        return _type_display(type_expr.x)
    from repro.golang.printer import print_node

    return print_node(type_expr)


def _sync_zero(type_expr: ast.Expr | None) -> Any:
    """Materialize zero values for ``sync`` package types."""
    name = None
    if isinstance(type_expr, ast.SelectorExpr) and isinstance(type_expr.x, ast.Ident) \
            and type_expr.x.name == "sync":
        name = type_expr.sel
    if name == "Mutex":
        return Mutex()
    if name == "RWMutex":
        return RWMutex()
    if name == "WaitGroup":
        return WaitGroup()
    if name == "Map":
        return SyncMap()
    if name == "Once":
        return Once()
    return None


def _returning(value: Any) -> Generator:
    """A generator that yields nothing and returns ``value``."""
    if False:  # pragma: no cover - keeps this a generator
        yield STEP
    return value


def _copy_struct(value: StructValue) -> StructValue:
    clone = StructValue(type_name=value.type_name)
    for name, cell in value.fields.items():
        inner = cell.value
        if isinstance(inner, StructValue):
            inner = _copy_struct(inner)
        clone.fields[name] = Cell(value=inner, name=cell.name)
    return clone


def _map_key(key: Any) -> Any:
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    if isinstance(key, StructValue):
        return tuple(sorted((name, _map_key(cell.value)) for name, cell in key.fields.items()))
    return id(key)
