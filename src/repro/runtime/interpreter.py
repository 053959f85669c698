"""The interpreter for the Go subset: one program's run under the detector.

An :class:`Interpreter` runs a :class:`~repro.runtime.compiler.CompiledProgram`
once: it owns the run's heap, goroutines, race detector and scheduler, and
executes the program's lowered closures (see :mod:`repro.runtime.compiler`),
lowering each function body on its first call.  The closures call back into
the interpreter for the runtime services: memory accesses, calls and
goroutine spawns, channels, ``select``, ``switch``, declarations, the
``sync``/``sync/atomic`` primitives and the builtins.

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
from repro.runtime import stdlib
from repro.runtime.channels import Channel
from repro.runtime.goroutine import Frame, Goroutine, GoroutineState, STEP, blocked
from repro.runtime.memory import Cell, Environment
from repro.runtime.race_detector import AccessRecord, RaceDetector
from repro.runtime.scheduler import Scheduler
from repro.runtime.sync_primitives import Mutex, Once, RWMutex, SyncMap, WaitGroup
from repro.runtime.values import (
    BuiltinFunc,
    ErrorValue,
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
        self.methods: Dict[Tuple[str, str], ast.FuncDecl] = meta.methods
        self.types: Dict[str, ast.TypeSpec] = dict(meta.types)
        self.package = program.files[0].package if program.files else "main"
        self._func_files: Dict[int, str] = meta.func_files
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
            parent_gid=parent.gid if parent is not None else None,
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
        result.steps = self.scheduler.stats.steps
        result.goroutines = len(self.scheduler.goroutines)
        return result

    def init_globals(self, goroutine: Goroutine) -> Generator:
        """Evaluate package-level variable initializers."""
        if self._globals_initialized:
            return
        self._globals_initialized = True
        goroutine.push_frame(Frame(func_name="init", file=self.package + ".go"))
        try:
            for spec, file_name in self._global_specs:
                goroutine.stack[-1].file = file_name
                values: List[Any] = []
                for expr in spec.values:
                    value = yield from self.eval_expr(goroutine, expr, self.globals)
                    values.append(value)
                for index, var_name in enumerate(spec.names):
                    if index < len(values):
                        value = values[index]
                    else:
                        value = self._zero_for_type(spec.type_)
                    cell = self.globals.declare(var_name, value)
                    cell.name = var_name
        finally:
            goroutine.pop_frame()

    # ------------------------------------------------------------------
    # Dispatch into the compiled code
    # ------------------------------------------------------------------

    def eval_expr(self, goroutine: Goroutine, expr: ast.Expr, env: Environment) -> Generator:
        entry = self._code.get(id(expr))
        if entry is None or entry[0] is not expr:
            closure = self.program.expr_code(expr)
        else:
            closure = entry[1]
        result = yield from closure(self, goroutine, env)
        return result

    def exec_stmt(self, goroutine: Goroutine, stmt: ast.Stmt, env: Environment) -> Generator:
        entry = self._code.get(id(stmt))
        if entry is None or entry[0] is not stmt:
            closure = self.program.stmt_code(stmt)
        else:
            closure = entry[1]
        signal = yield from closure(self, goroutine, env)
        return signal

    def eval_expr_multi(self, goroutine: Goroutine, expr: ast.Expr, env: Environment,
                        n_targets: int) -> Generator:
        """Evaluate the one right-hand side of an ``n_targets``-target
        assignment or declaration to a list of values.

        The comma-ok forms (map or slice index, receive, type assertion)
        yield a value and a flag; anything else yields its tuple's values,
        or itself.  The caller pads the list to ``n_targets``."""
        while isinstance(expr, ast.ParenExpr):
            expr = expr.x
        if isinstance(expr, ast.IndexExpr):
            container = yield from self.eval_expr(goroutine, expr.x, env)
            key = yield from self.eval_expr(goroutine, expr.index, env)
            if isinstance(container, MapValue):
                yield from self.read_cell(goroutine, container.location, expr)
                key = _map_key(key)
                return [container.entries.get(key), key in container.entries]
            if isinstance(container, SyncMap):
                return list(container.load(_map_key(key)))
            if isinstance(container, SliceValue):
                index = int(key)
                if index < 0 or index >= len(container.elements):
                    raise GoPanic(
                        f"runtime error: index out of range [{index}] with length "
                        f"{len(container.elements)}")
                value = yield from self.read_cell(goroutine, container.elements[index], expr)
                return [value, True]
            if isinstance(container, str):
                return [container[int(key)], True]
            if container is None:
                # Reading from a nil map yields the zero value.
                return [None, False]
            raise GoRuntimeError(f"cannot index {format_value(container)}")
        if isinstance(expr, ast.UnaryExpr) and expr.op == "<-":
            channel = yield from self.eval_expr(goroutine, expr.x, env)
            value, ok = yield from self.channel_recv(goroutine, channel, expr)
            return [value, ok]
        if isinstance(expr, ast.TypeAssertExpr):
            inner = yield from self.eval_expr(goroutine, expr.x, env)
            return [inner, inner is not None]
        value = yield from self.eval_expr(goroutine, expr, env)
        if isinstance(value, TupleValue):
            return list(value.values)
        return [value]

    def call_function(self, goroutine: Goroutine, func: FuncValue, args: List[Any],
                      node: Optional[ast.Node]) -> Generator:
        """Call a user-defined function or closure and return its value.

        The parameter/result binding plan is derived from the function type
        once per program (see :func:`repro.runtime.compiler._build_call_plan`);
        binding then runs one flat loop.  Declare order fixes cell
        addresses, so it follows the parameter list exactly."""
        code = self._code
        decl = func.decl
        if decl is not None:
            body = decl.body
            func_type = decl.type_
            parent_env = self.globals
            file_name = self._func_files.get(id(decl), "<source>")
        else:
            lit = func.lit
            body = lit.body
            func_type = lit.type_
            parent_env = func.env if func.env is not None else self.globals
            if func.file:
                file_name = func.file
            else:
                file_name = goroutine.stack[-1].file if goroutine.stack else "<source>"
        if body is None:
            raise GoRuntimeError(f"function {func.display_name()} has no body")
        plan_entry = code.get(id(func_type))
        if plan_entry is not None and plan_entry[0] is func_type:
            params, results, flat_params = plan_entry[1]
        else:
            params, results, flat_params = self.program.call_plan(func_type)

        env = Environment(parent=parent_env)
        if decl is not None and decl.recv is not None:
            receiver_value = func.bound_receiver
            for recv_name in decl.recv.names:
                env.declare(recv_name, receiver_value)
        if len(args) == 1 and isinstance(args[0], TupleValue) and flat_params > 1:
            args = list(args[0].values)
        index = 0
        n_args = len(args)
        for name, is_variadic, type_ in params:
            if is_variadic:
                rest = [_copy_struct(v) if isinstance(v, StructValue) else v
                        for v in args[index:]]
                env.declare(name, SliceValue(elements=[Cell(value=v) for v in rest],
                                             name=name))
                index = n_args
            else:
                value = args[index] if index < n_args else self._zero_for_type(type_)
                # Inlined ``_pass_value``: Go's value semantics copy structs.
                if isinstance(value, StructValue):
                    value = _copy_struct(value)
                env.declare(name, value)
                index += 1
        for result_name, result_type in results:
            env.declare(result_name, self._zero_for_type(result_type))

        entry = code.get(id(body))
        if entry is None or entry[0] is not body:
            block_code = self.program.block_code(body)
        else:
            block_code = entry[1]
        frame = Frame(func_name=func.display_name(), file=file_name, line=body.pos.line)
        goroutine.push_frame(frame)
        return_values: List[Any] = []
        panic: Optional[BaseException] = None
        try:
            signal = yield from block_code(self, goroutine, env)
            if isinstance(signal, ReturnSignal):
                return_values = signal.values
            if not return_values and func_type.results:
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
        record = AccessRecord(
            goroutine_id=goroutine.gid,
            is_write=is_write,
            stack=goroutine.stack_snapshot(leaf_line=line),
            variable=cell.name,
            address=cell.address,
            creation_stack=goroutine.creation_stack,
        )
        if is_write:
            self.detector.on_write(goroutine.gid, cell, record)
        else:
            self.detector.on_read(goroutine.gid, cell, record)

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
        """Invoke any callable runtime value."""
        if isinstance(callee, FuncValue):
            result = yield from self.call_function(goroutine, callee, args, node)
            return result
        if isinstance(callee, BuiltinFunc):
            result = yield from callee.handler(self, goroutine, args, node)
            return result
        if isinstance(callee, BoundMethod):
            result = yield from self.call_bound_method(goroutine, callee, args, node)
            return result
        if isinstance(callee, TypeValue):
            return self._convert(callee, args)
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
    # Statements the compiled code delegates
    # ------------------------------------------------------------------

    # -- assignments --------------------------------------------------------------------

    def _eval_rhs(self, goroutine: Goroutine, rhs: List[ast.Expr], n_targets: int,
                  env: Environment) -> Generator:
        values: List[Any] = []
        if len(rhs) == 1 and n_targets > 1:
            value = yield from self.eval_expr_multi(goroutine, rhs[0], env, n_targets)
            values = value
        else:
            for expr in rhs:
                value = yield from self.eval_expr(goroutine, expr, env)
                if isinstance(value, TupleValue):
                    value = value.values[0] if value.values else None
                values.append(value)
        while len(values) < n_targets:
            values.append(None)
        return values

    def assign_to(self, goroutine: Goroutine, target: ast.Expr, value: Any,
                  env: Environment, define: bool) -> Generator:
        value = self._pass_value(value)
        if isinstance(target, ast.Ident):
            if target.name == "_":
                return
            if define:
                if env.is_local(target.name):
                    cell = env.cells[target.name]
                else:
                    cell = env.declare(target.name)
                    cell.name = target.name
                yield from self.write_cell(goroutine, cell, value, target)
                return
            cell = env.lookup(target.name)
            if cell is None:
                raise GoRuntimeError(f"undefined: {target.name}")
            yield from self.write_cell(goroutine, cell, value, target)
            return
        if isinstance(target, ast.SelectorExpr):
            base = yield from self.eval_expr(goroutine, target.x, env)
            struct = _as_struct(base)
            if struct is None:
                raise GoRuntimeError(
                    f"cannot assign to field {target.sel} of {format_value(base)}"
                )
            owner = ast.base_name(target) or struct.type_name
            cell = struct.field_cell(target.sel, owner_name=owner)
            yield from self.write_cell(goroutine, cell, value, target)
            return
        if isinstance(target, ast.IndexExpr):
            container = yield from self.eval_expr(goroutine, target.x, env)
            key = yield from self.eval_expr(goroutine, target.index, env)
            if isinstance(container, MapValue):
                yield from self.write_cell(goroutine, container.location, len(container.entries), target)
                container.entries[_map_key(key)] = value
                return
            if isinstance(container, SyncMap):
                container.store(_map_key(key), value)
                return
            if isinstance(container, SliceValue):
                index = int(key)
                if index >= len(container.elements) or index < 0:
                    raise GoPanic(f"runtime error: index out of range [{index}] with length {len(container.elements)}")
                yield from self.write_cell(goroutine, container.elements[index], value, target)
                return
            if container is None:
                raise GoPanic("assignment to entry in nil map")
            raise GoRuntimeError(f"cannot index into {format_value(container)}")
        if isinstance(target, ast.StarExpr):
            pointer = yield from self.eval_expr(goroutine, target.x, env)
            if not isinstance(pointer, PointerValue) or pointer.cell is None:
                raise GoPanic("invalid memory address or nil pointer dereference")
            yield from self.write_cell(goroutine, pointer.cell, value, target)
            return
        if isinstance(target, ast.ParenExpr):
            yield from self.assign_to(goroutine, target.x, value, env, define)
            return
        raise GoRuntimeError(f"cannot assign to {type(target).__name__}")

    def exec_decl_stmt(self, goroutine: Goroutine, stmt: ast.DeclStmt,
                       env: Environment) -> Generator:
        decl = stmt.decl
        if decl.tok == "type":
            for spec in decl.specs:
                if isinstance(spec, ast.TypeSpec):
                    self.types[spec.name] = spec
            return
        for spec in decl.specs:
            if not isinstance(spec, ast.ValueSpec):
                continue
            values: List[Any] = []
            if spec.values:
                values = yield from self._eval_rhs(goroutine, spec.values, len(spec.names), env)
            for index, name in enumerate(spec.names):
                if index < len(values) and spec.values:
                    value = self._pass_value(values[index])
                else:
                    value = self._zero_for_type(spec.type_)
                cell = env.declare(name, value)
                cell.name = name

    # -- concurrency statements ----------------------------------------------------------

    def channel_send(self, goroutine: Goroutine, channel: Any, value: Any,
                     node: Optional[ast.Node]) -> Generator:
        if not isinstance(channel, Channel):
            raise GoPanic("send on nil channel" if channel is None else "send on non-channel value")
        while not channel.can_send():
            yield blocked(channel.can_send, f"send on full channel {channel.name}")
        self.detector.on_release(goroutine.gid, channel.sync)
        channel.send(self._pass_value(value))
        yield STEP

    def channel_recv(self, goroutine: Goroutine, channel: Any,
                     node: Optional[ast.Node]) -> Generator:
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

    # -- structured statements -----------------------------------------------------------

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
                value, ok = yield from self.channel_recv(goroutine, container, stmt)
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

    def exec_switch(self, goroutine: Goroutine, stmt: ast.SwitchStmt,
                    env: Environment) -> Generator:
        scope = env.child()
        if stmt.init is not None:
            yield from self.exec_stmt(goroutine, stmt.init, scope)
        tag: Any = True
        if stmt.tag is not None:
            tag = yield from self.eval_expr(goroutine, stmt.tag, scope)
        chosen: Optional[ast.CaseClause] = None
        default: Optional[ast.CaseClause] = None
        for case in stmt.cases:
            if not case.exprs:
                default = case
                continue
            for expr in case.exprs:
                value = yield from self.eval_expr(goroutine, expr, scope)
                matches = _values_equal(tag, value) if stmt.tag is not None else is_truthy(value)
                if matches:
                    chosen = case
                    break
            if chosen is not None:
                break
        target = chosen if chosen is not None else default
        if target is None:
            return None
        for inner in target.body:
            signal = yield from self.exec_stmt(goroutine, inner, scope)
            if isinstance(signal, BreakSignal) and signal.label is None:
                return None
            if isinstance(signal, Signal):
                return signal
        return None

    def exec_select(self, goroutine: Goroutine, stmt: ast.SelectStmt,
                    env: Environment) -> Generator:
        scope = env.child()
        # Pre-evaluate the channel expressions of each case once.
        cases: List[Tuple[ast.CommClause, Optional[Channel], str, Any]] = []
        default_case: Optional[ast.CommClause] = None
        for case in stmt.cases:
            if case.comm is None:
                default_case = case
                continue
            direction, channel_expr, value_expr = _select_comm_parts(case.comm)
            channel = yield from self.eval_expr(goroutine, channel_expr, scope)
            cases.append((case, channel, direction, value_expr))

        def ready_cases() -> List[int]:
            ready = []
            for index, (_, channel, direction, _) in enumerate(cases):
                if not isinstance(channel, Channel):
                    continue
                if direction == "recv" and channel.can_recv():
                    ready.append(index)
                elif direction == "send" and channel.can_send():
                    ready.append(index)
            return ready

        while True:
            ready = ready_cases()
            if ready:
                choice = ready[self.scheduler.random.randrange(len(ready))]
                case, channel, direction, value_expr = cases[choice]
                if direction == "recv":
                    value, ok = yield from self.channel_recv(goroutine, channel, case)
                    yield from self._bind_select_recv(goroutine, case.comm, value, ok, scope)
                else:
                    send_value = yield from self.eval_expr(goroutine, value_expr, scope)
                    yield from self.channel_send(goroutine, channel, send_value, case)
                break
            if default_case is not None:
                case = default_case
                break
            yield blocked(lambda: bool(ready_cases()), "select with no ready case")
        for inner in case.body:
            signal = yield from self.exec_stmt(goroutine, inner, scope)
            if isinstance(signal, BreakSignal) and signal.label is None:
                return None
            if isinstance(signal, Signal):
                return signal
        return None

    def _bind_select_recv(self, goroutine: Goroutine, comm: ast.Stmt, value: Any, ok: bool,
                          scope: Environment) -> Generator:
        if isinstance(comm, ast.AssignStmt):
            targets = comm.lhs
            values = [value, ok][: len(targets)]
            for target, bound in zip(targets, values):
                yield from self.assign_to(goroutine, target, bound, scope, define=comm.tok == ":=")
        return None

    # ------------------------------------------------------------------
    # Expressions the compiled code delegates
    # ------------------------------------------------------------------

    def _select_from_value(self, goroutine: Goroutine, base: Any,
                           expr: ast.SelectorExpr) -> Generator:
        """Select ``expr.sel`` from an already pointer-unwrapped base value."""
        sel = expr.sel
        if isinstance(base, PackageRef):
            member = stdlib.get_member(base.name, sel)
            if member is not None:
                return member
            return TypeValue(expr=expr, name=f"{base.name}.{sel}")
        if isinstance(base, StructValue):
            method = self.methods.get((base.type_name, sel))
            if method is not None and sel not in base.fields:
                receiver: Any = base
                if method.recv is not None and isinstance(method.recv.type_, ast.StarExpr):
                    receiver = PointerValue(struct=base)
                return FuncValue(decl=method, name=f"{base.type_name}.{sel}",
                                 bound_receiver=receiver)
            owner = ast.base_name(expr) or base.type_name
            cell = base.field_cell(sel, owner_name=owner)
            value = yield from self.read_cell(goroutine, cell, expr)
            return value
        if isinstance(base, (Mutex, RWMutex, WaitGroup, SyncMap, Once, Channel)):
            return BoundMethod(receiver=base, name=sel)
        if isinstance(base, ErrorValue):
            if sel == "Error":
                return BuiltinFunc(name="Error", handler=_make_const_handler(base.message))
            return BoundMethod(receiver=base, name=sel)
        if hasattr(base, "go_call"):
            return BoundMethod(receiver=base, name=sel)
        if base is None:
            raise GoPanic(f"invalid memory address or nil pointer dereference (selecting .{sel})")
        raise GoRuntimeError(f"cannot select .{sel} from {format_value(base)}")

    def _eval_address_of(self, goroutine: Goroutine, target: ast.Expr,
                         env: Environment) -> Generator:
        if isinstance(target, ast.Ident):
            cell = env.lookup(target.name)
            if cell is None:
                raise GoRuntimeError(f"undefined: {target.name}")
            yield STEP
            return PointerValue(cell=cell)
        if isinstance(target, ast.SelectorExpr):
            base = yield from self.eval_expr(goroutine, target.x, env)
            struct = _as_struct(base)
            if struct is None:
                raise GoRuntimeError(f"cannot take address of field {target.sel}")
            owner = ast.base_name(target) or struct.type_name
            return PointerValue(cell=struct.field_cell(target.sel, owner_name=owner))
        if isinstance(target, ast.CompositeLit):
            value = yield from self.eval_expr(goroutine, target, env)
            if isinstance(value, StructValue):
                return PointerValue(struct=value)
            return PointerValue(cell=Cell(value=value, name="composite"))
        if isinstance(target, ast.IndexExpr):
            container = yield from self.eval_expr(goroutine, target.x, env)
            key = yield from self.eval_expr(goroutine, target.index, env)
            if isinstance(container, SliceValue):
                return PointerValue(cell=container.elements[int(key)])
            raise GoRuntimeError("cannot take address of map element")
        value = yield from self.eval_expr(goroutine, target, env)
        return PointerValue(cell=Cell(value=value, name="temp"))

    def _eval_slice_expr(self, goroutine: Goroutine, expr: ast.SliceExpr,
                         env: Environment) -> Generator:
        container = yield from self.eval_expr(goroutine, expr.x, env)
        low = 0
        if expr.low is not None:
            low_value = yield from self.eval_expr(goroutine, expr.low, env)
            low = int(low_value)
        if isinstance(container, SliceValue):
            high = len(container.elements)
            if expr.high is not None:
                high_value = yield from self.eval_expr(goroutine, expr.high, env)
                high = int(high_value)
            return SliceValue(elements=container.elements[low:high], name=container.name)
        if isinstance(container, str):
            high = len(container)
            if expr.high is not None:
                high_value = yield from self.eval_expr(goroutine, expr.high, env)
                high = int(high_value)
            return container[low:high]
        raise GoRuntimeError(f"cannot slice {format_value(container)}")

    def _make_closure(self, goroutine: Goroutine, expr: ast.FuncLit, env: Environment) -> FuncValue:
        enclosing = goroutine.stack[-1].func_name if goroutine.stack else "main"
        file_name = goroutine.stack[-1].file if goroutine.stack else "<source>"
        counter = self._closure_counters.get(enclosing, 0) + 1
        self._closure_counters[enclosing] = counter
        return FuncValue(lit=expr, env=env, name=f"{enclosing}.func{counter}", file=file_name)

    # -- types and zero values -----------------------------------------------------------

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

    def call_bound_method(self, goroutine: Goroutine, bound: BoundMethod, args: List[Any],
                          node: Optional[ast.Node]) -> Generator:
        receiver = bound.receiver
        name = bound.name
        if isinstance(receiver, Mutex):
            result = yield from self._mutex_call(goroutine, receiver, name)
            return result
        if isinstance(receiver, RWMutex):
            result = yield from self._rwmutex_call(goroutine, receiver, name)
            return result
        if isinstance(receiver, WaitGroup):
            result = yield from self._waitgroup_call(goroutine, receiver, name, args)
            return result
        if isinstance(receiver, SyncMap):
            result = yield from self._syncmap_call(goroutine, receiver, name, args, node)
            return result
        if isinstance(receiver, Once):
            result = yield from self._once_call(goroutine, receiver, name, args, node)
            return result
        if hasattr(receiver, "go_call"):
            result = yield from receiver.go_call(self, goroutine, name, args, node)
            return result
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
# Built-in functions (len, cap, make, new, append, delete, close, panic, copy)
# ---------------------------------------------------------------------------


def _builtin_make(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                  env: Environment) -> Generator:
    if not expr.args:
        raise GoRuntimeError("missing argument to make")
    type_arg = expr.args[0]
    size = 0
    if len(expr.args) > 1:
        size_value = yield from interp.eval_expr(goroutine, expr.args[1], env)
        size = int(size_value or 0)
    resolved = interp._resolve_type(type_arg if isinstance(type_arg, (ast.ArrayType, ast.MapType, ast.ChanType, ast.Ident, ast.SelectorExpr)) else None)
    target = resolved if resolved is not None else type_arg
    if isinstance(target, ast.ChanType):
        return Channel(capacity=size, name=_type_display(type_arg))
    if isinstance(target, ast.MapType):
        return MapValue(name=_type_display(type_arg))
    if isinstance(target, ast.ArrayType):
        elements = [Cell(value=zero_value(target.elt)) for _ in range(size)]
        return SliceValue(elements=elements, name=_type_display(type_arg))
    raise GoRuntimeError(f"cannot make {_type_display(type_arg)}")


def _builtin_new(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                 env: Environment) -> Generator:
    if False:  # pragma: no cover - keeps this a generator
        yield STEP
    type_arg = expr.args[0] if expr.args else None
    value = interp._zero_for_type(type_arg)
    if isinstance(value, StructValue):
        return PointerValue(struct=value)
    return PointerValue(cell=Cell(value=value, name="new"))


def _builtin_len(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                 env: Environment) -> Generator:
    value = yield from interp.eval_expr(goroutine, expr.args[0], env)
    if isinstance(value, SliceValue):
        return len(value.elements)
    if isinstance(value, MapValue):
        return len(value.entries)
    if isinstance(value, Channel):
        return len(value.buffer)
    if isinstance(value, str):
        return len(value)
    if value is None:
        return 0
    raise GoRuntimeError(f"invalid argument to len: {format_value(value)}")


def _builtin_cap(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                 env: Environment) -> Generator:
    value = yield from interp.eval_expr(goroutine, expr.args[0], env)
    if isinstance(value, SliceValue):
        return len(value.elements)
    if isinstance(value, Channel):
        return value.capacity
    if isinstance(value, (int,)):
        return value
    return 0


def _builtin_append(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                    env: Environment) -> Generator:
    base = yield from interp.eval_expr(goroutine, expr.args[0], env)
    if base is None:
        base = SliceValue()
    if not isinstance(base, SliceValue):
        raise GoRuntimeError("first argument to append must be a slice")
    new_elements = list(base.elements)
    rest = expr.args[1:]
    for index, arg in enumerate(rest):
        value = yield from interp.eval_expr(goroutine, arg, env)
        if expr.ellipsis and index == len(rest) - 1 and isinstance(value, SliceValue):
            new_elements.extend(Cell(value=cell.value) for cell in value.elements)
        else:
            new_elements.append(Cell(value=interp._pass_value(value)))
    return SliceValue(elements=new_elements, name=base.name)


def _builtin_delete(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                    env: Environment) -> Generator:
    container = yield from interp.eval_expr(goroutine, expr.args[0], env)
    key = yield from interp.eval_expr(goroutine, expr.args[1], env)
    if isinstance(container, MapValue):
        yield from interp.write_cell(goroutine, container.location, len(container.entries), expr)
        container.entries.pop(_map_key(key), None)
        return None
    if isinstance(container, SyncMap):
        container.delete(_map_key(key))
        return None
    if container is None:
        return None
    raise GoRuntimeError("delete expects a map")


def _builtin_close(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                   env: Environment) -> Generator:
    channel = yield from interp.eval_expr(goroutine, expr.args[0], env)
    if not isinstance(channel, Channel):
        raise GoPanic("close of nil channel")
    interp.detector.on_release(goroutine.gid, channel.sync)
    channel.close()
    return None


def _builtin_panic(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                   env: Environment) -> Generator:
    value = yield from interp.eval_expr(goroutine, expr.args[0], env) if expr.args else None
    raise GoPanic(f"panic: {format_value(value)}")


def _builtin_copy(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                  env: Environment) -> Generator:
    dst = yield from interp.eval_expr(goroutine, expr.args[0], env)
    src = yield from interp.eval_expr(goroutine, expr.args[1], env)
    if not isinstance(dst, SliceValue) or not isinstance(src, SliceValue):
        return 0
    count = min(len(dst.elements), len(src.elements))
    for index in range(count):
        value = yield from interp.read_cell(goroutine, src.elements[index], expr)
        yield from interp.write_cell(goroutine, dst.elements[index], value, expr)
    return count


def _builtin_recover(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                     env: Environment) -> Generator:
    if False:  # pragma: no cover - keeps this a generator
        yield STEP
    return None


def _builtin_println(interp: Interpreter, goroutine: Goroutine, expr: ast.CallExpr,
                     env: Environment) -> Generator:
    parts = []
    for arg in expr.args:
        value = yield from interp.eval_expr(goroutine, arg, env)
        parts.append(format_value(value))
    interp.output.append(" ".join(parts))
    return None


_BUILTIN_HANDLERS = {
    "make": _builtin_make,
    "new": _builtin_new,
    "len": _builtin_len,
    "cap": _builtin_cap,
    "append": _builtin_append,
    "delete": _builtin_delete,
    "close": _builtin_close,
    "panic": _builtin_panic,
    "copy": _builtin_copy,
    "recover": _builtin_recover,
    "println": _builtin_println,
    "print": _builtin_println,
}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _receiver_type_name(recv: ast.Field) -> str:
    type_expr = recv.type_
    if isinstance(type_expr, ast.StarExpr):
        type_expr = type_expr.x
    return _type_display(type_expr)


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


def _struct_field_names(type_expr: ast.Expr | None) -> List[str]:
    if isinstance(type_expr, ast.StructType):
        names: List[str] = []
        for field_decl in type_expr.fields:
            names.extend(field_decl.names)
        return names
    return []


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


def _copy_struct(value: StructValue) -> StructValue:
    clone = StructValue(type_name=value.type_name)
    for name, cell in value.fields.items():
        inner = cell.value
        if isinstance(inner, StructValue):
            inner = _copy_struct(inner)
        clone.fields[name] = Cell(value=inner, name=cell.name)
    return clone


def _as_struct(value: Any) -> Optional[StructValue]:
    if isinstance(value, StructValue):
        return value
    if isinstance(value, PointerValue):
        return value.target_struct()
    return None


def _map_key(key: Any) -> Any:
    if isinstance(key, (str, int, float, bool)) or key is None:
        return key
    if isinstance(key, StructValue):
        return tuple(sorted((name, _map_key(cell.value)) for name, cell in key.fields.items()))
    return id(key)


def _literal_value(lit: ast.BasicLit) -> Any:
    if lit.kind == "INT":
        text = lit.value.replace("_", "")
        if text.lower().startswith("0x"):
            return int(text, 16)
        return int(text)
    if lit.kind == "FLOAT":
        return float(lit.value)
    if lit.kind == "CHAR":
        return lit.value
    return lit.value


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, (StructValue, MapValue, SliceValue)) or isinstance(
        right, (StructValue, MapValue, SliceValue)
    ):
        return left is right
    return left == right


def _make_const_handler(value: Any):
    def handler(interp, goroutine, args, node):
        if False:  # pragma: no cover - keeps this a generator
            yield STEP
        return value

    return handler


def _select_comm_parts(comm: ast.Stmt) -> Tuple[str, ast.Expr, Optional[ast.Expr]]:
    """Decompose a select case's communication statement.

    Returns ``(direction, channel_expr, value_expr)`` where ``direction`` is
    ``"recv"`` or ``"send"``.
    """
    if isinstance(comm, ast.SendStmt):
        return "send", comm.chan, comm.value
    if isinstance(comm, ast.ExprStmt) and isinstance(comm.x, ast.UnaryExpr) and comm.x.op == "<-":
        return "recv", comm.x.x, None
    if isinstance(comm, ast.AssignStmt) and comm.rhs:
        rhs = comm.rhs[0]
        if isinstance(rhs, ast.UnaryExpr) and rhs.op == "<-":
            return "recv", rhs.x, None
        if isinstance(rhs, ast.CallExpr):
            # `case <-func() chan struct{} { ... }():` — evaluate the call to get the channel.
            return "recv", rhs, None
    if isinstance(comm, ast.ExprStmt) and isinstance(comm.x, ast.CallExpr):
        return "recv", comm.x, None
    raise GoRuntimeError(f"unsupported select case: {type(comm).__name__}")
