"""A ``go test -race``-style harness over the interpreter.

The harness owns the pieces Dr.Fix's validator needs (Section 4.4.1):

* **build** — parse every file of the package through the process-wide
  :data:`~repro.runtime.compiler.PROGRAM_CACHE` (keyed by source fingerprint,
  so repeated harness invocations over the same package — the validator runs
  thousands — parse once and lower each function once, on its first call);
  syntax errors become build failures fed back to the model;
* **one engine** — each (seed, policy) run executes on the compile-once
  engine with slice-aware instrumentation.  The fully instrumented lowering
  (``slicing=False``, the slicer's soundness oracle) is reachable only
  through the harness argument, for the equivalence suites and the
  interpreter benchmark; no config field, CLI flag or environment variable
  selects it;
* **test discovery** — every top-level ``TestXxx`` function is a test;
* **testing.T** — ``t.Run`` / ``t.Parallel`` follow Go's semantics: a parallel
  subtest pauses until its parent test function returns, then all parallel
  siblings run concurrently (this is what makes table-driven parallel tests
  race on shared fixtures);
* **repeat runs** — each run uses a different scheduler seed/policy, standing
  in for the paper's "run the package tests 1000 times"; per-run seeds are
  hashed from (base seed, run index, policy) so distinct base seeds never
  replay each other's interleavings;
* **serial runs** — the plan runs in a loop on one cached build; the
  reproduction parallelises across cases and requests, never inside one
  harness invocation;
* **early exit** — in detection, ``stop_on_first_race`` stops after the
  first run, in plan order, that reports a race;
* **race collection** — each run returns the detector's raw race records;
  the plan keeps the first record per stable bug hash, in run order, and
  renders only those as ThreadSanitizer-format reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Sequence, Tuple

from repro.errors import GoPanic, GoRuntimeError
from repro.golang import ast_nodes as ast
from repro.runtime.compiler import PROGRAM_CACHE, BuiltPackage, discover_tests
from repro.runtime.goroutine import Goroutine, STEP, blocked
from repro.runtime.interpreter import Interpreter
from repro.runtime.race_detector import RaceDetector, RaceRecord
from repro.runtime.race_report import RaceReport, race_hash, report_from_race
from repro.runtime.scheduler import Scheduler, SchedulerPolicy, derive_run_seed
from repro.runtime.values import FuncValue


# ---------------------------------------------------------------------------
# Package model
# ---------------------------------------------------------------------------


@dataclass
class GoFile:
    """A named source file."""

    name: str
    source: str

    def is_test_file(self) -> bool:
        return self.name.endswith("_test.go")


@dataclass
class GoPackage:
    """A set of Go files compiled and tested together."""

    name: str
    files: List[GoFile] = field(default_factory=list)

    def file(self, name: str) -> Optional[GoFile]:
        for file in self.files:
            if file.name == name:
                return file
        return None

    def replace_file(self, name: str, source: str) -> "GoPackage":
        """Return a copy of the package with one file's contents replaced."""
        files = [GoFile(f.name, source if f.name == name else f.source) for f in self.files]
        return GoPackage(name=self.name, files=files)

    def with_file(self, name: str, source: str) -> "GoPackage":
        if self.file(name) is not None:
            return self.replace_file(name, source)
        files = list(self.files) + [GoFile(name, source)]
        return GoPackage(name=self.name, files=files)

    def total_lines(self) -> int:
        return sum(len(f.source.splitlines()) for f in self.files)


# ---------------------------------------------------------------------------
# testing.T
# ---------------------------------------------------------------------------


class TestingT:
    """A stand-in for ``*testing.T`` with Go-faithful Run/Parallel semantics."""

    def __init__(self, name: str, parent: Optional["TestingT"] = None):
        self.name = name
        self.parent = parent
        self.failed = False
        self.messages: List[str] = []
        self.parallel_requested = False
        self.done = False
        self.func_done = False
        self.subtests: List["TestingT"] = []

    # -- bookkeeping --------------------------------------------------------------------

    def all_finished(self) -> bool:
        # Hot blocked-predicate: a plain loop avoids a generator allocation
        # per scheduler poll.
        for sub in self.subtests:
            if not sub.done:
                return False
        return True

    def mark_failed(self, message: str) -> None:
        self.messages.append(message)
        self.failed = True
        parent = self.parent
        while parent is not None:
            parent.failed = True
            parent = parent.parent

    def collect_failures(self) -> List[str]:
        failures = [f"{self.name}: {m}" for m in self.messages]
        for sub in self.subtests:
            failures.extend(sub.collect_failures())
        return failures

    # -- the method surface used by tests -------------------------------------------------

    def go_call(self, interp: Interpreter, goroutine: Goroutine, name: str,
                args: List[Any], node) -> Generator:
        if name == "Run":
            result = yield from self._run_subtest(interp, goroutine, args, node)
            return result
        if name == "Parallel":
            yield from self._parallel(goroutine)
            return None
        if name in ("Errorf", "Error"):
            if False:  # pragma: no cover
                yield STEP
            self.mark_failed(_render_message(args))
            return None
        if name in ("Fatalf", "Fatal", "FailNow"):
            if False:  # pragma: no cover
                yield STEP
            self.mark_failed(_render_message(args))
            raise GoPanic(f"test {self.name} failed: {_render_message(args)}")
        if name in ("Logf", "Log"):
            if False:  # pragma: no cover
                yield STEP
            interp.output.append(_render_message(args))
            return None
        if name in ("Helper", "Cleanup", "Skip", "Skipf", "SkipNow", "Setenv"):
            if False:  # pragma: no cover
                yield STEP
            return None
        if name == "Name":
            if False:  # pragma: no cover
                yield STEP
            return self.name
        if name == "Failed":
            if False:  # pragma: no cover
                yield STEP
            return self.failed
        raise GoRuntimeError(f"testing.T has no method {name}")

    def _run_subtest(self, interp: Interpreter, goroutine: Goroutine, args: List[Any],
                     node) -> Generator:
        sub_name = str(args[0]) if args else f"{self.name}/sub{len(self.subtests)}"
        func = args[1] if len(args) > 1 else None
        sub = TestingT(name=f"{self.name}/{sub_name}", parent=self)
        self.subtests.append(sub)
        child = interp.new_goroutine(name=f"Test:{sub.name}", parent=goroutine)
        interp.detector.on_fork(goroutine.gid, child.gid)

        def body() -> Generator:
            yield STEP
            try:
                yield from interp._invoke(child, func, [sub], node)
            except GoPanic as exc:
                sub.mark_failed(str(exc))
            finally:
                sub.done = True
                sub.func_done = True

        child.generator = body()
        # Block until the subtest either finishes or asks to run in parallel.
        yield blocked(lambda: sub.done or sub.parallel_requested,
                      f"t.Run({sub.name}) waiting for subtest")
        while not (sub.done or sub.parallel_requested):
            yield blocked(lambda: sub.done or sub.parallel_requested,
                          f"t.Run({sub.name}) waiting for subtest")
        return not sub.failed

    def _parallel(self, goroutine: Goroutine) -> Generator:
        self.parallel_requested = True
        parent = self.parent
        if parent is None:
            return
        # The subtest pauses until the parent test function returns.
        while not parent.func_done:
            yield blocked(lambda: parent.func_done, f"{self.name} waiting for parallel start")
        yield STEP


def _render_message(args: List[Any]) -> str:
    from repro.runtime.stdlib import _format
    from repro.runtime.values import format_value

    if not args:
        return ""
    first = args[0]
    if isinstance(first, str) and "%" in first:
        return _format(first, args[1:])
    return " ".join(format_value(a) for a in args)


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


@dataclass
class RunOutcome:
    """The raw result of one (seed, policy) run, before merging."""

    races: List[RaceRecord]
    failures: List[str]
    output: List[str]
    steps: int


@dataclass
class PackageRunResult:
    """Aggregated outcome of running a package's tests N times under the detector."""

    package: str = ""
    reports: List[RaceReport] = field(default_factory=list)
    build_errors: List[str] = field(default_factory=list)
    test_failures: List[str] = field(default_factory=list)
    output: List[str] = field(default_factory=list)
    runs: int = 0
    tests_discovered: int = 0
    #: Output lines dropped by the per-run retention cap (see
    #: ``GoTestHarness.max_output_lines``).
    output_lines_truncated: int = 0
    #: Total scheduler steps across all runs (throughput accounting for the
    #: interpreter benchmarks; no effect on results).
    scheduler_steps: int = 0
    #: Always 0; ``e2e_bench/spans.py`` is its only reader.
    runs_deduped: int = 0

    @property
    def built(self) -> bool:
        return not self.build_errors

    @property
    def passed(self) -> bool:
        return self.built and not self.test_failures and not self.reports

    def race_hashes(self) -> List[str]:
        return [report.bug_hash() for report in self.reports]

    def has_race(self, bug_hash: str) -> bool:
        return bug_hash in self.race_hashes()

    def summary(self) -> str:
        if not self.built:
            return "BUILD FAILED: " + "; ".join(self.build_errors[:3])
        parts = [f"{self.tests_discovered} tests x {self.runs} runs"]
        if self.reports:
            parts.append(f"{len(self.reports)} data race(s)")
        if self.test_failures:
            parts.append(f"{len(self.test_failures)} failure(s)")
        if self.passed:
            parts.append("PASS")
        return ", ".join(parts)


#: The default scheduler-policy rotation.  PCT rides alongside the heuristic
#: policies: its probabilistic guarantee covers bug depths the biased-random
#: policies only hit by luck.
DEFAULT_POLICIES: Tuple[SchedulerPolicy, ...] = (
    SchedulerPolicy.RANDOM,
    SchedulerPolicy.NEWEST_FIRST,
    SchedulerPolicy.OLDEST_FIRST,
    SchedulerPolicy.PCT,
)


class GoTestHarness:
    """Build and repeatedly run one package's tests under the race detector."""

    def __init__(
        self,
        package: GoPackage,
        runs: int = 12,
        seed: int = 0,
        max_steps: int = 120_000,
        policies: Sequence[SchedulerPolicy] = DEFAULT_POLICIES,
        stop_on_first_race: bool = False,
        max_output_lines: int = 200,
        slicing: bool = True,
    ):
        self.package = package
        self.runs = runs
        self.seed = seed
        self.max_steps = max_steps
        self.policies = list(policies)
        #: Slice-aware instrumentation; ``False`` selects the fully
        #: instrumented lowering.
        self.slicing = slicing
        #: Detection mode: stop after the first run, in plan order, that
        #: reports a race.
        self.stop_on_first_race = stop_on_first_race
        #: Per-run cap on retained interpreter output; the excess is replaced
        #: by one truncation marker so long validation sweeps (hundreds of
        #: runs per candidate × many candidates) cannot balloon memory.
        self.max_output_lines = max_output_lines

    # -- build ---------------------------------------------------------------------------

    def build(self) -> BuiltPackage:
        """Parse the package through the process-wide program cache.

        The first build of a package pays parsing once, and each function's
        lowering once, on its first call; every later harness (repeat
        validator sweeps, other threads) gets the cached
        :class:`~repro.runtime.compiler.BuiltPackage` by source fingerprint.
        """
        return PROGRAM_CACHE.get_or_build(self.package)

    def parse(self) -> tuple[List[ast.File], List[str]]:
        build = self.build()
        return list(build.files), list(build.errors)

    discover_tests = staticmethod(discover_tests)

    # -- running -------------------------------------------------------------------------

    def plan_runs(self) -> List[Tuple[int, SchedulerPolicy]]:
        """The (seed, policy) schedule for every run, fixed up front.

        Policies rotate round-robin; each run's seed is a hash of (base seed,
        run index, policy) — see :func:`~repro.runtime.scheduler.derive_run_seed`
        — so the schedule is a pure function of the harness configuration.
        """
        plan: List[Tuple[int, SchedulerPolicy]] = []
        for run_index in range(self.runs):
            policy = self.policies[run_index % len(self.policies)]
            plan.append((derive_run_seed(self.seed, run_index, policy), policy))
        return plan

    def run(self, entry_functions: Optional[Sequence[str]] = None) -> PackageRunResult:
        result = PackageRunResult(package=self.package.name)
        build = self.build()
        tests = build.tests
        entries: List[str] = list(entry_functions) if entry_functions else []
        if not build.errors and (tests or entries):
            # Check nesting before any run: too deep to lower fails the build.
            build.ensure_program(self.slicing)
        if build.errors:
            result.build_errors = list(build.errors)
            return result
        result.tests_discovered = len(tests)
        if not tests and not entries:
            # Nothing to exercise; treat as an empty, passing package.
            return result

        reports: dict[str, RaceReport] = {}
        seen_failures = set(result.test_failures)
        for seed, policy in self.plan_runs():
            outcome = self._run_once(build, tests, entries, seed, policy)
            # One report per bug hash, first seen in plan order: a race that
            # recurs in later runs is hashed, never rendered again.
            for race in outcome.races:
                bug_hash = race_hash(race)
                if bug_hash not in reports:
                    reports[bug_hash] = report_from_race(race, package=self.package.name)
            result.scheduler_steps += outcome.steps
            # Order-preserving dedup via a seen-set (the old ``not in list``
            # scan was quadratic over thousands of runs).
            for failure in outcome.failures:
                if failure not in seen_failures:
                    seen_failures.add(failure)
                    result.test_failures.append(failure)
            kept, dropped = _cap_output(outcome.output, self.max_output_lines)
            result.output.extend(kept)
            result.output_lines_truncated += dropped
            result.runs += 1
            if self.stop_on_first_race and outcome.races:
                break
        result.reports = list(reports.values())
        return result

    def _run_once(
        self,
        build: BuiltPackage,
        tests: Sequence[ast.FuncDecl],
        entries: Sequence[str],
        seed: int,
        policy: SchedulerPolicy,
    ) -> RunOutcome:
        detector = RaceDetector()
        scheduler = Scheduler(seed=seed, policy=policy, max_steps=self.max_steps)
        interp = Interpreter(build.ensure_program(self.slicing),
                             detector=detector, scheduler=scheduler)
        failures: List[str] = []
        roots: List[TestingT] = []

        def body(main: Goroutine) -> Generator:
            yield from interp.init_globals(main)
            for name in entries:
                decl = interp.funcs.get(name)
                if decl is None:
                    failures.append(f"undefined entry function: {name}")
                    continue
                try:
                    yield from interp.call_function(main, FuncValue(decl=decl, name=name), [], None)
                except GoPanic as exc:
                    failures.append(f"{name}: {exc}")
            for test_decl in tests:
                t = TestingT(name=test_decl.name)
                roots.append(t)
                func_value = FuncValue(decl=test_decl, name=test_decl.name)
                takes_t = bool(test_decl.type_.params)
                try:
                    yield from interp.call_function(main, func_value, [t] if takes_t else [], None)
                except GoPanic as exc:
                    t.mark_failed(str(exc))
                t.func_done = True
                # Parallel subtests resume now; wait for all of them.
                while not t.all_finished():
                    yield blocked(t.all_finished, f"waiting for parallel subtests of {t.name}")

        program = interp.run_program(body, name="testmain")
        failures.extend(program.failures)
        for root in roots:
            failures.extend(root.collect_failures())
        return RunOutcome(races=program.races, failures=failures,
                          output=program.output, steps=program.steps)


def _cap_output(lines: List[str], limit: int) -> Tuple[List[str], int]:
    """Apply the per-run output retention cap, returning (kept, dropped)."""
    if limit <= 0 or len(lines) <= limit:
        return lines, 0
    dropped = len(lines) - limit
    return lines[:limit] + [f"... [{dropped} output line(s) truncated]"], dropped


def run_package_tests(
    package: GoPackage,
    runs: int = 12,
    seed: int = 0,
    entry_functions: Optional[Sequence[str]] = None,
    max_steps: int = 120_000,
    stop_on_first_race: bool = False,
    max_output_lines: int = 200,
    slicing: bool = True,
    policies: Sequence[SchedulerPolicy] = DEFAULT_POLICIES,
) -> PackageRunResult:
    """Convenience wrapper: build ``package`` and run its tests ``runs`` times."""
    harness = GoTestHarness(
        package,
        runs=runs,
        seed=seed,
        max_steps=max_steps,
        policies=policies,
        stop_on_first_race=stop_on_first_race,
        max_output_lines=max_output_lines,
        slicing=slicing,
    )
    return harness.run(entry_functions=entry_functions)
