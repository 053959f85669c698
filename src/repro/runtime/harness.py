"""A ``go test -race``-style harness over the interpreter.

The harness owns the pieces Dr.Fix's validator needs (Section 4.4.1):

* **build** — parse every file of the package through the process-wide
  :data:`~repro.runtime.compiler.PROGRAM_CACHE` (keyed by source fingerprint,
  so repeated harness invocations over the same package — the validator runs
  thousands — parse once and lower each function once, on its first call);
  syntax errors become build failures fed back to the model;
* **engine selection** — each (seed, policy) run executes on the compile-once
  engine by default, or the reference tree-walk with ``engine="tree"``; the
  two are bit-identical (same reports, failures, and output — enforced by the
  corpus-wide differential test);
* **test discovery** — every top-level ``TestXxx`` function is a test;
* **testing.T** — ``t.Run`` / ``t.Parallel`` follow Go's semantics: a parallel
  subtest pauses until its parent test function returns, then all parallel
  siblings run concurrently (this is what makes table-driven parallel tests
  race on shared fixtures);
* **repeat runs** — each run uses a different scheduler seed/policy, standing
  in for the paper's "run the package tests 1000 times"; per-run seeds are
  hashed from (base seed, run index, policy) so distinct base seeds never
  replay each other's interleavings;
* **parallel runs** — the per-seed runs are independent, so they dispatch
  through the shared :class:`~repro.execution.CaseExecutor` (serial, thread,
  or process backend; results merged in submission order, which keeps a
  parallel run bit-identical to a serial one).  Serial and thread backends
  share one cached build; process workers rebuild through their own per-
  process cache (once per worker, not once per run).  The nested-parallelism
  budget (``DRFIX_NESTED_BUDGET``) keeps harness workers from oversubscribing
  a machine whose pipeline-level executor is already fanned out;
* **early exit** — in detection, ``stop_on_first_race`` cancels outstanding
  runs once a run (scanned in submission order) has produced a race;
* **race collection** — detector races are rendered as ThreadSanitizer-format
  reports and deduplicated by stable bug hash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, FrozenSet, Generator, List, Optional, Sequence, Tuple

from repro.errors import GoPanic, GoRuntimeError
from repro.execution import (
    CaseExecutor,
    EngineKind,
    ExecutorKind,
    resolve_dedup,
    resolve_engine,
    resolve_slicing,
)
from repro.golang import ast_nodes as ast
from repro.runtime.compiler import (
    PROGRAM_CACHE,
    BuiltPackage,
    CompiledInterpreter,
    discover_tests,
    package_fingerprint,
)
from repro.runtime.goroutine import Goroutine, STEP, blocked
from repro.runtime.interpreter import Interpreter
from repro.runtime.race_detector import RaceDetector
from repro.runtime.race_report import RaceReport, merge_reports, report_from_race
from repro.runtime.schedule_index import (
    SCHEDULE_CLASS_REGISTRY,
    ClassOutcome,
    ScheduleClassIndex,
)
from repro.runtime.scheduler import (
    Scheduler,
    SchedulerPolicy,
    derive_run_seed,
    pct_plan_signature,
)
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
    """The raw result of one (seed, policy) run, before merging.

    Picklable (it crosses the process-executor boundary).  ``deduped`` marks
    a run whose schedule class was already rendered earlier *in the same
    harness invocation*: its ``reports`` are empty and the fold substitutes
    the call-canonical rendering — merge-invisible, because a class's races
    carry the same bug hashes whichever run of the class rendered them and
    :func:`~repro.runtime.race_report.merge_reports` keeps first-per-hash.
    """

    reports: List[RaceReport]
    failures: List[str]
    output: List[str]
    steps: int
    class_hash: int
    prefix_hashes: Tuple[int, ...] = ()
    pct_rejections: int = 0
    deduped: bool = False


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
    #: Distinct schedule-equivalence classes explored across the runs (count
    #: of distinct synchronization-trace hashes — see
    #: :attr:`~repro.runtime.race_detector.RaceDetector.schedule_class_hash`).
    schedule_classes: int = 0
    #: How many runs the plan budgeted (``runs`` counts runs that *executed*;
    #: early exit — first-race stop or dedup saturation — leaves it smaller).
    runs_attempted: int = 0
    #: Executed runs whose schedule class was already in the index (dedup
    #: on only; these runs re-confirmed a known class instead of a new one).
    runs_deduped: int = 0
    #: Planned runs never launched because the sweep saturated (dedup on
    #: with ``saturation_after`` > 0 only).
    runs_skipped: int = 0
    #: PCT change-point sets redrawn away from already-planned signatures
    #: (novelty-guided budget reallocation; dedup on only).
    prefix_rejections: int = 0
    #: True when the sweep stopped early because ``saturation_after``
    #: consecutive runs explored no novel class and no novel prefix.
    saturation_stopped: bool = False
    #: Whether schedule-class deduplication was enabled for this invocation.
    dedup_enabled: bool = False

    @property
    def built(self) -> bool:
        return not self.build_errors

    @property
    def passed(self) -> bool:
        return self.built and not self.test_failures and not self.reports

    def dedup_stats(self) -> Dict[str, Any]:
        """Dedup accounting for bench/metrics surfaces."""
        return {
            "enabled": self.dedup_enabled,
            "runs_attempted": self.runs_attempted,
            "runs_executed": self.runs,
            "runs_deduped": self.runs_deduped,
            "runs_skipped": self.runs_skipped,
            "prefix_rejections": self.prefix_rejections,
            "saturation_stopped": self.saturation_stopped,
            "schedule_classes": self.schedule_classes,
        }

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


class _DedupFold:
    """Per-invocation dedup bookkeeping, applied to outcomes in submission order.

    One :meth:`observe` call per executed run — either as the ``map_until``
    stop predicate (which the executor invokes on each result in submission
    order) or from the plain-``map`` fold loop — so index recording, novelty
    streaks, and counters are identical at any worker count.
    """

    def __init__(
        self,
        index: ScheduleClassIndex,
        call_memo: Optional[Dict[int, Tuple[RaceReport, ...]]],
        saturation_after: int,
        min_runs: int,
        stop_on_first_race: bool,
    ):
        self.index = index
        self.call_memo = call_memo
        self.saturation_after = saturation_after
        self.min_runs = min_runs
        self.stop_on_first_race = stop_on_first_race
        #: Effective (post-substitution) reports per observed outcome,
        #: aligned with the executor's returned prefix.
        self.effective: List[Sequence[RaceReport]] = []
        self.novel_classes = 0
        self.runs_deduped = 0
        self.prefix_rejections = 0
        self.streak = 0
        self.saturated = False

    def _effective_reports(self, outcome: RunOutcome) -> Sequence[RaceReport]:
        if outcome.deduped and self.call_memo is not None:
            return self.call_memo.get(outcome.class_hash, ())
        return outcome.reports

    def observe(self, outcome: RunOutcome) -> bool:
        """Fold one run in; True ⇒ stop launching further runs."""
        reports = self._effective_reports(outcome)
        self.effective.append(reports)
        novel_class = self.index.record(
            outcome.class_hash,
            ClassOutcome(
                reports=tuple(reports),
                failures=tuple(outcome.failures),
                output=tuple(outcome.output),
                steps=outcome.steps,
            ),
        )
        novel_prefixes = self.index.observe_prefixes(outcome.prefix_hashes)
        self.prefix_rejections += outcome.pct_rejections
        if novel_class:
            self.novel_classes += 1
        else:
            self.runs_deduped += 1
        if novel_class or novel_prefixes:
            self.streak = 0
        else:
            self.streak += 1
        if (
            self.saturation_after > 0
            and self.streak >= self.saturation_after
            and len(self.effective) >= self.min_runs
        ):
            self.saturated = True
            return True
        return bool(reports) and self.stop_on_first_race


class GoTestHarness:
    """Build and repeatedly run one package's tests under the race detector."""

    def __init__(
        self,
        package: GoPackage,
        runs: int = 12,
        seed: int = 0,
        max_steps: int = 120_000,
        policies: Sequence[SchedulerPolicy] = DEFAULT_POLICIES,
        jobs: Optional[int] = 1,
        executor: "ExecutorKind | str | None" = None,
        stop_on_first_race: bool = False,
        max_output_lines: int = 200,
        engine: "EngineKind | str | None" = None,
        slicing: "bool | str | None" = None,
        dedup: "bool | str | None" = None,
        saturation_after: int = 0,
    ):
        self.package = package
        self.runs = runs
        self.seed = seed
        self.max_steps = max_steps
        self.policies = list(policies)
        #: Which interpreter executes each run: the compile-once engine
        #: (default — the package is lowered once via the process-wide
        #: :data:`~repro.runtime.compiler.PROGRAM_CACHE` and reused across
        #: every (seed, policy) run) or the reference tree-walk.
        self.engine = resolve_engine(engine)
        #: Slice-aware instrumentation for compiled-engine runs (argument,
        #: then ``DRFIX_SLICING``, then on); ``off`` restores the fully
        #: instrumented lowering.  The tree engine ignores it.
        self.slicing = resolve_slicing(slicing)
        #: Schedule-class deduplication (argument, then ``DRFIX_DEDUP``,
        #: then on): memoize explored classes in the process-wide registry,
        #: skip re-rendering for in-call repeats, and bias PCT change points
        #: away from already-planned signatures.  ``off`` restores the
        #: recompute-everything harness bit for bit.
        self.dedup = resolve_dedup(dedup)
        #: Saturation early-stop: > 0 ⇒ stop launching runs after this many
        #: consecutive runs with no novel schedule class *and* no novel
        #: sync-event prefix (dedup on only; the memoized classes are merged
        #: in so verdicts cover everything the index has explored).  0 (the
        #: default) never stops early — full-budget sweeps keep their exact
        #: run counts.
        self.saturation_after = max(0, saturation_after)
        #: Worker count for the per-seed runs (1 = the inline serial loop;
        #: ``None``/0 resolves ``DRFIX_JOBS``).  Clamped by the nested budget
        #: when a pipeline-level executor is already fanned out.
        self.jobs = jobs
        self.executor_kind = executor
        #: Detection mode: cancel outstanding runs once a run has found a race
        #: (scanning finished runs in submission order, so the result is the
        #: same prefix a serial loop with ``break`` would produce).
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
        — so the schedule is a pure function of the harness configuration,
        independent of execution order or worker count.
        """
        plan: List[Tuple[int, SchedulerPolicy]] = []
        for run_index in range(self.runs):
            policy = self.policies[run_index % len(self.policies)]
            plan.append((derive_run_seed(self.seed, run_index, policy), policy))
        return plan

    def _plan_specs(self) -> "tuple[List[Tuple[int, SchedulerPolicy, FrozenSet[int]]], List[int]]":
        """The (seed, policy, avoid-signatures) schedule, fixed up front.

        With dedup on, each PCT run's first-window change-point signature is
        simulated at plan time (:func:`~repro.runtime.scheduler.
        pct_plan_signature` — the scheduler's RNG is consumed first by that
        draw, so the simulation is exact) and folded into the avoid set
        handed to every *later* PCT run in the same sweep: a later run whose
        draw lands on an already-planned preemption plan redraws toward
        unexplored schedule space.  The fold is a pure function of the
        harness configuration — no execution results feed it — so the plan
        stays deterministic at any worker count and across repeat
        invocations (biasing on *executed* cross-call state would make a
        re-run of the same configuration explore different schedules, which
        the determinism discipline forbids).
        """
        specs: List[Tuple[int, SchedulerPolicy, FrozenSet[int]]] = []
        avoid: set = set()
        planned_signatures: List[int] = []
        for seed, policy in self.plan_runs():
            if self.dedup and policy is SchedulerPolicy.PCT:
                frozen = frozenset(avoid)
                signature, _ = pct_plan_signature(seed, frozen)
                specs.append((seed, policy, frozen))
                avoid.add(signature)
                planned_signatures.append(signature)
            else:
                specs.append((seed, policy, frozenset()))
        return specs, planned_signatures

    def _index_key(self, entries: Sequence[str]) -> tuple:
        """The registry key: everything that shapes this sweep's schedule space.

        Two invocations share a :class:`ScheduleClassIndex` exactly when they
        would replay one another's interleavings — same package bytes, base
        seed, step budget, policy rotation, engine, slicing, and entry
        functions.  The run *budget* is deliberately absent: a repeat
        invocation with a different budget still explores the same space,
        and sharing the index across budgets is what lets repeat validation
        sweeps saturate early.
        """
        return (
            package_fingerprint(self.package),
            self.seed,
            self.max_steps,
            tuple(p.value for p in self.policies),
            self.engine.value,
            self.slicing,
            tuple(entries),
        )

    def run(self, entry_functions: Optional[Sequence[str]] = None) -> PackageRunResult:
        result = PackageRunResult(package=self.package.name)
        result.dedup_enabled = self.dedup
        build = self.build()
        tests = build.tests
        entries: List[str] = list(entry_functions) if entry_functions else []
        if (self.engine is EngineKind.COMPILED and not build.errors
                and (tests or entries)):
            # Check nesting before any run: too deep to lower fails the build.
            build.ensure_program(self.slicing)
        if build.errors:
            result.build_errors = list(build.errors)
            return result
        result.tests_discovered = len(tests)
        if not tests and not entries:
            # Nothing to exercise; treat as an empty, passing package.
            return result

        plan, planned_signatures = self._plan_specs()
        result.runs_attempted = len(plan)
        pool = CaseExecutor(kind=self.executor_kind, jobs=self.jobs)
        index: Optional[ScheduleClassIndex] = None
        call_memo: Optional[Dict[int, Tuple[RaceReport, ...]]] = None
        if self.dedup:
            index = SCHEDULE_CLASS_REGISTRY.get(self._index_key(entries))
            for signature in planned_signatures:
                index.note_pct_signature(signature)
            if pool.kind is ExecutorKind.SERIAL or pool.jobs == 1:
                # Inline serial execution (the executor's own fast path):
                # submission order *is* execution order, so a run whose
                # class already rendered this call can skip re-rendering
                # and let the fold substitute the call-canonical reports.
                # Worker-backed runs always render — whether a concurrent
                # sibling finished first is timing, and results must not be.
                call_memo = {}
        if pool.kind is not ExecutorKind.PROCESS:
            # Serial and thread backends share the cached build directly:
            # the program is lowered once and every run reuses it (the AST
            # and compiled closures are immutable at runtime, so sharing
            # across threads is safe).
            runner = lambda spec: self._run_once(
                build, tests, entries, spec[0], spec[1], spec[2], call_memo=call_memo
            )
        else:
            # Process workers can't share in-memory programs; they rebuild
            # through their own process-wide cache, so the build is still
            # paid once per worker rather than once per run.
            runner = partial(
                _execute_package_run, self.package, tuple(entries), self.max_steps,
                self.engine.value, self.slicing,
            )
        fold: Optional[_DedupFold] = None
        if index is None:
            if self.stop_on_first_race:
                outcomes = pool.map_until(runner, plan, stop=lambda out: bool(out.reports))
            else:
                outcomes = pool.map(runner, plan)
        else:
            fold = _DedupFold(
                index,
                call_memo,
                saturation_after=self.saturation_after,
                # Never saturate before every policy had at least one run
                # (each policy probes the space differently) nor before the
                # streak window itself is even reachable.
                min_runs=max(self.saturation_after, len(self.policies)),
                stop_on_first_race=self.stop_on_first_race,
            )
            if self.stop_on_first_race or self.saturation_after > 0:
                outcomes = pool.map_until(runner, plan, stop=fold.observe)
            else:
                outcomes = pool.map(runner, plan)
                for outcome in outcomes:
                    fold.observe(outcome)

        all_reports: List[RaceReport] = []
        seen_failures = set(result.test_failures)
        class_hashes = set()
        for position, outcome in enumerate(outcomes):
            run_reports = fold.effective[position] if fold is not None else outcome.reports
            all_reports.extend(run_reports)
            result.scheduler_steps += outcome.steps
            class_hashes.add(outcome.class_hash)
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
        result.schedule_classes = len(class_hashes)
        if fold is not None:
            result.runs_deduped = fold.runs_deduped
            result.prefix_rejections = fold.prefix_rejections
            if fold.saturated:
                # The sweep stopped early; fold in every memoized class
                # outcome so the verdict covers the whole explored space,
                # not just the pre-saturation prefix.  Executed runs come
                # first, so in-call reports stay canonical under the
                # merge's first-per-hash rule.
                result.saturation_stopped = True
                result.runs_skipped = len(plan) - len(outcomes)
                for memo in index.class_outcomes():
                    all_reports.extend(memo.reports)
                    for failure in memo.failures:
                        if failure not in seen_failures:
                            seen_failures.add(failure)
                            result.test_failures.append(failure)
            SCHEDULE_CLASS_REGISTRY.note_sweep(
                novel_classes=fold.novel_classes,
                runs_deduped=fold.runs_deduped,
                runs_skipped=result.runs_skipped,
                prefix_rejections=fold.prefix_rejections,
                saturated=fold.saturated,
            )
        result.reports = merge_reports(all_reports)
        return result

    def _run_once(
        self,
        build: BuiltPackage,
        tests: Sequence[ast.FuncDecl],
        entries: Sequence[str],
        seed: int,
        policy: SchedulerPolicy,
        avoid_signatures: FrozenSet[int] = frozenset(),
        call_memo: Optional[Dict[int, Tuple[RaceReport, ...]]] = None,
    ) -> RunOutcome:
        detector = RaceDetector()
        scheduler = Scheduler(seed=seed, policy=policy, max_steps=self.max_steps,
                              avoid_signatures=avoid_signatures)
        program = (build.ensure_program(self.slicing)
                   if self.engine is EngineKind.COMPILED else None)
        if program is not None:
            interp: Interpreter = CompiledInterpreter(
                program, detector=detector, scheduler=scheduler)
        else:
            interp = Interpreter(build.files, detector=detector, scheduler=scheduler)
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
        class_hash = detector.schedule_class_hash
        deduped = False
        if call_memo is not None and class_hash in call_memo:
            # This schedule class already rendered its reports earlier in
            # this invocation — skip result recomputation; the fold
            # substitutes the call-canonical rendering.
            reports: List[RaceReport] = []
            deduped = True
        else:
            reports = [report_from_race(r, package=self.package.name)
                       for r in program.races]
            if call_memo is not None:
                call_memo[class_hash] = tuple(reports)
        return RunOutcome(
            reports=reports,
            failures=failures,
            output=program.output,
            steps=program.steps,
            class_hash=class_hash,
            prefix_hashes=detector.prefix_hashes,
            pct_rejections=scheduler.stats.pct_rejections,
            deduped=deduped,
        )


def _cap_output(lines: List[str], limit: int) -> Tuple[List[str], int]:
    """Apply the per-run output retention cap, returning (kept, dropped)."""
    if limit <= 0 or len(lines) <= limit:
        return lines, 0
    dropped = len(lines) - limit
    return lines[:limit] + [f"... [{dropped} output line(s) truncated]"], dropped


def _execute_package_run(
    package: GoPackage,
    entries: Tuple[str, ...],
    max_steps: int,
    engine: str,
    slicing: bool,
    spec: Tuple[int, SchedulerPolicy, FrozenSet[int]],
) -> RunOutcome:
    """Execute one (seed, policy, avoid-signatures) run in a worker.

    Module-level (with picklable arguments) so it can be shipped to
    process-pool workers; the package is rebuilt through the worker's own
    process-wide program cache, so a worker parses and lowers each package
    once per process instead of once per run.  Dedup bookkeeping (index
    recording, render skipping) lives with the dispatching harness — the
    worker only honours the plan-time avoid set.
    """
    seed, policy, avoid = spec
    harness = GoTestHarness(package, runs=1, max_steps=max_steps, jobs=1,
                            engine=engine, slicing=slicing)
    build = harness.build()
    if build.errors:  # pragma: no cover - the dispatching harness parsed cleanly
        return RunOutcome(reports=[], failures=list(build.errors), output=[],
                          steps=0, class_hash=0)
    return harness._run_once(build, build.tests, list(entries), seed, policy, avoid)


def run_package_tests(
    package: GoPackage,
    runs: int = 12,
    seed: int = 0,
    entry_functions: Optional[Sequence[str]] = None,
    max_steps: int = 120_000,
    jobs: Optional[int] = 1,
    executor: "ExecutorKind | str | None" = None,
    stop_on_first_race: bool = False,
    max_output_lines: int = 200,
    engine: "EngineKind | str | None" = None,
    slicing: "bool | str | None" = None,
    policies: Sequence[SchedulerPolicy] = DEFAULT_POLICIES,
    dedup: "bool | str | None" = None,
    saturation_after: int = 0,
) -> PackageRunResult:
    """Convenience wrapper: build ``package`` and run its tests ``runs`` times."""
    harness = GoTestHarness(
        package,
        runs=runs,
        seed=seed,
        max_steps=max_steps,
        policies=policies,
        jobs=jobs,
        executor=executor,
        stop_on_first_race=stop_on_first_race,
        max_output_lines=max_output_lines,
        engine=engine,
        slicing=slicing,
        dedup=dedup,
        saturation_after=saturation_after,
    )
    return harness.run(entry_functions=entry_functions)
