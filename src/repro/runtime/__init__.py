"""Execution substrate for the Go subset: interpreter, scheduler, race detector.

This package stands in for ``go test -race`` (the Go toolchain plus the
ThreadSanitizer runtime) in the Dr.Fix pipeline.  It provides:

* :mod:`repro.runtime.values` / :mod:`repro.runtime.memory` — runtime values and
  shared-memory cells with per-location access metadata,
* :mod:`repro.runtime.vector_clock` / :mod:`repro.runtime.race_detector` — a
  FastTrack-style happens-before race detector,
* :mod:`repro.runtime.scheduler` / :mod:`repro.runtime.goroutine` — a seeded
  cooperative scheduler that explores interleavings,
* :mod:`repro.runtime.channels` / :mod:`repro.runtime.sync_primitives` — channels,
  ``select``, ``sync.Mutex``/``RWMutex``/``WaitGroup``/``Map``/``Once`` and
  ``sync/atomic``,
* :mod:`repro.runtime.compiler` — the compile-once execution engine: an AST
  lowering pass producing pre-bound closures, plus the process-wide program
  cache keyed by source fingerprint (the slice-aware lowering, which every
  user-facing run uses, elides schedule points on single-goroutine
  accesses; the fully instrumented one is the slicer's soundness oracle),
* :mod:`repro.runtime.interpreter` — the interpreter that runs one compiled
  program: its evaluation is expressed as coroutines so the scheduler can
  interleave goroutines at memory and synchronization operations, and it
  provides the runtime services the compiled code calls back into,
* :mod:`repro.runtime.race_report` — ThreadSanitizer-format race reports
  (rendering and parsing) plus the stable bug hash used by the validator,
* :mod:`repro.runtime.harness` — a ``go test``-style harness that discovers
  ``TestXxx`` functions, runs them repeatedly under the detector, and collects
  reports.
"""

from repro.runtime.race_report import RaceReport, StackFrame
from repro.runtime.compiler import PROGRAM_CACHE, CompiledProgram, ProgramCache
from repro.runtime.harness import (
    GoFile,
    GoPackage,
    GoTestHarness,
    PackageRunResult,
    run_package_tests,
)
from repro.runtime.interpreter import Interpreter, ProgramResult
from repro.runtime.scheduler import (
    Scheduler,
    SchedulerPolicy,
    derive_run_seed,
)

__all__ = [
    "PROGRAM_CACHE",
    "CompiledProgram",
    "ProgramCache",
    "RaceReport",
    "StackFrame",
    "GoFile",
    "GoPackage",
    "GoTestHarness",
    "PackageRunResult",
    "run_package_tests",
    "Interpreter",
    "ProgramResult",
    "Scheduler",
    "SchedulerPolicy",
    "derive_run_seed",
]
