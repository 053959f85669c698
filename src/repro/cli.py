"""Command-line interface for the Dr.Fix reproduction.

Subcommands:

* ``drfix corpus``     — generate the synthetic corpus and print its statistics;
* ``drfix detect``     — run the race detector over a directory of ``.go`` files;
* ``drfix fix``        — run the full pipeline on a directory of ``.go`` files;
* ``drfix evaluate``   — regenerate every table and figure of the paper;
* ``drfix serve``      — run Dr.Fix as a service (JSON over HTTP or stdio);
* ``drfix version``    — report the installed package version (also ``--version``).

``evaluate`` accepts ``--jobs N`` (parallel case evaluation; also
settable via ``DRFIX_JOBS``) and ``--cache-dir DIR`` (persistent run store that
reuses per-case results across invocations); ``serve`` accepts ``--jobs`` and
``--workers``.  That is the only level of parallelism: ``detect`` and ``fix``
run one package serially (``detect --fail-fast`` stops after the first run
that reports a race).
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.database import ExampleDatabase
    from repro.corpus.generator import CorpusConfig
    from repro.runtime.harness import GoPackage


def drfix_version() -> str:
    """The installed distribution's version, falling back to the source tree.

    ``importlib.metadata`` answers for a ``pip install``-ed checkout; a bare
    ``PYTHONPATH=src`` checkout (no dist-info) falls back to
    ``repro.__version__``.
    """
    try:
        from importlib.metadata import version

        return version("drfix-repro")
    except Exception:
        from repro import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``: looks the version up only when the flag is given, so
    building the parser reads no package metadata."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS, help=None):
        super().__init__(option_strings, dest=dest, default=argparse.SUPPRESS,
                         nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"drfix {drfix_version()}")
        parser.exit()


# ---------------------------------------------------------------------------
# Shared argument validation
# ---------------------------------------------------------------------------
#
# Every subcommand that accepts worker/run counts validates them at the
# argparse boundary with the same types, so a bad value fails with one clear
# message instead of deep inside the executor or the harness.


def positive_int(text: str) -> int:
    """Argparse type for counts that must be >= 1 (runs, queue bounds)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """Argparse type for counts where 0 means "none" (``serve --workers``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def positive_float(text: str) -> float:
    """Argparse type for finite values that must be > 0 (timeouts, scales)."""
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {value}")
    return value


def fraction(text: str) -> float:
    """Argparse type for shares between 0 and 1 inclusive."""
    value = _finite_float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(
            f"expected a fraction between 0 and 1, got {value}")
    return value


def jobs_count(text: str) -> int:
    """Argparse type for ``--jobs``: positive worker count or negative for
    one worker per CPU; zero is rejected (it is the "unset" sentinel)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value == 0:
        raise argparse.ArgumentTypeError(
            "--jobs must not be 0; use a positive worker count, or a negative "
            "value for one worker per CPU")
    return value


def _load_package(directory: str) -> GoPackage:
    from repro.runtime.harness import GoFile, GoPackage

    root = Path(directory)
    files: List[GoFile] = []
    for path in sorted(root.rglob("*.go")):
        files.append(GoFile(name=str(path.relative_to(root)), source=path.read_text()))
    if not files:
        raise SystemExit(f"no .go files found under {directory}")
    return GoPackage(name=root.name, files=files)


def _corpus_config(args: argparse.Namespace) -> CorpusConfig:
    from repro.corpus.generator import CorpusConfig

    return CorpusConfig().scaled(args.scale)


def cmd_corpus_generate(args: argparse.Namespace) -> int:
    """Generate a labeled mutant corpus (template bases + derived mutants)."""
    import json

    from repro.corpus.generator import CorpusConfig, CorpusGenerator

    config = CorpusConfig(seed=args.seed, noise_level=args.noise_level)
    generator = CorpusGenerator(config)
    start = time.perf_counter()
    cases = generator.generate_mutant_corpus(
        args.count,
        mutants_per_base=args.mutants_per_base,
        flip_fraction=args.flip_fraction,
    )
    elapsed = time.perf_counter() - start
    racy = sum(1 for case in cases if case.expected_race)
    mutants = sum(1 for case in cases if case.base_case_id)
    print(f"generated {len(cases)} labeled cases in {elapsed:.2f}s "
          f"({len(cases) / max(elapsed, 1e-9):.1f} cases/s)")
    print(f"  {racy} racy, {len(cases) - racy} race-free (sync-injected); "
          f"{mutants} mutants from {len(cases) - mutants} template bases")
    by_category: dict = {}
    for case in cases:
        by_category[case.category.value] = by_category.get(case.category.value, 0) + 1
    for category, count in sorted(by_category.items()):
        print(f"  {category:<28} {count}")
    if args.validate_sample:
        from repro.corpus.validate import validate_corpus

        step = max(1, len(cases) // args.validate_sample)
        sample = cases[::step][:args.validate_sample]
        validation = validate_corpus(sample, runs=args.runs)
        print(validation.summary())
        if not validation.ok:
            return 1
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        for case in cases:
            case_dir = out / case.case_id
            case_dir.mkdir(parents=True, exist_ok=True)
            for file in case.package.files:
                target = case_dir / file.name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(file.source)
            labels = {
                "case_id": case.case_id,
                "category": case.category.value,
                "expected_race": case.expected_race,
                "racy_file": case.racy_file,
                "racy_function": case.racy_function,
                "racy_variable": case.racy_variable,
                "fix_strategy": case.fix_strategy,
                "difficulty": case.difficulty.value,
                "base_case_id": case.base_case_id,
                "mutations": case.mutations,
            }
            (case_dir / "labels.json").write_text(json.dumps(labels, indent=2) + "\n")
        print(f"wrote {len(cases)} labeled cases to {out}")
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.generator import CorpusGenerator

    dataset = CorpusGenerator(_corpus_config(args)).generate()
    stats = dataset.statistics()
    print(f"vector-database examples: {len(dataset.db_examples)}")
    print(f"evaluation cases:         {len(dataset.evaluation)} "
          f"({len(dataset.fixable_eval_cases())} fixable, "
          f"{len(dataset.unfixable_eval_cases())} unfixable by design)")
    print(f"files: {stats.files} ({stats.product_files} product, {stats.test_files} test)")
    print(f"lines of Go: {stats.lines} ({stats.concurrency_lines} in files using concurrency)")
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        for case in dataset.all_cases():
            case_dir = out / case.case_id
            case_dir.mkdir(parents=True, exist_ok=True)
            for file in case.package.files:
                target = case_dir / file.name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(file.source)
        print(f"wrote corpus packages to {out}")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    from repro.diagnosis import RaceDiagnoser
    from repro.runtime.harness import run_package_tests

    package = _load_package(args.path)
    result = run_package_tests(
        package,
        runs=args.runs,
        stop_on_first_race=args.fail_fast,
    )
    print(result.summary())
    diagnoser = RaceDiagnoser(package)
    for report in result.reports:
        print()
        print(report.render())
        print(f"stable bug hash: {report.bug_hash()}")
        print(f"diagnosis: {diagnoser.diagnose(report).summary()}")
    return 0 if result.passed else 1


def cmd_patterns(args: argparse.Namespace) -> int:
    """Introspect the fix-pattern registry (detection order)."""
    from repro.diagnosis import all_patterns, category_from_value

    category = None
    if args.category:
        category = category_from_value(args.category)
        if category is None:
            print(f"drfix: error: unknown category {args.category!r}", file=sys.stderr)
            return 2
    patterns = all_patterns()
    if category is not None:
        patterns = [p for p in patterns if category in p.categories]
    name_width = max((len(p.name) for p in patterns), default=4)
    print(f"{'pattern':<{name_width}}  spec  categories")
    for pattern in patterns:
        categories = ", ".join(c.value for c in pattern.categories) or "-"
        print(f"{pattern.name:<{name_width}}  {pattern.specificity:>4}  {categories}")
        if args.verbose:
            print(f"{'':<{name_width}}        {pattern.description}")
    print(f"{len(patterns)} pattern(s) registered")
    return 0


def cmd_fix(args: argparse.Namespace) -> int:
    from repro.core.config import DrFixConfig
    from repro.core.database import ExampleDatabase
    from repro.core.pipeline import DrFix
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.runtime.harness import run_package_tests

    package = _load_package(args.path)
    config = DrFixConfig(model=args.model)
    detection = run_package_tests(package, runs=args.runs)
    if not detection.reports:
        print("no data race detected; nothing to fix")
        return 0
    database: Optional[ExampleDatabase] = None
    if not args.no_rag:
        corpus = CorpusGenerator(CorpusConfig().scaled(args.scale)).generate()
        database = ExampleDatabase.from_cases(corpus.db_examples, config)
    exit_code = 1
    for report in detection.reports:
        print(f"== fixing race {report.bug_hash()} on `{report.variable}` ==")
        # A fresh pipeline per report (fresh generator/validator counters):
        # the same stateless-per-request semantics the serving layer uses, so
        # `drfix serve` responses stay bit-identical to this command.
        pipeline = DrFix(package, config=config, database=database)
        outcome = pipeline.fix_report(report, baseline_hashes=detection.race_hashes())
        if outcome.fixed and outcome.patch is not None:
            exit_code = 0
            print(f"fixed via {outcome.strategy} at {outcome.location}/{outcome.scope} "
                  f"({outcome.lines_changed} lines changed)")
            print(outcome.patch.diff(package))
            if args.write:
                root = Path(args.path)
                for name in outcome.patch.changed_files:
                    (root / name).write_text(outcome.patch.package.file(name).source)
                print("patched files written in place")
        else:
            print(f"no validated fix: {outcome.failure_reason}")
    return exit_code


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.config import DrFixConfig
    from repro.evaluation.experiments import all_experiment_tables
    from repro.evaluation.reporting import render_report
    from repro.evaluation.runner import ExperimentContext

    context = ExperimentContext(
        corpus_config=_corpus_config(args),
        base_config=DrFixConfig(model=args.model),
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    tables = all_experiment_tables(context)
    report = render_report(tables)
    print(report)
    if context.store is not None:
        print(f"run store: {context.store.hits} hits, {context.store.misses} misses "
              f"({context.store.root})")
    if args.output:
        markdown = "\n\n".join(table.render_markdown() for table in tables)
        Path(args.output).write_text(markdown)
        print(f"wrote {args.output}")
    return 0


def cmd_version(args: argparse.Namespace) -> int:
    print(f"drfix {drfix_version()}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run Dr.Fix as a service: JSON over HTTP, or line-delimited JSON stdio.

    One :class:`DrFixService` in both modes: ``--workers N`` runs requests
    in N supervised worker processes (crash recovery, retries, a circuit
    breaker), and the default ``--workers 0`` runs them in this process.
    Either way the master probes the result cache and folds identical
    requests at submit, and ``--max-queue`` bounds each lane's queue.
    ``--pidfile`` makes the server a well-behaved daemon (no double start,
    ``--stop`` to drain it), and SIGTERM always triggers a graceful drain:
    stop admitting, finish in-flight requests, remove the pidfile (cache
    writes are synchronous: nothing to flush).
    """
    from repro.core.config import DrFixConfig
    from repro.core.database import ExampleDatabase
    from repro.corpus.generator import CorpusConfig, CorpusGenerator
    from repro.service.core import DrFixService
    from repro.service.frontend import (
        ServiceHTTPServer,
        resolve_request_timeout,
        serve_stdio,
    )
    from repro.service.pidfile import Pidfile, stop_daemon

    if args.stop:
        if not args.pidfile:
            raise ConfigError("--stop needs --pidfile to locate the daemon")
        pid = stop_daemon(args.pidfile, timeout_s=args.stop_timeout)
        print(f"drfix serve: stopped daemon (pid {pid})")
        return 0
    request_timeout = resolve_request_timeout(args.request_timeout)
    config = DrFixConfig(model=args.model)
    database: Optional[ExampleDatabase] = None
    if not args.no_rag:
        corpus = CorpusGenerator(CorpusConfig().scaled(args.scale)).generate()
        database = ExampleDatabase.from_cases(corpus.db_examples, config)
    service = DrFixService(
        config,
        database=database,
        workers=args.workers,
        max_queue_depth=args.max_queue,
        max_in_flight=args.max_in_flight,
        jobs=args.jobs,
        executor=args.executor,
        cache_capacity=args.cache_capacity,
        cache_dir=args.cache_dir,
    )
    pidfile = Pidfile(args.pidfile).acquire() if args.pidfile else None
    try:
        if args.mode == "stdio":
            served = serve_stdio(service, sys.stdin, sys.stdout,
                                 timeout=request_timeout, default_runs=args.runs)
            print(f"drfix serve: {served} request(s) served; "
                  f"{service.metrics().render()}", file=sys.stderr)
            return 0
        server = ServiceHTTPServer(service, (args.host, args.port),
                                   verbose=args.verbose,
                                   request_timeout=request_timeout,
                                   default_runs=args.runs)

        def _drain_on_sigterm(signum, frame) -> None:
            # Graceful drain: stop admitting (healthz turns 503), then stop
            # the accept loop from another thread (serve_forever must not be
            # shut down from its own thread).  In-flight requests finish in
            # service.shutdown() below.
            service.begin_drain()
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _drain_on_sigterm)
        print(f"drfix serve: listening on http://{args.host}:{server.port} "
              f"(POST /detect, POST /fix, GET /metrics, GET /healthz)",
              flush=True)
        try:
            server.serve_forever()
            print(f"drfix serve: draining; {service.metrics().render()}",
                  file=sys.stderr)
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            print(f"\ndrfix serve: {service.metrics().render()}")
        finally:
            service.shutdown()
            server.server_close()
        return 0
    finally:
        service.shutdown()
        if pidfile is not None:
            pidfile.release()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drfix",
        description="Reproduction of Dr.Fix: Automatically Fixing Data Races at Industry Scale",
    )
    parser.add_argument("--version", action=_VersionAction,
                        help="print the installed version and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="generate the synthetic corpus")
    corpus.add_argument("--scale", type=positive_float, default=0.25,
                        help="fraction of the full corpus size (default 0.25)")
    corpus.add_argument("--output", help="directory to write the corpus packages to")
    corpus.set_defaults(func=cmd_corpus)
    corpus_sub = corpus.add_subparsers(dest="corpus_command")
    corpus_generate = corpus_sub.add_parser(
        "generate",
        help="generate a labeled mutant corpus (template bases + seeded mutants)",
    )
    corpus_generate.add_argument("--seed", type=int, default=2025,
                                 help="corpus seed (default 2025); the output is "
                                      "byte-identical for a given seed")
    corpus_generate.add_argument("--count", type=positive_int, default=300,
                                 help="number of labeled cases to emit (default 300)")
    corpus_generate.add_argument("--mutants-per-base", type=non_negative_int, default=3,
                                 help="mutants derived per template base (default 3)")
    corpus_generate.add_argument("--flip-fraction", type=fraction, default=0.2,
                                 help="fraction of mutants sync-injected into "
                                      "race-free negatives (default 0.2)")
    corpus_generate.add_argument("--noise-level", type=non_negative_int, default=2,
                                 help="business-logic noise level 0..3 (default 2)")
    corpus_generate.add_argument("--validate-sample", type=non_negative_int, default=0,
                                 help="run the metamorphic validator on N evenly "
                                      "sampled cases (0 = skip)")
    corpus_generate.add_argument("--runs", type=positive_int, default=10,
                                 help="detection runs per validated case (default 10)")
    corpus_generate.add_argument("--output",
                                 help="directory to write cases + labels.json to")
    corpus_generate.set_defaults(func=cmd_corpus_generate)

    detect = sub.add_parser("detect", help="run the race detector over a directory of .go files")
    detect.add_argument("path")
    detect.add_argument("--runs", type=positive_int, default=12)
    detect.add_argument("--fail-fast", action="store_true",
                        help="stop after the first run that reports a race")
    detect.set_defaults(func=cmd_detect)

    fix = sub.add_parser("fix", help="run the Dr.Fix pipeline over a directory of .go files")
    fix.add_argument("path")
    fix.add_argument("--model", default="gpt-4o", help="model profile to use")
    fix.add_argument("--runs", type=positive_int, default=12, help="detection runs")
    fix.add_argument("--scale", type=positive_float, default=0.25,
                     help="example-database scale")
    fix.add_argument("--no-rag", action="store_true", help="disable retrieval-augmented generation")
    fix.add_argument("--write", action="store_true", help="write validated patches in place")
    fix.set_defaults(func=cmd_fix)

    patterns = sub.add_parser(
        "patterns", help="list the registered fix patterns (detection order)"
    )
    patterns.add_argument("--category", help="only patterns addressing this race category "
                                             "(e.g. missing-synchronization)")
    patterns.add_argument("--verbose", "-v", action="store_true",
                          help="include each pattern's description")
    patterns.set_defaults(func=cmd_patterns)

    evaluate = sub.add_parser("evaluate", help="regenerate every table and figure of the paper")
    evaluate.add_argument("--scale", type=positive_float, default=0.25)
    evaluate.add_argument("--model", default="gpt-4o")
    evaluate.add_argument("--output", help="write a Markdown report to this path")
    evaluate.add_argument("--jobs", type=jobs_count, default=None,
                          help="parallel case-evaluation workers "
                               "(default: DRFIX_JOBS or 1; negative = all CPUs)")
    evaluate.add_argument("--executor", choices=["serial", "thread", "process"],
                          default=None,
                          help="execution backend (default: process when --jobs > 1)")
    evaluate.add_argument("--cache-dir",
                          help="persistent run-store directory; per-case results are "
                               "cached there and reused across invocations")
    evaluate.set_defaults(func=cmd_evaluate)

    serve = sub.add_parser(
        "serve", help="run Dr.Fix as a service (JSON over HTTP, or stdio)"
    )
    serve.add_argument("--mode", choices=["http", "stdio"], default="http",
                       help="transport: HTTP server (default) or line-delimited "
                            "JSON on stdin/stdout")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="HTTP port (0 picks a free port)")
    serve.add_argument("--model", default="gpt-4o", help="model profile to serve with")
    serve.add_argument("--scale", type=positive_float, default=0.25,
                       help="example-database scale (ignored with --no-rag)")
    serve.add_argument("--no-rag", action="store_true",
                       help="serve without the retrieval database")
    serve.add_argument("--runs", type=positive_int, default=10,
                       help="default detection runs per request")
    serve.add_argument("--jobs", type=jobs_count, default=None,
                       help="in-process batch worker count (default: "
                            "DRFIX_JOBS or 1; negative = all CPUs)")
    serve.add_argument("--executor", choices=["serial", "thread", "process"],
                       default="thread", help="in-process batch execution backend")
    serve.add_argument("--workers", type=non_negative_int, default=0,
                       help="serve from N supervised worker processes sharded "
                            "by source fingerprint (default 0: in this process)")
    serve.add_argument("--request-timeout", type=positive_float, default=None,
                       help="seconds a frontend waits for one response "
                            "(default: DRFIX_REQUEST_TIMEOUT or 600)")
    serve.add_argument("--cache-dir", default=None,
                       help="persistent result-cache directory: warm hits "
                            "survive restarts and are shared across workers")
    serve.add_argument("--pidfile", default=None,
                       help="acquire this pidfile on start (refuses a double "
                            "start; removed on exit)")
    serve.add_argument("--stop", action="store_true",
                       help="signal the daemon named by --pidfile with SIGTERM "
                            "and wait for its graceful drain")
    serve.add_argument("--stop-timeout", type=positive_float, default=30.0,
                       help="seconds --stop waits for the daemon to exit "
                            "(default 30)")
    serve.add_argument("--max-queue", type=positive_int, default=64,
                       help="admission-control bound on each lane's queue "
                            "(default 64); submissions past it get a "
                            "structured 'overloaded' response")
    serve.add_argument("--max-in-flight", type=positive_int, default=4,
                       help="max requests dispatched per in-process batch "
                            "(default 4)")
    serve.add_argument("--cache-capacity", type=positive_int, default=256,
                       help="fingerprint result-cache entries (default 256)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.set_defaults(func=cmd_serve)

    version = sub.add_parser("version", help="print the installed version")
    version.set_defaults(func=cmd_version)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout (``drfix detect … | head``).  Point stdout
        # at devnull so the interpreter's final flush cannot fail again, and
        # exit as a process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 128 + signal.SIGPIPE
    except (ConfigError, OSError) as exc:
        print(f"drfix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
