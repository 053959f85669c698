"""Golden digests of everything that asks the Go-AST queries of
``repro.golang.analysis``: the fix strategies, the race diagnoser and the
skeletonizer.

Over the template corpus and the 32-mutant corpus of
``tests/runtime/test_detection_golden.py`` (same seeds and run counts), each
(case, seed) pins three digests:

* ``strategies``: every registered strategy's ``detect`` plan (strategy name,
  confidence, data) and its ``apply`` output, on each race's function- and
  file-scope code items (with and without the racy variable), and on every
  file of the racy and the fixed package;
* ``diagnosis``: ``RaceDiagnoser.diagnose(report).summary()`` for each report;
* ``skeleton``: the ``Skeletonizer`` result (text, racy variables, kept
  functions, rename map) for each code item, with and without racy lines and
  variables, and for every file of the racy package.

A refactor of the queries must keep every digest.  Regenerate the fixture
only for a change that is *meant* to move a plan, a patch, a diagnosis or a
skeleton:

    PYTHONPATH=src:. python tests/llm/test_analysis_golden.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.race_info import RaceInfoExtractor
from repro.core.skeleton import Skeletonizer
from repro.diagnosis.diagnose import RaceDiagnoser
from repro.llm.prompt_parser import FixTask
from repro.llm.strategies import ordered_strategies, parse_scope
from repro.runtime.harness import run_package_tests
from tests.runtime.test_detection_golden import SWEEPS, _cases

FIXTURE = Path(__file__).with_name("analysis_golden.json")


def _digest(rows) -> str:
    payload = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _strategy_rows(task: FixTask):
    """``[strategy, plan, patch]`` for every registered strategy on ``task``."""
    return _strategy_rows_of(task.code, task.scope, task.racy_variable,
                             tuple(task.racy_lines), tuple(task.racy_functions))


@functools.lru_cache(maxsize=None)
def _strategy_rows_of(code, scope_kind, variable, lines, functions):
    """Memoised across seeds: both seeds of a case mostly yield the same items."""
    task = FixTask(code=code, scope=scope_kind, racy_variable=variable,
                   racy_lines=list(lines), racy_functions=list(functions))
    scope = parse_scope(code)
    if scope is None:
        return None
    rows = []
    for strategy in ordered_strategies():
        plan = strategy.detect(task, scope)
        if plan is None:
            rows.append([strategy.name, None, None])
            continue
        rows.append([strategy.name, [plan.strategy, plan.confidence, plan.data],
                     strategy.apply(task, scope, plan)])
    return rows


@functools.lru_cache(maxsize=None)
def _skeleton_row(source, lines, variables, file_name):
    result = Skeletonizer().skeletonize_source(
        source, racy_lines=lines, racy_variables=variables, filename=file_name)
    return [result.text, result.racy_variables, result.kept_functions,
            sorted(result.rename_map.items())]


def case_digests(case, seed: int, runs: int) -> dict:
    """The three digests of one (case, seed)."""
    package = case.package
    reports = run_package_tests(package, runs=runs, seed=seed).reports
    diagnoser = RaceDiagnoser(package)
    extractor = RaceInfoExtractor(package)
    tasks = []
    skeletons = []
    for report in reports:
        for item in extractor.extract(report).items:
            for variable in (item.racy_variable, ""):
                tasks.append(FixTask(
                    code=item.code, scope=item.scope.value, file_name=item.file_name,
                    racy_variable=variable, racy_lines=list(item.racy_lines),
                    racy_functions=list(item.racy_functions)))
                variables = (variable,) if variable else ()
                skeletons.append(_skeleton_row(item.code, tuple(item.racy_lines),
                                               variables, item.file_name))
                skeletons.append(_skeleton_row(item.code, (), variables, item.file_name))
    for source_package in (package, case.fixed_package):
        for go_file in source_package.files:
            for variable in (case.racy_variable, ""):
                tasks.append(FixTask(code=go_file.source, scope="file",
                                     file_name=go_file.name, racy_variable=variable))
    for go_file in package.files:
        skeletons.append(_skeleton_row(go_file.source, (), (), go_file.name))
    seen = set()
    strategy_rows = []
    for task in tasks:
        key = (task.code, task.scope, task.racy_variable, tuple(task.racy_lines),
               tuple(task.racy_functions))
        if key in seen:
            continue
        seen.add(key)
        strategy_rows.append([list(key[1:]), _strategy_rows(task)])
    return {
        "strategies": _digest(strategy_rows),
        "diagnosis": _digest([diagnoser.diagnose(report).summary() for report in reports]),
        "skeleton": _digest(skeletons),
    }


def sweep(corpus: str) -> dict:
    """``{"<case_id>@<seed>": {kind: digest}}`` over one corpus of ``SWEEPS``."""
    seeds, runs = SWEEPS[corpus]
    digests = {}
    for case in _cases(corpus):
        for seed in seeds:
            key = f"{case.case_id}@{seed}"
            assert key not in digests, f"duplicate case id {case.case_id}"
            digests[key] = case_digests(case, seed, runs)
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("corpus", sorted(SWEEPS))
def test_query_consumers_match_golden(corpus, golden):
    expected = golden[corpus]
    actual = sweep(corpus)
    assert len(actual) >= 60
    assert sorted(actual) == sorted(expected), "case set changed"
    moved = sorted(
        f"{key}:{kind}"
        for key in expected
        for kind in expected[key]
        if actual[key][kind] != expected[key][kind]
    )
    assert not moved, f"{len(moved)} digests moved: {moved[:10]}"


def test_every_strategy_plans_somewhere():
    """The corpora exercise every registered strategy's ``detect`` and
    ``apply``, so a moved query cannot hide behind an idle strategy."""
    planned = set()
    for case in _cases("templates"):
        for go_file in case.fixed_package.files + case.package.files:
            for strategy, plan, patch in _strategy_rows(
                    FixTask(code=go_file.source, scope="file",
                            racy_variable=case.racy_variable)) or ():
                if plan is not None and patch is not None:
                    planned.add(strategy)
    assert planned == {strategy.name for strategy in ordered_strategies()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_analysis_golden.py --regenerate")
    fixture = {corpus: sweep(corpus) for corpus in sorted(SWEEPS)}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {sum(map(len, fixture.values()))} case digests to {FIXTURE}")
