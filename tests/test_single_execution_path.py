"""One way to run a Go program: no knob reachable by users changes results.

Every user-facing run — ``drfix detect|fix|serve``, the pipeline, the
service, the paper tables — executes on the compiled engine with slice-aware
instrumentation.  The two reference lowerings (tree-walk, and the compiled
engine with slicing off) stay reachable only through harness arguments, for
the equivalence suites; no config field, CLI flag or environment variable
selects them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.config import DrFixConfig
from repro.errors import ConfigError
from repro.runtime.harness import GoFile, GoPackage, GoTestHarness, run_package_tests

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Evaluation cases of ``CorpusConfig(seed=3)`` whose outcome the removed
#: engine/slicing environment variables used to flip.
FLIP_CASES = (
    "unfix-parallelism-5788",
    "unfix-parallelism-5380",
    "unfix-parallelism-5652",
    "unfix-parallelism-5516",
)

_EVALUATE_SCRIPT = """
import json, sys
from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.evaluation.runner import evaluate_single_case

config = DrFixConfig(model="gpt-4o", use_rag=True, use_skeleton=True).validated()
dataset = CorpusGenerator(CorpusConfig(seed=3)).generate()
database = ExampleDatabase.from_cases(dataset.db_examples, config)
cases = {case.case_id: case for case in dataset.evaluation}
outcomes = {}
for case_id in sys.argv[1:]:
    result = evaluate_single_case(cases[case_id], config, database)
    outcomes[case_id] = [result.fixed, result.outcome.bug_hash, result.outcome.strategy]
print(json.dumps(outcomes, sort_keys=True))
"""


def _outcomes_under(extra_env):
    env = {"PYTHONPATH": SRC, "PATH": os.environ.get("PATH", "")}
    env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", _EVALUATE_SCRIPT, *FLIP_CASES],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    return json.loads(proc.stdout)


class TestEnvironmentIsNotRead:
    @pytest.fixture(scope="class")
    def clean(self):
        return _outcomes_under({})

    def test_clean_environment_runs_the_production_arm(self, clean):
        assert sorted(clean) == sorted(FLIP_CASES)
        assert all(fixed for fixed, _, _ in clean.values())

    @pytest.mark.parametrize("extra_env", [
        {"DRFIX_ENGINE": "tree", "DRFIX_SLICING": "off"},
        {"DRFIX_ENGINE": "warp", "DRFIX_SLICING": "fast"},
    ], ids=["reference-values", "unknown-values"])
    def test_old_variables_change_nothing(self, clean, extra_env):
        assert _outcomes_under(extra_env) == clean


class TestNoUserFacingKnob:
    @pytest.mark.parametrize("command", ["detect", "fix", "serve"])
    @pytest.mark.parametrize("flag", [["--engine", "tree"], ["--slicing", "off"]])
    def test_cli_rejects_removed_flags(self, tmp_path, command, flag):
        path = [str(tmp_path)] if command in ("detect", "fix") else []
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, *path, *flag])
        assert excinfo.value.code == 2

    def test_config_has_no_engine_or_slicing_field(self):
        names = {field.name for field in dataclasses.fields(DrFixConfig)}
        assert not names & {"engine", "slicing"}

    def test_harness_validates_engine_names(self):
        package = GoPackage(name="p", files=[GoFile("a.go", "package p\n")])
        with pytest.raises(ConfigError, match=r"\(expected tree or compiled\)"):
            run_package_tests(package, engine="jit")
        harness = GoTestHarness(package)
        assert harness.engine.value == "compiled" and harness.slicing is True
