"""Each entry point imports only the layers it runs.

A one-package ``drfix detect`` spends most of its wall time importing, so
these tests start fresh interpreters and check which modules an entry point
leaves in ``sys.modules``: module sets, not timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RACY_PRODUCT = """package counter

import "sync"

func Count(n int) int {
	total := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			total++
		}()
	}
	wg.Wait()
	return total
}
"""

RACY_TEST = """package counter

import "testing"

func TestCount(t *testing.T) {
	Count(3)
}
"""


def modules_after(code: str) -> tuple[set[str], str]:
    """Run ``code`` in a fresh interpreter; the modules it left loaded, and
    what it printed before them."""
    script = textwrap.dedent(code) + "\nprint(); print(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    output, _, modules = result.stdout.rstrip("\n").rpartition("\n")
    return set(json.loads(modules)), output


def run_cli(*argv: str) -> str:
    """The ``python -m repro.cli`` statement for ``argv``, exit swallowed."""
    return f"""
        import runpy
        sys.argv = ["drfix", *{list(argv)!r}]
        try:
            runpy.run_module("repro.cli", run_name="__main__", alter_sys=True)
        except SystemExit:
            pass
    """


#: What ``detect_sweep``'s set-up, ``import repro.runtime.harness``, must not load.
RUN_PATH_EXCLUDES = frozenset({
    "numpy", "multiprocessing", "concurrent.futures.process", "repro.core",
    "repro.service", "repro.evaluation", "repro.embedding", "repro.llm",
    "repro.corpus",
})


def test_run_path_imports_no_other_layer():
    modules, _ = modules_after("import repro.runtime.harness")
    assert "repro.golang.parser" in modules
    assert not modules & RUN_PATH_EXCLUDES, sorted(modules & RUN_PATH_EXCLUDES)


def test_detect_imports_no_numpy(tmp_path):
    (tmp_path / "counter.go").write_text(RACY_PRODUCT)
    (tmp_path / "counter_test.go").write_text(RACY_TEST)
    modules, output = modules_after(run_cli("detect", str(tmp_path), "--runs", "4"))
    assert "WARNING: DATA RACE" in output and "diagnosis: category=" in output
    assert "repro.diagnosis" in modules
    assert "numpy" not in modules
    assert not {"repro.core", "repro.evaluation", "repro.service"} & modules


@pytest.mark.parametrize("argv", [("patterns",), ("--help",)])
def test_introspection_imports_no_numpy(argv):
    modules, output = modules_after(run_cli(*argv))
    assert output
    assert "numpy" not in modules
    assert "repro.evaluation" not in modules


def test_service_package_imports_no_frontend_or_shards():
    modules, _ = modules_after("from repro.service import DrFixService")
    assert "repro.service.core" in modules
    assert not {"http.server", "multiprocessing", "repro.service.shard",
                "repro.service.frontend", "repro.service.supervisor",
                "repro.service.faults"} & modules
