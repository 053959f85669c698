"""Documentation invariants: files exist, links resolve, exports match.

Keeps the docs satellite honest — CI runs ``tools/check_links.py`` too, but
running the same checks under pytest catches breakage locally before push.
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(REPO_ROOT / "tools"))
import check_links  # noqa: E402


REQUIRED_DOCS = ["README.md", "EXPERIMENTS.md", "docs/architecture.md", "ROADMAP.md"]


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_required_docs_exist_and_are_substantial(name):
    path = REPO_ROOT / name
    assert path.exists(), f"{name} is missing"
    assert len(path.read_text()) > 500, f"{name} looks like a stub"


def test_no_broken_markdown_links():
    for path in check_links.markdown_files(check_links.DEFAULT_TARGETS):
        assert check_links.check_file(path) == [], f"broken links in {path.name}"


def test_link_checker_cli_passes():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_links.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_link_checker_flags_broken_links(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [missing](nope.md) and [bad anchor](#nowhere)\n\n# Real\n")
    problems = check_links.check_file(doc)
    assert {p[0] for p in problems} == {"nope.md", "#nowhere"}
    ok = tmp_path / "ok.md"
    ok.write_text("[self](#real-heading)\n\n# Real heading\n")
    assert check_links.check_file(ok) == []


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.corpus", "repro.corpus.templates",
    "repro.embedding", "repro.evaluation", "repro.golang", "repro.llm",
    "repro.llm.strategies", "repro.runtime", "repro.service",
])
def test_package_all_exports_resolve(package):
    """Every name a package advertises in ``__all__`` must actually exist."""
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} has no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"


def test_experiments_md_documents_the_knobs():
    """The Knobs table names every knob of ``drfix evaluate``, and each exists."""
    from repro.cli import build_parser
    from repro.execution import EXECUTOR_ENV_VAR, JOBS_ENV_VAR

    text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    knobs = text[text.index("## Knobs"):text.index("## Interpreter throughput")]
    for knob in ("--scale", "--jobs", "--executor", "--cache-dir",
                 JOBS_ENV_VAR, EXECUTOR_ENV_VAR):
        assert knob in knobs
    build_parser().parse_args(["evaluate", "--scale", "0.1", "--jobs", "2",
                               "--executor", "thread", "--cache-dir", "store"])
