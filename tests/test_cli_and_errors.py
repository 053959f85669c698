"""Tests for the CLI entry points and the shared error hierarchy."""

import errno
import os
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import build_parser, main
from repro.errors import (
    ConfigError,
    CorpusError,
    DeadlockError,
    GoPanic,
    GoRuntimeError,
    GoSyntaxError,
    LLMError,
    PatchError,
    ReproError,
    RetrievalError,
    ValidationError,
)


class TestErrors:
    def test_all_errors_derive_from_repro_error(self):
        for exc_type in (GoSyntaxError, GoRuntimeError, GoPanic, DeadlockError,
                         ValidationError, PatchError, RetrievalError, CorpusError,
                         LLMError, ConfigError):
            assert issubclass(exc_type, ReproError)

    def test_syntax_error_carries_position(self):
        error = GoSyntaxError("unexpected token", filename="svc.go", line=4, column=9)
        assert "svc.go:4:9" in str(error)
        assert error.line == 4 and error.column == 9

    def test_panic_is_a_runtime_error(self):
        assert issubclass(GoPanic, GoRuntimeError)

    def test_version_is_exposed(self):
        assert __version__


RACY_GO = """
package demo

import "sync"

func Run(items []string) int {
	total := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, item := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total = total + len(item)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}
"""

RACY_TEST = """
package demo

import "testing"

func TestRun(t *testing.T) {
	Run([]string{"a", "bb", "ccc"})
}
"""


@pytest.fixture
def racy_dir(tmp_path: Path) -> Path:
    (tmp_path / "run.go").write_text(RACY_GO)
    (tmp_path / "run_test.go").write_text(RACY_TEST)
    return tmp_path


class TestCLI:
    def test_parser_declares_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("corpus", "detect", "fix", "evaluate", "serve", "version"):
            assert command in text

    def test_detect_reports_the_race(self, racy_dir, capsys):
        exit_code = main(["detect", str(racy_dir), "--runs", "10"])
        captured = capsys.readouterr().out
        assert exit_code == 1
        assert "DATA RACE" in captured
        assert "stable bug hash" in captured

    def test_fix_produces_and_writes_a_patch(self, racy_dir, capsys):
        exit_code = main([
            "fix", str(racy_dir), "--model", "gpt-4o", "--runs", "10",
            "--no-rag", "--write",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "fixed via" in captured
        patched = (racy_dir / "run.go").read_text()
        assert "item := item" in patched
        # After writing the patch the detector no longer finds the race.
        assert main(["detect", str(racy_dir), "--runs", "10"]) == 0

    def test_detect_on_clean_directory(self, tmp_path, capsys):
        (tmp_path / "lib.go").write_text("package demo\n\nfunc Two() int {\n\treturn 2\n}\n")
        (tmp_path / "lib_test.go").write_text(
            "package demo\n\nimport \"testing\"\n\nfunc TestTwo(t *testing.T) {\n"
            "\tif Two() != 2 {\n\t\tt.Errorf(\"wrong\")\n\t}\n}\n"
        )
        assert main(["detect", str(tmp_path)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fix_on_clean_directory_is_a_noop(self, tmp_path, capsys):
        (tmp_path / "lib.go").write_text("package demo\n\nfunc Two() int {\n\treturn 2\n}\n")
        assert main(["fix", str(tmp_path), "--no-rag"]) == 0
        assert "nothing to fix" in capsys.readouterr().out

    def test_missing_directory_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", str(tmp_path / "empty")])

    def test_corpus_command_writes_packages(self, tmp_path, capsys):
        exit_code = main(["corpus", "--scale", "0.05", "--output", str(tmp_path / "corpus")])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "evaluation cases" in captured
        written = list((tmp_path / "corpus").rglob("*.go"))
        assert written, "expected corpus .go files to be written"

    def test_corpus_generate_emits_labeled_mutant_corpus(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "mutants"
        exit_code = main([
            "corpus", "generate", "--seed", "2025", "--count", "24",
            "--noise-level", "1", "--validate-sample", "4",
            "--output", str(out_dir),
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "generated 24 labeled cases" in captured
        assert "validated 4 case(s): 4 ok" in captured
        labels = sorted(out_dir.rglob("labels.json"))
        assert len(labels) == 24
        record = json.loads(labels[0].read_text())
        assert {"case_id", "category", "expected_race", "mutations"} <= set(record)
        assert list(labels[0].parent.glob("*.go")), "expected case .go files"


class TestVersion:
    def test_version_subcommand(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("drfix ")
        # Semantic-version shaped, whether it came from package metadata
        # (pip install -e .) or the __version__ fallback (bare checkout).
        assert out.split()[1][0].isdigit()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip().startswith("drfix ")

    def test_version_matches_fallback_shape(self):
        from repro.cli import drfix_version

        version = drfix_version()
        assert version and version[0].isdigit()


class _ClosedPipe:
    """A stdout whose reader has exited, backed by a real file descriptor."""

    def __init__(self, fd: int):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self) -> int:
        return self._fd


class TestBrokenPipe:
    def test_closed_stdout_exits_as_sigpipe_would(self, tmp_path, capsys, monkeypatch):
        # `drfix patterns | head -1`: no traceback, no error line, exit 141.
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert main(["patterns"]) == 141
            # The descriptor now points at devnull, so the interpreter's
            # final flush of stdout cannot raise again.
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""


class TestArgumentValidation:
    """--jobs/--runs are validated uniformly at the argparse boundary."""

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--jobs", "0"],
        ["serve", "--jobs", "0"],
    ])
    def test_jobs_zero_is_rejected_everywhere(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs must not be 0" in err

    @pytest.mark.parametrize("argv", [
        ["detect", ".", "--runs", "0"],
        ["detect", ".", "--runs", "-3"],
        ["fix", ".", "--runs", "0"],
        ["serve", "--runs", "0"],
        ["serve", "--max-queue", "0"],
        ["serve", "--max-in-flight", "-1"],
    ])
    def test_nonpositive_counts_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--jobs", "two"],
        ["detect", ".", "--runs", "many"],
    ])
    def test_non_integers_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--scale", "nan"],
        ["evaluate", "--scale", "inf"],
        ["evaluate", "--scale", "0"],
        ["evaluate", "--scale", "-1"],
        ["corpus", "--scale", "-2"],
        ["fix", ".", "--scale", "nan"],
        ["serve", "--scale", "-inf"],
        ["corpus", "generate", "--mutants-per-base", "-1"],
        ["corpus", "generate", "--flip-fraction", "5"],
        ["corpus", "generate", "--flip-fraction", "nan"],
        ["corpus", "generate", "--noise-level", "-3"],
        ["corpus", "generate", "--validate-sample", "-5"],
    ])
    def test_out_of_range_numbers_are_one_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if ": error:" in line]
        assert len(errors) == 1 and errors[0].startswith("drfix")
        assert f"argument {argv[-2]}:" in errors[0]

    def test_negative_jobs_still_means_all_cpus(self):
        # Negative worker counts remain valid (one worker per CPU).
        from repro.execution import resolve_jobs

        args = build_parser().parse_args(["evaluate", "--jobs", "-1"])
        assert resolve_jobs(args.jobs) == (os.cpu_count() or 1)


class TestServeCLI:
    def test_workers_zero_is_the_in_process_default(self, capsys):
        assert build_parser().parse_args(["serve"]).workers == 0
        assert build_parser().parse_args(["serve", "--workers", "0"]).workers == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "-1"])
        assert excinfo.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err
        # One queue bound for both modes: --max-queue bounds each lane.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shard-queue-depth", "4"])

    def test_serve_stdio_session(self, monkeypatch, capsys):
        import io
        import json

        request = {
            "kind": "detect",
            "package": "demo",
            "files": {"run.go": RACY_GO, "run_test.go": RACY_TEST},
            "runs": 6,
        }
        lines = [json.dumps(request), json.dumps({"kind": "metrics"}),
                 json.dumps({"kind": "shutdown"})]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        exit_code = main(["serve", "--mode", "stdio", "--no-rag", "--max-queue", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        responses = [json.loads(line) for line in captured.out.splitlines() if line]
        assert responses[0]["status"] == "ok"
        assert responses[0]["payload"]["race_hashes"]
        assert responses[1]["kind"] == "metrics"
        assert "2 request(s) served" in captured.err
