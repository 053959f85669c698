"""Report diagnosis: from a raw race report to a structured :class:`Diagnosis`.

The paper treats race *categorization* as the hinge between detection and
repair: the category drives example retrieval, prompt construction, and which
fix pattern the model imitates.  :class:`RaceDiagnoser` implements that hinge
in one place — it combines the report's own evidence (the racy variable's
description, access kinds, involved files) with a light AST analysis of the
repository (goroutine closures, struct fields, range loops) and produces a
:class:`Diagnosis`: category, access pattern, involved symbols and scopes,
candidate fix patterns, and a confidence score.

The classification rules are ordered from most to least specific; each rule
records the evidence it fired on, so downstream consumers (prompts, feedback,
the CLI) can explain the diagnosis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.diagnosis.categories import RaceCategory
from repro.diagnosis.registry import patterns_for_category
from repro.golang import ast_nodes as ast
from repro.golang.analysis import (
    calls_method,
    declared_names,
    go_closures,
    ident_names,
    is_nil_check,
    is_sync_type,
    methods_of,
    package_level_var,
    parse_package_file,
    receiver_name,
    writes_selector,
)
from repro.runtime.harness import GoPackage
from repro.runtime.race_report import RaceReport

#: Standard-library objects whose internal state is thread-unsafe by design
#: (the paper's "Others" category: shared rand sources, hashes, ...).
_LIBRARY_STATE_PREFIXES = ("rand.", "md5.", "sha256.", "sha.", "Time.")


def clean_variable_name(raw: str) -> str:
    """Normalize a report's variable description to a program identifier."""
    if not raw:
        return ""
    name = raw
    for suffix in ("(map)", "(slice header)"):
        name = name.replace(suffix, "")
    name = name.split("(")[0]
    if "." in name:
        name = name.split(".")[-1]
    name = name.strip()
    if name.startswith("map["):
        return ""
    return name


@dataclass
class Diagnosis:
    """Structured interpretation of one race report."""

    category: RaceCategory
    #: ``"write-write"`` or ``"read-write"`` (reads normalized first).
    access_pattern: str = "write-write"
    #: The normalized racy identifier (empty when the report has none).
    racy_variable: str = ""
    #: The report's raw variable description (``"shards(map)"``, ...).
    raw_variable: str = ""
    #: Functions involved in either racing stack (report order).
    symbols: List[str] = field(default_factory=list)
    #: Files involved in either racing stack (the candidate fix scopes).
    scopes: List[str] = field(default_factory=list)
    #: How certain the classifier is (0..1).
    confidence: float = 0.5
    #: What the classification was based on (human-readable).
    evidence: str = ""

    @property
    def candidate_patterns(self) -> List[str]:
        """Fix patterns addressing this category, in detection order."""
        return [p.name for p in patterns_for_category(self.category)]

    def summary(self) -> str:
        """One-line rendering for CLI output and failure feedback."""
        patterns = ", ".join(self.candidate_patterns) or "none"
        return (
            f"category={self.category.value} ({self.access_pattern}, "
            f"confidence {self.confidence:.2f}); evidence: {self.evidence}; "
            f"candidate patterns: {patterns}"
        )


class RaceDiagnoser:
    """Classify race reports against one code repository."""

    def __init__(self, package: GoPackage):
        self.package = package

    # ------------------------------------------------------------------

    def diagnose(self, report: RaceReport) -> Diagnosis:
        """Produce exactly one :class:`Diagnosis` for ``report``."""
        raw = report.variable or ""
        cleaned = clean_variable_name(raw)
        scopes = [f for f in report.involved_files() if self.package.file(f) is not None]
        category, confidence, evidence = self._classify(report, raw, cleaned, scopes)
        return Diagnosis(
            category=category,
            access_pattern=_access_pattern(report),
            racy_variable=cleaned,
            raw_variable=raw,
            symbols=report.involved_functions(),
            scopes=scopes,
            confidence=confidence,
            evidence=evidence,
        )

    # ------------------------------------------------------------------

    def _classify(
        self, report: RaceReport, raw: str, cleaned: str, scopes: List[str]
    ) -> Tuple[RaceCategory, float, str]:
        parsed = [p for p in (parse_package_file(self.package, name) for name in scopes)
                  if p is not None]

        # 1. wg.Add issued inside the goroutine body: the canonical
        # mis-synchronization of Listing 6 — it leaves the parent's continuation
        # unordered after the children, whatever datum the race lands on.
        if any(self._has_add_inside_goroutine(file) for file in parsed):
            return (
                RaceCategory.MISSING_SYNCHRONIZATION,
                0.9,
                "wg.Add is issued inside the goroutine it accounts for",
            )
        # 2. Parallel subtests: a test file in the racing stacks calls t.Parallel.
        if self._test_scope_is_parallel(scopes):
            return (
                RaceCategory.PARALLEL_TEST_SUITE,
                0.9,
                "a test file on the racing stacks runs parallel subtests",
            )
        # 3/4. The detector marks map and slice-header conflicts explicitly.
        if "(map)" in raw:
            return RaceCategory.CONCURRENT_MAP_ACCESS, 0.95, "the conflicting accesses target a map"
        if "(slice header)" in raw or self._is_slice_field(parsed, cleaned):
            return (
                RaceCategory.CONCURRENT_SLICE_ACCESS,
                0.9,
                "the conflicting accesses target a slice",
            )
        # 5. Thread-unsafe library state (shared rand sources, hashes, ...).
        if raw.startswith(_LIBRARY_STATE_PREFIXES):
            return (
                RaceCategory.OTHERS,
                0.85,
                "the race is on thread-unsafe standard-library state",
            )
        # 6a. A mutable value held in a ``sync.Map`` whose field is written
        # without value-level synchronization: the map's own operations are
        # safe, but the entries it hands out are not (sync.Map misuse).
        if cleaned and any(
            self._has_syncmap_field(file) and self._syncmap_value_field_written(file, cleaned)
            for file in parsed
        ):
            return (
                RaceCategory.CONCURRENT_MAP_ACCESS,
                0.9,
                f"`{cleaned}` belongs to a value held in a sync.Map and is mutated "
                "without value-level synchronization",
            )
        # 6b. Double-checked locking: a field nil-checked outside the mutex
        # that guards its initialization.
        if cleaned and "." in raw:
            type_name = raw.split(".")[0]
            if any(self._double_checked_field(file, type_name, cleaned) for file in parsed):
                return (
                    RaceCategory.MISSING_SYNCHRONIZATION,
                    0.9,
                    f"`{cleaned}` is initialized under a lock but nil-checked outside it "
                    "(double-checked locking)",
                )
        # 6. A loop variable captured by goroutines spawned in the loop body.
        if cleaned and any(self._is_captured_loop_var(file, cleaned) for file in parsed):
            return (
                RaceCategory.LOOP_VARIABLE_CAPTURE,
                0.9,
                f"`{cleaned}` is a loop variable captured by goroutines in the loop body",
            )
        # 7. A variable of the enclosing function written inside a goroutine
        # closure (capture by reference).
        if cleaned and any(self._is_captured_write(file, cleaned) for file in parsed):
            return (
                RaceCategory.CAPTURE_BY_REFERENCE,
                0.85,
                f"`{cleaned}` is captured by reference and written inside a goroutine",
            )
        # 8. A struct field mutated through its methods without synchronization.
        if cleaned and "." in raw:
            type_name = raw.split(".")[0]
            if any(self._method_writes_field(file, type_name, cleaned) for file in parsed):
                return (
                    RaceCategory.MISSING_SYNCHRONIZATION,
                    0.8,
                    f"methods of `{type_name}` mutate `{cleaned}` without synchronization",
                )
            # 9. A struct mutated through a shared pointer parameter: the
            # callee should have copied the value ("Others" in Table 3).
            if any(self._function_writes_param_field(file, cleaned) for file in parsed):
                return (
                    RaceCategory.OTHERS,
                    0.7,
                    f"`{cleaned}` is mutated through a struct pointer shared across calls",
                )
        # 10. Package-level state written by involved functions.
        if cleaned and any(package_level_var(file, cleaned) for file in parsed):
            return (
                RaceCategory.MISSING_SYNCHRONIZATION,
                0.7,
                f"package-level `{cleaned}` is written without synchronization",
            )
        return (
            RaceCategory.MISSING_SYNCHRONIZATION,
            0.4,
            "shared state accessed without an ordering edge (no more specific shape found)",
        )

    # -- rule predicates ------------------------------------------------------------

    @staticmethod
    def _has_add_inside_goroutine(file: ast.File) -> bool:
        return any(calls_method(closure.body, "Add") for _, closure in go_closures(file))

    def _test_scope_is_parallel(self, scopes: List[str]) -> bool:
        for name in scopes:
            file = self.package.file(name)
            if file is not None and file.is_test_file() and "t.Parallel()" in file.source:
                return True
        return False

    @staticmethod
    def _is_slice_field(parsed: List[ast.File], cleaned: str) -> bool:
        if not cleaned:
            return False
        for file in parsed:
            for spec in file.type_decls():
                if isinstance(spec.type_, ast.StructType):
                    for struct_field in spec.type_.fields:
                        if cleaned in struct_field.names and isinstance(
                            struct_field.type_, ast.ArrayType
                        ):
                            return True
        return False

    @staticmethod
    def _is_captured_loop_var(file: ast.File, cleaned: str) -> bool:
        for node in ast.walk(file):
            if not isinstance(node, ast.RangeStmt):
                continue
            loop_vars = {
                expr.name
                for expr in (node.key, node.value)
                if isinstance(expr, ast.Ident) and expr.name != "_"
            }
            if cleaned not in loop_vars:
                continue
            for go_stmt, closure in go_closures(node.body):
                params = {n for f in closure.type_.params for n in f.names}
                args = {a.name for a in go_stmt.call.args if isinstance(a, ast.Ident)}
                if cleaned in params or cleaned in args:
                    continue
                if cleaned in ident_names(closure.body):
                    return True
        return False

    @staticmethod
    def _is_captured_write(file: ast.File, cleaned: str) -> bool:
        """A closure of a goroutine-spawning function writes ``cleaned`` (a
        variable of the enclosing function).  Closures launched indirectly
        (``run := func() {...}; go run()``) count the same as ``go func()``."""
        for decl in file.func_decls():
            if decl.body is None:
                continue
            if not any(isinstance(n, ast.GoStmt) for n in ast.walk(decl.body)):
                continue
            declared = declared_names(decl, ranges=True)
            for node in ast.walk(decl.body):
                if not isinstance(node, ast.FuncLit):
                    continue
                for inner in ast.walk(node.body):
                    targets: List[ast.Expr] = []
                    if isinstance(inner, ast.AssignStmt) and inner.tok != ":=":
                        targets = inner.lhs
                    elif isinstance(inner, ast.IncDecStmt):
                        targets = [inner.x]
                    for target in targets:
                        base = ast.base_name(target)
                        if base not in declared:
                            continue
                        if isinstance(target, ast.Ident) and target.name == cleaned:
                            return True
                        if isinstance(target, ast.SelectorExpr) and target.sel == cleaned:
                            return True
        return False

    @staticmethod
    def _method_writes_field(file: ast.File, type_name: str, cleaned: str) -> bool:
        return any(writes_selector(decl.body, receiver_name(decl), cleaned)
                   for decl in methods_of(file, type_name))

    @staticmethod
    def _function_writes_param_field(file: ast.File, cleaned: str) -> bool:
        for decl in file.func_decls():
            if decl.recv is not None or decl.body is None:
                continue
            params = {n for f in decl.type_.params for n in f.names}
            for name in params:
                if writes_selector(decl.body, name, cleaned):
                    return True
        return False

    @staticmethod
    def _has_syncmap_field(file: ast.File) -> bool:
        for spec in file.type_decls():
            if isinstance(spec.type_, ast.StructType):
                if any(is_sync_type(f.type_, "Map") for f in spec.type_.fields):
                    return True
        return False

    @staticmethod
    def _syncmap_value_field_written(file: ast.File, cleaned: str) -> bool:
        """Some function loads a value out of a map (``Load``/``LoadOrStore``)
        and then writes ``cleaned`` on it (possibly through aliases)."""
        for decl in file.func_decls():
            if decl.body is None:
                continue
            loaded: set = set()
            for node in ast.walk(decl.body):
                if not (isinstance(node, ast.AssignStmt) and node.tok == ":="):
                    continue
                from_load = any(calls_method(value, "Load", "LoadOrStore") for value in node.rhs)
                aliases = any(
                    isinstance(inner, ast.Ident) and inner.name in loaded
                    for value in node.rhs
                    for inner in ast.walk(value)
                )
                if from_load or aliases:
                    for target in node.lhs:
                        if isinstance(target, ast.Ident) and target.name != "_":
                            loaded.add(target.name)
            for name in loaded:
                if writes_selector(decl.body, name, cleaned):
                    return True
        return False

    @staticmethod
    def _double_checked_field(file: ast.File, type_name: str, cleaned: str) -> bool:
        """A method of ``type_name`` nil-checks ``recv.cleaned`` outside the
        lock and assigns it inside a locked region within that check."""
        for decl in methods_of(file, type_name):
            receiver = receiver_name(decl)
            for node in ast.walk(decl.body):
                if isinstance(node, ast.IfStmt) and is_nil_check(node.cond, receiver, cleaned) \
                        and calls_method(node.body, "Lock") \
                        and writes_selector(node.body, receiver, cleaned):
                    return True
        return False


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _access_pattern(report: RaceReport) -> str:
    kinds = sorted(
        ("write" if trace.is_write else "read") for trace in (report.first, report.second)
    )
    return "-".join(kinds)
