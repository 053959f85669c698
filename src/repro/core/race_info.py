"""Race-info extraction: from a ThreadSanitizer-format report to candidate fix
locations and code scopes (Section 4.2 / Figure 2).

Given the code repository (a :class:`~repro.runtime.harness.GoPackage`) and a
:class:`~repro.runtime.race_report.RaceReport`, the extractor derives:

* ``leaf``  — the functions at the top of the two racing stacks;
* ``test``  — the ``TestXxx`` root frame that exercised the race;
* ``lca``   — the lowest common ancestor of the two goroutines' call paths
  (including their creation stacks), i.e. the last point where execution was
  still serial;

and for each location two scopes: the function source and the whole file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import DrFixConfig, FixLocation, FixScope
from repro.diagnosis import clean_variable_name
from repro.golang import ast_nodes as ast
from repro.golang.analysis import parse_package_file
from repro.golang.printer import print_node
from repro.runtime.harness import GoPackage
from repro.runtime.race_report import RaceReport, StackFrame


@dataclass
class CodeItem:
    """One candidate (location, scope) code item handed to the fix generator."""

    location: FixLocation
    scope: FixScope
    file_name: str
    function_names: List[str]
    code: str
    racy_variable: str = ""
    racy_lines: List[int] = field(default_factory=list)
    racy_functions: List[str] = field(default_factory=list)
    external: bool = False

    @property
    def key(self) -> str:
        return f"{self.location.value}/{self.scope.value}/{self.file_name}"


@dataclass
class RaceInfo:
    """Everything extracted from one race report."""

    report: RaceReport
    package: GoPackage
    bug_hash: str
    racy_variable: str = ""
    leaf_frames: List[StackFrame] = field(default_factory=list)
    test_frame: Optional[StackFrame] = None
    lca_function: Optional[str] = None
    lca_file: Optional[str] = None
    items: List[CodeItem] = field(default_factory=list)

    def items_for(self, location: FixLocation, scope: FixScope) -> List[CodeItem]:
        return [i for i in self.items if i.location is location and i.scope is scope]

    def ordered_items(self, config: DrFixConfig) -> List[CodeItem]:
        """Code items in the attempt order prescribed by the configuration."""
        ordered: List[CodeItem] = []
        seen: set[str] = set()
        for location in config.locations:
            for scope in config.scopes:
                for item in self.items_for(location, scope):
                    if item.key not in seen:
                        seen.add(item.key)
                        ordered.append(item)
        return ordered


class RaceInfoExtractor:
    """Build :class:`RaceInfo` from a package and a race report."""

    def __init__(self, package: GoPackage, config: Optional[DrFixConfig] = None):
        self.package = package
        self.config = (config or DrFixConfig()).validated()

    # ------------------------------------------------------------------

    def _is_external(self, file_name: str) -> bool:
        return any(file_name.startswith(prefix) for prefix in self.config.external_prefixes)

    # ------------------------------------------------------------------

    def extract(self, report: RaceReport) -> RaceInfo:
        info = RaceInfo(
            report=report,
            package=self.package,
            bug_hash=report.bug_hash(),
            racy_variable=clean_variable_name(report.variable),
        )
        info.leaf_frames = [
            frame for frame in (report.first.leaf, report.second.leaf) if frame is not None
        ]
        info.test_frame = self._find_test_frame(report)
        info.lca_function, info.lca_file = self._find_lca(report)
        info.items = self._build_items(info)
        return info

    # -- locations -----------------------------------------------------------------------

    def _find_test_frame(self, report: RaceReport) -> Optional[StackFrame]:
        for trace in (report.first, report.second):
            for frame in list(trace.frames) + list(trace.creation_frames):
                if frame.function.split(".")[-1].startswith("Test"):
                    return frame
        return None

    def _full_path(self, trace) -> List[StackFrame]:
        """Root-first call path including the goroutine's creation stack."""
        return list(reversed(trace.creation_frames)) + list(reversed(trace.frames))

    def _find_lca(self, report: RaceReport) -> Tuple[Optional[str], Optional[str]]:
        first_path = self._full_path(report.first)
        second_path = self._full_path(report.second)
        lca: Optional[StackFrame] = None
        for frame_a, frame_b in zip(first_path, second_path):
            if frame_a.function == frame_b.function and frame_a.file == frame_b.file:
                lca = frame_a
            else:
                break
        if lca is None:
            # Fall back to the deepest function present in both paths.
            second_names = {frame.function for frame in second_path}
            for frame in reversed(first_path):
                if frame.function in second_names:
                    lca = frame
                    break
        if lca is None:
            return None, None
        return lca.function, lca.file

    # -- code items ----------------------------------------------------------------------

    def _build_items(self, info: RaceInfo) -> List[CodeItem]:
        items: List[CodeItem] = []
        racy_functions = info.report.involved_functions()

        def add_items(location: FixLocation, frames: Sequence[StackFrame]) -> None:
            by_file: Dict[str, List[StackFrame]] = {}
            for frame in frames:
                by_file.setdefault(frame.file, []).append(frame)
            for file_name, file_frames in by_file.items():
                parsed = parse_package_file(self.package, file_name)
                source_file = self.package.file(file_name)
                if parsed is None or source_file is None:
                    continue
                function_names = [frame.function for frame in file_frames]
                racy_lines = [frame.line for frame in file_frames]
                func_code = self._function_code(parsed, function_names)
                external = self._is_external(file_name)
                if func_code:
                    items.append(
                        CodeItem(
                            location=location,
                            scope=FixScope.FUNCTION,
                            file_name=file_name,
                            function_names=function_names,
                            code=func_code,
                            racy_variable=info.racy_variable,
                            racy_lines=racy_lines,
                            racy_functions=racy_functions,
                            external=external,
                        )
                    )
                items.append(
                    CodeItem(
                        location=location,
                        scope=FixScope.FILE,
                        file_name=file_name,
                        function_names=function_names,
                        code=source_file.source,
                        racy_variable=info.racy_variable,
                        racy_lines=racy_lines,
                        racy_functions=racy_functions,
                        external=external,
                    )
                )

        if info.test_frame is not None:
            add_items(FixLocation.TEST, [info.test_frame])
        if info.leaf_frames:
            add_items(FixLocation.LEAF, info.leaf_frames)
        if info.lca_function is not None and info.lca_file is not None:
            add_items(
                FixLocation.LCA,
                [StackFrame(function=info.lca_function, file=info.lca_file, line=0)],
            )
        return items

    def _function_code(self, parsed: ast.File, function_names: Sequence[str]) -> str:
        """Source text of the named top-level functions (closures resolve to
        their enclosing declaration)."""
        decls: List[ast.FuncDecl] = []
        for qualified in function_names:
            decl = resolve_function(parsed, qualified)
            if decl is not None and decl not in decls:
                decls.append(decl)
        if not decls:
            return ""
        return "\n\n".join(print_node(decl) for decl in decls) + "\n"


def resolve_function(parsed: ast.File, qualified: str) -> Optional[ast.FuncDecl]:
    """Map a report frame name (``Func``, ``Type.Method``, ``Func.func1``) to
    the first declaration named by its last segment (closures resolve to the
    enclosing function)."""
    name = qualified.split(".func")[0].split(".")[-1]
    for decl in parsed.func_decls():
        if decl.name == name:
            return decl
    return None
