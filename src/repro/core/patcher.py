"""Apply a model response to the code repository (Section 4.4).

Function-scoped responses are merged via AST rewriting: the response is parsed
and each function/method it contains replaces the declaration of the same name
in the original file.  File-scoped responses replace the file wholesale after
a parse check.  The patcher enforces the deployment's guard rails: it refuses
to touch vendored/external code and limits how many files a patch may change.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.core.config import DrFixConfig, FixScope
from repro.core.race_info import CodeItem
from repro.errors import GoSyntaxError, PatchError
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from repro.golang.printer import print_file
from repro.runtime.harness import GoPackage


@dataclass
class Patch:
    """A concrete candidate patch."""

    package: GoPackage
    changed_files: List[str] = field(default_factory=list)

    def diff(self, original: GoPackage) -> str:
        """A unified diff against the original package (for review/reporting)."""
        chunks: List[str] = []
        for name in self.changed_files:
            before = original.file(name)
            after = self.package.file(name)
            before_lines = before.source.splitlines() if before else []
            after_lines = after.source.splitlines() if after else []
            chunks.extend(
                difflib.unified_diff(
                    before_lines, after_lines, fromfile=f"a/{name}", tofile=f"b/{name}",
                    lineterm="",
                )
            )
        return "\n".join(chunks)

    def lines_changed(self, original: GoPackage) -> int:
        """Lines of code the patch changes, counted per hunk.

        A modified line appears in a unified diff as one ``-`` plus one ``+``;
        counting both would bill it twice (inflating the Table 7 LOC-per-fix
        numbers), so each hunk contributes ``max(additions, deletions)`` —
        modifications count once, pure insertions/removals count in full.
        """
        count = 0
        additions = deletions = 0
        for line in self.diff(original).splitlines():
            if line.startswith("@@") or line.startswith(("+++", "---")):
                count += max(additions, deletions)
                additions = deletions = 0
            elif line.startswith("+"):
                additions += 1
            elif line.startswith("-"):
                deletions += 1
        return count + max(additions, deletions)


class Patcher:
    """Apply model output to a package."""

    def __init__(self, package: GoPackage, config: Optional[DrFixConfig] = None):
        self.package = package
        self.config = (config or DrFixConfig()).validated()

    # ------------------------------------------------------------------

    def apply(self, item: CodeItem, new_code: str) -> Patch:
        """Apply ``new_code`` (the model's full response) at ``item``'s scope.

        Raises :class:`~repro.errors.PatchError` with a developer-readable
        message when the patch cannot be applied; the message becomes the
        failure feedback for the next attempt.
        """
        if item.external or any(
            item.file_name.startswith(prefix) for prefix in self.config.external_prefixes
        ):
            raise PatchError(
                f"refusing to modify external/vendored file {item.file_name}"
            )
        if not new_code.strip():
            raise PatchError("the model returned an empty response")
        cleaned = _strip_fences(new_code)
        if item.scope is FixScope.FILE:
            return self._apply_file(item, cleaned)
        return self._apply_function(item, cleaned)

    # ------------------------------------------------------------------

    def _apply_file(self, item: CodeItem, new_code: str) -> Patch:
        if not new_code.lstrip().startswith("package "):
            new_code = self._package_clause() + "\n\n" + new_code
        try:
            parse_file(new_code, item.file_name)
        except GoSyntaxError as exc:
            raise PatchError(f"build failed: {exc}") from exc
        # with_file (not replace_file): a file-scope response may introduce a
        # brand-new file, which replace_file would silently drop.
        package = self.package.with_file(item.file_name, _normalize(new_code))
        return Patch(package=package, changed_files=[item.file_name])

    def _apply_function(self, item: CodeItem, new_code: str) -> Patch:
        wrapped = new_code
        if not wrapped.lstrip().startswith("package "):
            wrapped = "package drfixpatch\n\n" + wrapped
        try:
            response_file = parse_file(wrapped, item.file_name)
        except GoSyntaxError as exc:
            raise PatchError(f"build failed: {exc}") from exc
        replacements = [d for d in response_file.func_decls() if d.body is not None]
        if not replacements:
            raise PatchError("the response does not contain any function declaration")
        original = self.package.file(item.file_name)
        if original is None:
            raise PatchError(f"file {item.file_name} not found in the repository")
        try:
            original_ast = parse_file(original.source, item.file_name)
        except GoSyntaxError as exc:  # pragma: no cover - repository files always parse
            raise PatchError(f"cannot parse original file {item.file_name}: {exc}") from exc
        # The parsed tree is shared: merge into a copy of its declaration list.
        original_ast = replace(original_ast, decls=list(original_ast.decls))
        replaced_any = False
        for replacement in replacements:
            for index, decl in enumerate(original_ast.decls):
                if isinstance(decl, ast.FuncDecl) and decl.name == replacement.name \
                        and _same_receiver(decl, replacement):
                    original_ast.decls[index] = replacement
                    replaced_any = True
                    break
        if not replaced_any:
            raise PatchError(
                "the response's functions do not match any declaration in "
                f"{item.file_name}; cannot merge a function-scoped fix"
            )
        new_source = print_file(original_ast)
        package = self.package.replace_file(item.file_name, new_source)
        return Patch(package=package, changed_files=[item.file_name])

    # ------------------------------------------------------------------

    def _package_clause(self) -> str:
        for file in self.package.files:
            for line in file.source.splitlines():
                if line.startswith("package "):
                    return line
        return "package main"


def _same_receiver(original: ast.FuncDecl, replacement: ast.FuncDecl) -> bool:
    return _receiver_type(original) == _receiver_type(replacement)


def _receiver_type(decl: ast.FuncDecl) -> str:
    if decl.recv is None:
        return ""
    type_expr = decl.recv.type_
    if isinstance(type_expr, ast.StarExpr):
        type_expr = type_expr.x
    if isinstance(type_expr, ast.Ident):
        return type_expr.name
    return ""


def _strip_fences(code: str) -> str:
    """Remove markdown fences if a model disobeys the response contract."""
    text = code.strip()
    if text.startswith("```"):
        lines = text.splitlines()
        lines = lines[1:]
        if lines and lines[-1].strip().startswith("```"):
            lines = lines[:-1]
        text = "\n".join(lines)
    return text


def _normalize(code: str) -> str:
    return code if code.endswith("\n") else code + "\n"
