"""Edge-case coverage for the Patcher guard rails and Patch diff accounting:
empty diffs, pure insertions/deletions, multi-hunk modifications, and
file-scope replacement that introduces a brand-new file."""

import pytest

from repro.core.config import DrFixConfig, FixLocation, FixScope
from repro.core.fix_generator import FixGenerator
from repro.core.patcher import Patch, Patcher
from repro.core.race_info import CodeItem
from repro.errors import PatchError
from repro.runtime.harness import GoFile, GoPackage

BASE_SOURCE = """package svc

func Alpha() int {
	return 1
}

func Beta() int {
	return 2
}

func Gamma() int {
	return 3
}
"""


@pytest.fixture()
def package():
    return GoPackage(name="svc", files=[GoFile("svc.go", BASE_SOURCE)])


def item_for(package, scope=FixScope.FILE, file_name="svc.go", external=False):
    return CodeItem(
        location=FixLocation.LEAF,
        scope=scope,
        file_name=file_name,
        function_names=["Alpha"],
        code=package.file(file_name).source if package.file(file_name) else "",
        external=external,
    )


class TestPatchDiffAccounting:
    def test_empty_diff_counts_zero_lines(self, package):
        patch = Patch(package=package, changed_files=["svc.go"])
        assert patch.diff(package) == ""
        assert patch.lines_changed(package) == 0

    def test_pure_insertion_counts_every_added_line(self, package):
        inserted = BASE_SOURCE + "\nfunc Delta() int {\n\treturn 4\n}\n"
        patched = package.replace_file("svc.go", inserted)
        patch = Patch(package=patched, changed_files=["svc.go"])
        diff = patch.diff(package)
        assert diff.count("\n+") >= 4 and "\n-" not in diff.replace("\n---", "")
        # Three declaration lines plus the separating blank line.
        assert patch.lines_changed(package) == 4

    def test_pure_deletion_counts_every_removed_line(self, package):
        shrunk = BASE_SOURCE.replace("\nfunc Gamma() int {\n\treturn 3\n}\n", "")
        patched = package.replace_file("svc.go", shrunk)
        patch = Patch(package=patched, changed_files=["svc.go"])
        assert patch.lines_changed(package) == 4

    def test_multi_hunk_modification_counts_per_hunk(self, package):
        # Two separated one-line modifications: two hunks, one line each.
        modified = BASE_SOURCE.replace("return 1", "return 10").replace("return 3", "return 30")
        patched = package.replace_file("svc.go", modified)
        patch = Patch(package=patched, changed_files=["svc.go"])
        diff = patch.diff(package)
        assert diff.count("@@") >= 2
        # Each modified line appears as one - plus one +, but bills once.
        assert patch.lines_changed(package) == 2

    def test_new_file_diff_is_a_pure_insertion(self, package):
        new_source = "package svc\n\nfunc Omega() int {\n\treturn 9\n}\n"
        patched = GoPackage(
            name=package.name,
            files=list(package.files) + [GoFile("omega.go", new_source)],
        )
        patch = Patch(package=patched, changed_files=["omega.go"])
        assert patch.lines_changed(package) == len(new_source.splitlines())


class TestPatcherGuardRails:
    def test_refuses_external_item(self, package):
        patcher = Patcher(package, DrFixConfig())
        with pytest.raises(PatchError, match="external/vendored"):
            patcher.apply(item_for(package, external=True), BASE_SOURCE)

    def test_refuses_vendored_path_prefix(self):
        vendored = GoPackage(
            name="svc", files=[GoFile("vendor/dep/dep.go", "package dep\n")]
        )
        patcher = Patcher(vendored, DrFixConfig())
        item = item_for(vendored, file_name="vendor/dep/dep.go")
        with pytest.raises(PatchError, match="external/vendored"):
            patcher.apply(item, "package dep\n\nfunc F() {}\n")

    def test_refuses_empty_response(self, package):
        patcher = Patcher(package, DrFixConfig())
        with pytest.raises(PatchError, match="empty response"):
            patcher.apply(item_for(package), "   \n")

    def test_refuses_unparseable_file_response(self, package):
        patcher = Patcher(package, DrFixConfig())
        with pytest.raises(PatchError, match="build failed"):
            patcher.apply(item_for(package), "package svc\n\nfunc Broken( {\n")

    def test_function_scope_requires_a_matching_declaration(self, package):
        patcher = Patcher(package, DrFixConfig())
        item = item_for(package, scope=FixScope.FUNCTION)
        with pytest.raises(PatchError, match="do not match any declaration"):
            patcher.apply(item, "func Unknown() int {\n\treturn 0\n}\n")

    def test_file_scope_replacement_of_a_new_file(self, package):
        """A file-scope response for a file name the package does not have yet
        creates that file (pure insertion in the diff)."""
        patcher = Patcher(package, DrFixConfig())
        item = CodeItem(
            location=FixLocation.LEAF,
            scope=FixScope.FILE,
            file_name="helper.go",
            function_names=[],
            code="",
        )
        new_source = "package svc\n\nfunc Helper() int {\n\treturn 7\n}\n"
        patch = patcher.apply(item, new_source)
        assert patch.changed_files == ["helper.go"]
        assert patch.package.file("helper.go") is not None
        assert patch.lines_changed(package) == len(new_source.splitlines())


class TestCandidateExamples:
    def test_only_a_found_example_precedes_the_empty_one(self, err_capture_case):
        """A query that finds nothing leaves only the empty example; one that
        finds an entry puts it first."""
        from repro.core.database import ExampleDatabase, ExampleEntry

        config = DrFixConfig()
        database = ExampleDatabase(config)
        database.add_example(ExampleEntry(
            example_id="e1",
            buggy_code=err_capture_case.racy_source(),
            fixed_code=err_capture_case.fixed_source(),
        ))
        generator = FixGenerator(config, database=database)

        # An item with no code cannot be embedded: retrieval yields nothing.
        empty_item = CodeItem(
            location=FixLocation.LEAF, scope=FixScope.FUNCTION,
            file_name="x.go", function_names=[], code="   ",
        )
        assert generator.candidate_examples(empty_item) == [None]

        real_item = CodeItem(
            location=FixLocation.LEAF, scope=FixScope.FILE,
            file_name=err_capture_case.racy_file,
            function_names=[err_capture_case.racy_function],
            code=err_capture_case.racy_source(),
            racy_variable=err_capture_case.racy_variable,
        )
        examples = generator.candidate_examples(real_item)
        assert examples[0] is not None and examples[0].example_id == "e1"
