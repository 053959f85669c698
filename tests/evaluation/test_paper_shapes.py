"""The paper's orderings and bands, checked on the committed tables golden.

``tables_golden.txt`` is ``drfix evaluate --scale 0.25`` (corpus seed 2025,
``gpt-4o``) minus its wall-clock row; CI diffs a fresh run against it.  So
these checks run no pipeline: they parse the report and assert the shape
each table or figure should have.  An ordering the paper reports that this
pipeline reverses is a strict ``xfail`` with the measured counts, so it stays
visible and fails once the ordering holds.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Dict

import pytest

GOLDEN = Path(__file__).with_name("tables_golden.txt")


def _parse(text: str) -> Dict[str, Dict[str, Dict[str, str]]]:
    """Each table by its title's lead (``Table 1``, ``RQ3``): its rows by
    first cell, each row a mapping from column header to cell."""
    tables = {}
    for block in text.strip().split("\n\n"):
        lines = block.splitlines()
        if " — " not in lines[0]:
            continue
        # Cells are " | "-separated; the rule under the header uses "+".
        rows = [[cell.strip() for cell in line.split("|")] for line in lines if " | " in line]
        header, body = rows[0], rows[1:]
        tables[lines[0].split(" — ")[0]] = {row[0]: dict(zip(header, row)) for row in body}
    return tables


TABLES = _parse(GOLDEN.read_text())


def _rates(table: str) -> Dict[str, Fraction]:
    """Fixed/total per arm, from cells like ``17/26 (65.4%)``."""
    return {arm: Fraction(*map(int, row["Fixed (measured)"].split()[0].split("/")))
            for arm, row in TABLES[table].items()}


def _percent(cell: str) -> float:
    return float(cell.rstrip("%"))


def test_table1_files_split_into_product_and_test():
    rows = TABLES["Table 1"]
    assert {"Files", "Lines of code"} <= set(rows)
    files = rows["Files"]
    assert int(files["Corpus total"]) == int(files["Corpus product"]) + int(files["Corpus test"])


def test_table2_names_every_component():
    assert {"Data store D", "Skeletonization S", "Embedding E", "Model M",
            "Validator V"} <= set(TABLES["Table 2"])


def test_table3_capture_by_reference_dominates():
    fixes = {category: int(row["Fixes (measured)"])
             for category, row in TABLES["Table 3"].items()}
    assert len(fixes) == 7
    assert fixes["Capture-by-reference in goroutines"] == max(fixes.values())


def test_figure3_examples_help_and_skeletons_help_most():
    rates = _rates("Figure 3")
    assert rates["no-rag"] < rates["rag-skeleton"]
    assert rates["rag-raw-text"] <= rates["rag-skeleton"]


def test_figure4_production_scope_wins():
    rates = _rates("Figure 4")
    assert rates["file-only"] <= min(rates["function-only"], rates["function-file-feedback"])
    assert rates["function-file-feedback"] == max(rates.values())


def test_table4_rag_was_pivotal_for_restructuring_patterns():
    rows = TABLES["Table 4"]
    assert rows, "expected at least one RAG-pivotal fix"
    text = " ".join(row["Description"] for row in rows.values())
    assert any(name in text for name in ("sync_map_convert", "channel_error", "mutex_guard"))


def test_table5_engineered_unfixable_categories_appear():
    rows = TABLES["Table 5"]
    assert int(rows["More than 2 File Changes"]["Count (measured)"]) >= 1
    assert int(rows["External"]["Count (measured)"]) >= 1


def test_table6_quality_is_on_the_survey_scale():
    quality = TABLES["Table 6"]["Quality of fixes (1-5)"]["Measured"]
    assert 1.0 <= float(quality.split("±")[0]) <= 5.0


def test_table7_drfix_patches_stay_small():
    rows = TABLES["Table 7"].values()
    human = [float(row["Human (measured)"]) for row in rows]
    drfix = [float(row["Dr.Fix (measured)"]) for row in rows]
    assert human == sorted(human) and drfix == sorted(drfix)
    assert drfix[-1] <= 3 * human[-1] + 10
    # Even Dr.Fix's largest patch is smaller than the median human rewrite.
    assert drfix[-1] <= human[0]


def test_rq1_a_majority_fixed_and_most_accepted():
    rows = TABLES["RQ1"]
    assert 40.0 <= _percent(rows["Fix rate"]["Measured"]) <= 85.0
    assert _percent(rows["Acceptance rate"]["Measured"]) >= 70.0


@pytest.mark.xfail(strict=True, reason=(
    "the paper's LCA location adds fixes (62.53% -> 66.75%); this pipeline "
    "reads without-LCA 18/26 against with-LCA 17/26 at scale 0.25, and "
    "35/46 against 34/46 at scale 0.45"))
def test_rq2_lca_location_adds_fixes():
    rates = _rates("RQ2.5")
    assert rates["without-lca"] <= rates["with-lca"]


def test_rq3_o1_fixes_at_least_as_many_as_gpt4o():
    rates = _rates("RQ3")
    assert rates["o1-preview"] >= rates["gpt-4o"]
