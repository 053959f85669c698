"""Tests for the corpus templates, generator, and dataset statistics."""

import pytest

from repro.diagnosis.categories import RaceCategory, UnfixedReason, all_categories
from repro.corpus.generator import CorpusConfig, CorpusGenerator, generate_cases
from repro.corpus.ground_truth import Difficulty
from repro.corpus.noise import make_vocabulary, noise_helper_functions, noise_struct
from repro.corpus.templates import TEMPLATE_REGISTRY, UNFIXABLE_TEMPLATES, all_templates
from repro.golang.parser import parse_file


class TestNoise:
    def test_vocabulary_is_deterministic_per_seed(self):
        assert make_vocabulary(7).type_name() == make_vocabulary(7).type_name()
        assert make_vocabulary(7).domain == make_vocabulary(7).domain

    def test_noise_helpers_parse_as_go(self):
        vocab = make_vocabulary(11)
        source = "package p\n\n" + noise_helper_functions(vocab, 3) + "\n\n" + noise_struct(vocab)
        file = parse_file(source)
        assert len(file.func_decls()) == 3
        assert len(file.type_decls()) == 1

    def test_different_seeds_give_different_vocabularies(self):
        names = {make_vocabulary(seed).type_name() for seed in range(12)}
        assert len(names) > 4


class TestTemplates:
    @pytest.mark.parametrize("template", all_templates(), ids=lambda t: t.__name__)
    def test_every_template_races_and_its_ground_truth_is_clean(self, template):
        case = template(321, 1)
        assert case.reproduces(runs=12), f"{case.case_id} did not reproduce"
        assert case.ground_truth_eliminates_race(runs=12), f"{case.case_id} ground truth still races"

    @pytest.mark.parametrize("template", all_templates(), ids=lambda t: t.__name__)
    def test_templates_parse_and_carry_consistent_metadata(self, template):
        case = template(654, 2)
        for file in case.package.files + case.fixed_package.files:
            parse_file(file.source, file.name)
        assert case.package.file(case.racy_file) is not None
        assert case.test_function.startswith("Test")
        assert case.human_fix_loc() > 0

    def test_noise_level_changes_size_but_not_the_race(self):
        template = TEMPLATE_REGISTRY[RaceCategory.CAPTURE_BY_REFERENCE][0]
        small = template(42, 0)
        large = template(42, 3)
        assert large.package.total_lines() > small.package.total_lines()
        assert small.racy_variable == large.racy_variable

    def test_detection_cache_is_keyed_by_runs_and_seed(self):
        case = TEMPLATE_REGISTRY[RaceCategory.CAPTURE_BY_REFERENCE][0](42, 0)
        assert case.detect(runs=4).runs == 4
        assert case.detect(runs=10).runs == 10
        first = case.detect(runs=4, seed=1)
        assert case.detect(runs=4, seed=1) is first
        assert case.detect(runs=4) is not first

    def test_unfixable_templates_have_reasons(self):
        for template in UNFIXABLE_TEMPLATES:
            case = template(77, 1)
            assert case.expected_unfixed_reason is not None
            assert isinstance(case.expected_unfixed_reason, UnfixedReason)

    def test_registry_covers_every_category(self):
        assert set(TEMPLATE_REGISTRY) == set(all_categories())


class TestGenerator:
    def test_generation_is_deterministic(self):
        config = CorpusConfig(db_examples=10, eval_fixable=10, eval_unfixable=4, seed=77)
        first = CorpusGenerator(config).generate()
        second = CorpusGenerator(config).generate()
        assert [c.case_id for c in first.evaluation] == [c.case_id for c in second.evaluation]

    def test_splits_are_disjoint(self):
        dataset = CorpusGenerator(
            CorpusConfig(db_examples=12, eval_fixable=12, eval_unfixable=4, seed=5)
        ).generate()
        db_ids = {c.case_id for c in dataset.db_examples}
        eval_ids = {c.case_id for c in dataset.evaluation}
        assert not (db_ids & eval_ids)

    def test_category_mix_follows_table3(self):
        dataset = CorpusGenerator(
            CorpusConfig(db_examples=40, eval_fixable=41, eval_unfixable=0, seed=9)
        ).generate()
        distribution = dataset.category_distribution(dataset.evaluation)
        assert distribution.fraction(RaceCategory.CAPTURE_BY_REFERENCE) == pytest.approx(0.41, abs=0.06)
        assert distribution.fraction(RaceCategory.MISSING_SYNCHRONIZATION) == pytest.approx(0.26, abs=0.06)

    def test_unfixable_count_matches_config(self):
        dataset = CorpusGenerator(
            CorpusConfig(db_examples=6, eval_fixable=8, eval_unfixable=5, seed=3)
        ).generate()
        assert len(dataset.unfixable_eval_cases()) == 5
        assert len(dataset.fixable_eval_cases()) == 8

    def test_scaled_config(self):
        config = CorpusConfig(db_examples=60, eval_fixable=70, eval_unfixable=30)
        scaled = config.scaled(0.1)
        assert scaled.db_examples == 6 and scaled.eval_fixable == 7

    def test_generate_cases_helper(self):
        cases = generate_cases([RaceCategory.LOOP_VARIABLE_CAPTURE], 2, seed=1)
        assert len(cases) == 2
        assert all(c.category is RaceCategory.LOOP_VARIABLE_CAPTURE for c in cases)

    def test_statistics_reflect_the_corpus(self):
        dataset = CorpusGenerator(
            CorpusConfig(db_examples=6, eval_fixable=6, eval_unfixable=2, seed=13)
        ).generate()
        stats = dataset.statistics()
        assert stats.files > 20
        assert stats.lines > 500
        assert stats.test_files > 0 and stats.product_files > 0
        assert stats.concurrency_files > 0
        rows = stats.as_rows()
        assert rows[0][0] == "Files" and rows[1][0] == "Lines of code"

    def test_difficulty_annotations_exist(self):
        cases = generate_cases(all_categories(), 1, seed=21)
        assert {c.difficulty for c in cases} >= {Difficulty.SIMPLE, Difficulty.COMPLEX}
