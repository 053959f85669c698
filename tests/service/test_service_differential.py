"""Differential test: served responses ≡ direct invocations, corpus-wide.

The serving layer adds queueing, batching, caching, and concurrency on top of
the pipeline; none of that may change a single observable bit.  For one case
per corpus template (every race category) this suite renders *direct*
``run_package_tests``/``DrFix`` invocations through the service's payload
builders and asserts byte-equality against what the service serves — cold,
warm (cached), and under concurrent submission.  This equivalence is what
makes the fingerprint cache safe by construction.
"""

import json
import threading

import pytest

from repro.core.config import DrFixConfig
from repro.core.database import ExampleDatabase
from repro.core.pipeline import DrFix
from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.runtime.harness import run_package_tests
from repro.service import DetectRequest, DrFixService, FixRequest
from repro.service.core import detect_payload, fix_outcome_payload, normalize_addresses

SCALE = 0.25
RUNS = 8


@pytest.fixture(scope="module")
def dataset():
    return CorpusGenerator(CorpusConfig().scaled(SCALE)).generate()


@pytest.fixture(scope="module")
def config():
    return DrFixConfig(model="gpt-4o", validator_runs=6, detection_runs=8)


@pytest.fixture(scope="module")
def database(dataset, config):
    return ExampleDatabase.from_cases(dataset.db_examples, config)


def representative_cases(dataset):
    """One case per race category — every corpus template family.

    Drawn from the full corpus (db + evaluation splits) so all seven
    categories are covered even at the reduced test scale.
    """
    picks = {}
    for case in dataset.all_cases():
        picks.setdefault(str(case.category), case)
    return list(picks.values())


def direct_detect(case):
    """What ``drfix detect`` computes, rendered as the service would."""
    result = run_package_tests(case.package, runs=RUNS, seed=0)
    return normalize_addresses(detect_payload(case.package, result))


def direct_fix(case, config, database):
    """What ``drfix fix`` computes (fresh pipeline per report), rendered."""
    detection = run_package_tests(case.package, runs=RUNS, seed=0)
    results = []
    if detection.built:
        baseline = detection.race_hashes()
        for report in detection.reports:
            pipeline = DrFix(case.package, config=config, database=database)
            outcome = pipeline.fix_report(report, baseline_hashes=baseline)
            results.append(fix_outcome_payload(case.package, outcome))
    return normalize_addresses({
        "package": detection.package,
        "built": detection.built,
        "detection_summary": detection.summary(),
        "race_hashes": detection.race_hashes(),
        "build_errors": list(detection.build_errors),
        "fixed_any": any(r["fixed"] for r in results),
        "results": results,
    })


class TestDetectDifferential:
    def test_served_detect_equals_direct_for_every_template(self, dataset, config):
        cases = representative_cases(dataset)
        assert len(cases) == 7, "expected one case per template family"
        with DrFixService(config, database=None, max_queue_depth=64) as service:
            for case in cases:
                direct = direct_detect(case)
                cold = service.call(DetectRequest(package=case.package, runs=RUNS),
                                    timeout=120)
                warm = service.call(DetectRequest(package=case.package, runs=RUNS),
                                    timeout=120)
                assert cold.ok and warm.ok
                assert not cold.cached and warm.cached
                assert cold.payload == direct, case.case_id
                assert warm.payload == direct, case.case_id
                # Byte-identical on the wire, not merely ==.
                assert (json.dumps(cold.payload, sort_keys=True)
                        == json.dumps(direct, sort_keys=True))

    def test_served_detect_equals_direct_under_concurrent_submission(
            self, dataset, config):
        cases = representative_cases(dataset)
        expected = {case.case_id: direct_detect(case) for case in cases}
        # Each case submitted twice, all at once, from many client threads.
        work = [(case.case_id, case) for case in cases] * 2
        responses = {}
        lock = threading.Lock()
        with DrFixService(config, database=None, max_queue_depth=len(work) + 1,
                          max_in_flight=4, jobs=2) as service:
            def client(case_id, case):
                response = service.call(
                    DetectRequest(package=case.package, runs=RUNS), timeout=240)
                with lock:
                    responses.setdefault(case_id, []).append(response)

            threads = [threading.Thread(target=client, args=item) for item in work]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for case_id, served in responses.items():
            assert len(served) == 2
            for response in served:
                assert response.ok
                assert response.payload == expected[case_id], case_id


class TestFixDifferential:
    def test_served_fix_equals_direct_for_every_template(
            self, dataset, config, database):
        cases = representative_cases(dataset)
        with DrFixService(config, database=database, max_queue_depth=64) as service:
            for case in cases:
                direct = direct_fix(case, config, database)
                cold = service.call(FixRequest(package=case.package, runs=RUNS),
                                    timeout=300)
                warm = service.call(FixRequest(package=case.package, runs=RUNS),
                                    timeout=300)
                assert cold.ok and warm.ok
                assert not cold.cached and warm.cached
                assert cold.payload == direct, case.case_id
                assert warm.payload == direct, case.case_id

    def test_fixable_template_is_actually_fixed_when_served(
            self, dataset, config, database):
        fixable = [case for case in representative_cases(dataset)
                   if case.expected_unfixed_reason is None]
        assert fixable
        case = fixable[0]
        with DrFixService(config, database=database) as service:
            response = service.call(FixRequest(package=case.package, runs=RUNS),
                                    timeout=300)
            assert response.ok and response.payload["fixed_any"]
