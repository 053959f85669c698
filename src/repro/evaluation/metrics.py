"""Evaluation metrics: fix rates, category histograms, percentiles, and the
diagnosis-layer aggregates (per-category fix rates, diagnosis agreement)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence

from repro.diagnosis.categories import RaceCategory, all_categories

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.runner import CaseResult


@dataclass
class FixRate:
    """A count of fixed races out of attempted races."""

    fixed: int = 0
    total: int = 0
    label: str = ""

    @property
    def rate(self) -> float:
        return self.fixed / self.total if self.total else 0.0

    @property
    def percent(self) -> float:
        return 100.0 * self.rate

    def __str__(self) -> str:
        return f"{self.fixed}/{self.total} ({self.percent:.1f}%)"


@dataclass
class RateComparison:
    """Paper value vs measured value for one experiment arm."""

    label: str
    paper_percent: float
    measured: FixRate

    @property
    def delta(self) -> float:
        return self.measured.percent - self.paper_percent


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) using linear interpolation.

    Matches the convention of Table 7 (P50/P75/P90/P95/P99/P100).
    """
    data = sorted(values)
    if not data:
        return 0.0
    if q <= 0:
        return float(data[0])
    if q >= 100:
        return float(data[-1])
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(data[low])
    weight = rank - low
    return float(data[low] * (1 - weight) + data[high] * weight)


TABLE7_PERCENTILES = (50, 75, 90, 95, 99, 100)


@dataclass
class Histogram:
    """A labelled counter with percentage accessors."""

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, label: str, amount: int = 1) -> None:
        self.counts[label] = self.counts.get(label, 0) + amount

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, label: str) -> float:
        return self.counts.get(label, 0) / self.total if self.total else 0.0

    def sorted_items(self) -> List[tuple[str, int]]:
        return sorted(self.counts.items(), key=lambda item: (-item[1], item[0]))


def category_fix_rates(results: "Sequence[CaseResult]") -> Dict[RaceCategory, FixRate]:
    """Validated-fix rate per ground-truth race category (Table 3 companion)."""
    rates: Dict[RaceCategory, FixRate] = {
        category: FixRate(label=category.value) for category in all_categories()
    }
    for result in results:
        rate = rates[result.case.category]
        rate.total += 1
        if result.fixed:
            rate.fixed += 1
    return rates


def diagnosis_agreement(results: "Sequence[CaseResult]") -> FixRate:
    """How often the diagnosis layer's category matches the ground truth.

    Counted over results that carry a diagnosis (outcomes rehydrated from an
    old run store may not).
    """
    agreement = FixRate(label="diagnosis agreement")
    for result in results:
        diagnosis = result.outcome.diagnosis
        if diagnosis is None:
            continue
        agreement.total += 1
        if diagnosis.category is result.case.category:
            agreement.fixed += 1
    return agreement


def diagnosis_agreement_by_category(
    results: "Sequence[CaseResult]",
) -> Dict[RaceCategory, FixRate]:
    """Per-ground-truth-category diagnosis agreement."""
    rates: Dict[RaceCategory, FixRate] = {
        category: FixRate(label=category.value) for category in all_categories()
    }
    for result in results:
        diagnosis = result.outcome.diagnosis
        if diagnosis is None:
            continue
        rate = rates[result.case.category]
        rate.total += 1
        if diagnosis.category is result.case.category:
            rate.fixed += 1
    return rates


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else 0.0


def stddev(values: Iterable[float]) -> float:
    data = list(values)
    if len(data) < 2:
        return 0.0
    center = mean(data)
    return math.sqrt(sum((v - center) ** 2 for v in data) / (len(data) - 1))
