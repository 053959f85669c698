"""Seeded template-mutation engine: derive labeled race cases from templates.

Every template in :mod:`repro.corpus.templates` yields one case shape per
seed.  This module multiplies that supply by applying **semantics-aware
mutations** to an existing :class:`~repro.corpus.ground_truth.RaceCase`, each
mutant carrying re-derived ground truth:

* ``rename_symbols``  — consistently rename top-level functions, methods, and
  type names across the racy *and* fixed packages via a tracked rename map;
  the ground-truth symbols (racy function, test function) are re-derived
  through the same map, so the human fix stays aligned;
* ``vary_workload``   — vary the integer workload the test drives (goroutine
  counts, rounds) in both packages' test files;
* ``reorder_decls``   — permute top-level function declarations in non-racy
  regions (declaration order is semantics-free in Go); the fixed file is
  reordered to the same declaration order;
* ``buffer_channels`` — vary channel topology by giving ``make(chan T)``
  channels an explicit buffer (the interpreter's happens-before edges are
  capacity-independent, so the label is preserved);
* ``sync_inject``     — adopt the ground-truth synchronization, flipping the
  label to race-free (``expected_race=False``) in a tracked way;
* ``sync_remove``     — strip the injected synchronization again, restoring
  the racy body and flipping the label back.

Label-preserving mutations keep category, racy symbols, difficulty, and
diagnosis invariant — the metamorphic property the validation harness
(:mod:`repro.corpus.validate`) enforces.  All randomness flows from
``random.Random`` seeded with strings (SHA-512 based, stable across
processes), and mutant ids come from :func:`repro.fingerprint.digest`, so a
mutant corpus is byte-identical for a given seed.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.corpus.ground_truth import RaceCase
from repro.errors import CorpusError
from repro.fingerprint import digest
from repro.golang import ast_nodes as ast
from repro.golang.parser import parse_file
from repro.golang.printer import print_file
from repro.runtime.harness import GoFile, GoPackage

#: Mutations that keep the ground-truth label (and category/diagnosis) intact.
LABEL_PRESERVING_OPS: Tuple[str, ...] = (
    "rename_symbols",
    "vary_workload",
    "reorder_decls",
    "buffer_channels",
)

#: Mutations that flip ``expected_race`` in a tracked way.
LABEL_FLIPPING_OPS: Tuple[str, ...] = ("sync_inject", "sync_remove")

#: Suffix vocabulary for symbol renames (capitalized so exported names stay
#: exported and ``TestX`` keeps its ``Test`` prefix).
_RENAME_SUFFIXES = (
    "Alt", "Prime", "Next", "Beta", "Edge", "Core", "Plus", "Nova", "Twin", "Vue",
)

_WORKLOAD_VALUES = (2, 3, 4, 5, 6, 7, 8)


@dataclass
class MutationRecord:
    """Provenance of one applied mutation operator."""

    op: str
    details: Dict[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        if not self.details:
            return self.op
        inner = ",".join(f"{key}={value}" for key, value in sorted(self.details.items()))
        return f"{self.op}({inner})"


@dataclass
class _Draft:
    """Mutable working state while a mutant is being derived."""

    racy_files: Dict[str, str]
    fixed_files: Dict[str, str]
    racy_function: str
    test_function: str
    expected_race: bool
    records: List[MutationRecord] = field(default_factory=list)


def _is_test_file(name: str) -> bool:
    return name.endswith("_test.go")


# ---------------------------------------------------------------------------
# Mutation operators.  Each takes (draft, case, rng) and returns True when it
# applied (recording its provenance), False when not applicable to this case.
# ---------------------------------------------------------------------------


def _op_rename_symbols(draft: _Draft, case: RaceCase, rng: random.Random) -> bool:
    sources = list(draft.racy_files.values()) + list(draft.fixed_files.values())
    combined = "\n".join(sources)
    names: List[str] = []
    for source in draft.racy_files.values():
        names.extend(re.findall(r"^func (?:\([^)]*\) )?([A-Za-z_]\w*)\(", source, re.M))
        names.extend(re.findall(r"^type ([A-Za-z_]\w*) struct", source, re.M))
    # Deterministic order, no duplicates.
    seen = set()
    candidates = [n for n in names if not (n in seen or seen.add(n))]
    if not candidates:
        return False
    rename_map: Dict[str, str] = {}
    for name in candidates:
        for _ in range(len(_RENAME_SUFFIXES)):
            suffix = rng.choice(_RENAME_SUFFIXES)
            fresh = name + suffix
            if fresh not in combined and fresh not in rename_map.values():
                rename_map[name] = fresh
                break
    if not rename_map:
        return False
    pattern = re.compile(r"\b(" + "|".join(re.escape(n) for n in rename_map) + r")\b")

    def apply(source: str) -> str:
        return pattern.sub(lambda m: rename_map[m.group(1)], source)

    draft.racy_files = {name: apply(src) for name, src in draft.racy_files.items()}
    draft.fixed_files = {name: apply(src) for name, src in draft.fixed_files.items()}
    draft.racy_function = rename_map.get(draft.racy_function, draft.racy_function)
    draft.test_function = rename_map.get(draft.test_function, draft.test_function)
    draft.records.append(MutationRecord("rename_symbols", dict(rename_map)))
    return True


def _op_vary_workload(draft: _Draft, case: RaceCase, rng: random.Random) -> bool:
    product = "\n".join(
        src for name, src in draft.racy_files.items() if not _is_test_file(name)
    )
    chosen: Optional[Tuple[str, int]] = None
    for name, source in sorted(draft.racy_files.items()):
        if not _is_test_file(name):
            continue
        for callee, literal in re.findall(r"\b([A-Za-z_]\w*)\((\d+)\)", source):
            value = int(literal)
            if value >= 2 and f"func {callee}(" in product:
                chosen = (name, value)
                break
        if chosen:
            break
    if chosen is None:
        return False
    test_name, old = chosen
    new = rng.choice([v for v in _WORKLOAD_VALUES if v != old])
    pattern = re.compile(rf"\b{old}\b")
    for files in (draft.racy_files, draft.fixed_files):
        if test_name in files:
            files[test_name] = pattern.sub(str(new), files[test_name])
    draft.records.append(
        MutationRecord("vary_workload", {"file": test_name, "from": str(old), "to": str(new)})
    )
    return True


def _op_reorder_decls(draft: _Draft, case: RaceCase, rng: random.Random) -> bool:
    racy_name = case.racy_file
    racy_source = draft.racy_files.get(racy_name)
    fixed_source = draft.fixed_files.get(racy_name)
    if racy_source is None or fixed_source is None:
        return False
    try:
        racy_ast = parse_file(racy_source, racy_name)
        fixed_ast = parse_file(fixed_source, racy_name)
    except Exception:  # noqa: BLE001 - skip files the parser cannot round-trip
        return False
    # The parsed trees are shared: permute copies of their declaration lists.
    racy_ast = replace(racy_ast, decls=list(racy_ast.decls))
    fixed_ast = replace(fixed_ast, decls=list(fixed_ast.decls))
    func_slots = [i for i, d in enumerate(racy_ast.decls) if isinstance(d, ast.FuncDecl)]
    fixed_slots = [i for i, d in enumerate(fixed_ast.decls) if isinstance(d, ast.FuncDecl)]
    # The racy and fixed files are structurally parallel (same template layout,
    # same noise counts), so the permutation is applied positionally — noise
    # helper *names* differ between the two, names cannot be matched.
    if len(func_slots) < 2 or len(func_slots) != len(fixed_slots):
        return False
    order = list(range(len(func_slots)))
    rng.shuffle(order)
    if order == sorted(order):
        order = order[1:] + order[:1]
    funcs = [racy_ast.decls[i] for i in func_slots]
    fixed_funcs = [fixed_ast.decls[i] for i in fixed_slots]
    for slot, which in zip(func_slots, order):
        racy_ast.decls[slot] = funcs[which]
    for slot, which in zip(fixed_slots, order):
        fixed_ast.decls[slot] = fixed_funcs[which]
    name_order = [funcs[which].name for which in order]
    racy_out, fixed_out = print_file(racy_ast), print_file(fixed_ast)
    try:  # the printed form must still parse — otherwise skip, don't corrupt
        parse_file(racy_out, racy_name)
        parse_file(fixed_out, racy_name)
    except Exception:  # noqa: BLE001
        return False
    draft.racy_files[racy_name] = racy_out
    draft.fixed_files[racy_name] = fixed_out
    draft.records.append(
        MutationRecord("reorder_decls", {"file": racy_name, "order": "-".join(name_order)})
    )
    return True


def _op_buffer_channels(draft: _Draft, case: RaceCase, rng: random.Random) -> bool:
    # The interpreter's channel happens-before edges (send releases, receive
    # acquires) are capacity-independent, so growing a buffer — or giving an
    # unbuffered channel one — never changes the race label.
    pattern = re.compile(r"make\(chan ([A-Za-z_]\w*)(?:, (\d+))?\)")
    if not any(pattern.search(src) for src in draft.racy_files.values()):
        return False
    extra = rng.randint(1, 3)

    def bump(match: re.Match) -> str:
        current = int(match.group(2)) if match.group(2) else 0
        return f"make(chan {match.group(1)}, {current + extra})"

    def apply(source: str) -> str:
        return pattern.sub(bump, source)

    draft.racy_files = {name: apply(src) for name, src in draft.racy_files.items()}
    draft.fixed_files = {name: apply(src) for name, src in draft.fixed_files.items()}
    draft.records.append(MutationRecord("buffer_channels", {"extra": str(extra)}))
    return True


def _op_sync_inject(draft: _Draft, case: RaceCase, rng: random.Random) -> bool:
    if not draft.expected_race:
        return False
    draft.expected_race = False
    draft.records.append(MutationRecord("sync_inject"))
    return True


def _op_sync_remove(draft: _Draft, case: RaceCase, rng: random.Random) -> bool:
    if draft.expected_race:
        return False
    draft.expected_race = True
    draft.records.append(MutationRecord("sync_remove"))
    return True


_OPERATORS: Dict[str, Callable[[_Draft, RaceCase, random.Random], bool]] = {
    "rename_symbols": _op_rename_symbols,
    "vary_workload": _op_vary_workload,
    "reorder_decls": _op_reorder_decls,
    "buffer_channels": _op_buffer_channels,
    "sync_inject": _op_sync_inject,
    "sync_remove": _op_sync_remove,
}


def all_operators() -> Tuple[str, ...]:
    return tuple(_OPERATORS)


class TemplateMutator:
    """Derive labeled mutants from template-generated cases, deterministically.

    ``mutate`` applies a named operator sequence; ``derive`` samples operator
    sequences itself.  Both are pure functions of ``(engine seed, salt, base
    case)`` — the same inputs produce byte-identical mutants in any process.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    # ------------------------------------------------------------------

    def mutate(self, case: RaceCase, ops: Sequence[str], salt: int = 0) -> RaceCase:
        """Apply ``ops`` in order; inapplicable operators are skipped."""
        unknown = [op for op in ops if op not in _OPERATORS]
        if unknown:
            raise CorpusError(f"unknown mutation operator(s): {', '.join(unknown)}")
        rng = random.Random(f"{self.seed}:{salt}:{case.case_id}")
        draft = _Draft(
            racy_files={f.name: f.source for f in case.package.files},
            fixed_files={f.name: f.source for f in case.fixed_package.files},
            racy_function=case.racy_function,
            test_function=case.test_function,
            expected_race=True,
        )
        for op in ops:
            _OPERATORS[op](draft, case, rng)
        return self._build(case, draft, salt)

    def derive(
        self,
        case: RaceCase,
        count: int,
        flip_fraction: float = 0.2,
        salt_base: int = 0,
    ) -> List[RaceCase]:
        """Sample ``count`` mutants; about ``flip_fraction`` of them are
        sync-injected (race-free) negatives."""
        mutants: List[RaceCase] = []
        for index in range(count):
            salt = salt_base + index
            rng = random.Random(f"{self.seed}:plan:{salt}:{case.case_id}")
            pool = list(LABEL_PRESERVING_OPS)
            ops = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            if rng.random() < flip_fraction:
                ops.append("sync_inject")
            mutants.append(self.mutate(case, ops, salt=salt))
        return mutants

    # ------------------------------------------------------------------

    def _build(self, case: RaceCase, draft: _Draft, salt: int) -> RaceCase:
        records = [record.describe() for record in draft.records]
        mutant_id = case.case_id + "-m" + digest({
            "base": case.case_id,
            "ops": records,
            "seed": self.seed,
            "salt": salt,
        })[:8]
        # A race-free mutant's package *is* the synchronized one; its "fix" is
        # the identity, keeping `fixed validates clean` trivially true.
        racy_files = draft.racy_files if draft.expected_race else draft.fixed_files
        package = GoPackage(
            name=case.package.name,
            files=[GoFile(name, src) for name, src in racy_files.items()],
        )
        fixed = GoPackage(
            name=case.fixed_package.name,
            files=[GoFile(name, src) for name, src in draft.fixed_files.items()],
        )
        return replace(
            case,
            case_id=mutant_id,
            package=package,
            fixed_package=fixed,
            racy_function=draft.racy_function,
            test_function=draft.test_function,
            expected_race=draft.expected_race,
            base_case_id=case.case_id,
            mutations=records,
            _detection_cache=None,
        )


def mutate_corpus(
    cases: Sequence[RaceCase],
    mutants_per_case: int = 3,
    seed: int = 0,
    flip_fraction: float = 0.2,
) -> List[RaceCase]:
    """Derive ``mutants_per_case`` mutants from every base case."""
    mutator = TemplateMutator(seed)
    result: List[RaceCase] = []
    for index, case in enumerate(cases):
        result.extend(
            mutator.derive(
                case, mutants_per_case, flip_fraction=flip_fraction,
                salt_base=index * 1000,
            )
        )
    return result


__all__ = [
    "LABEL_FLIPPING_OPS",
    "LABEL_PRESERVING_OPS",
    "MutationRecord",
    "TemplateMutator",
    "all_operators",
    "mutate_corpus",
]
