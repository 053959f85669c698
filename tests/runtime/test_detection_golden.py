"""Golden detection digests: the harness must keep every pinned observable.

Each digest covers one (case, seed) sweep under all five scheduler policies.
Two kinds are pinned:

* detection digests (slice-aware lowering): the race verdict, the racy
  variables, the bug hashes, test failures, program output, build errors,
  scheduler steps, and run/test counts (see
  :func:`repro.testing.detection_outcome`), over the full template corpus,
  a 32-mutant corpus and the construct packages below;
* outcome digests (fully instrumented lowering, ``slicing=False``): rendered
  race reports with their cell addresses, failures, output, build errors and
  run/test counts (see :func:`repro.testing.run_outcome`), over the same two
  corpora, three harness edge cases (a build error, an entry function, an
  overlong comma-ok assignment) and one small package per Go construct the
  corpora never use (:data:`CONSTRUCTS`).  Cell addresses restart at the same
  value for every (case, seed), so each digest stands alone.

Any change to the interpreter, scheduler or detector that moves a single
observable on a single interleaving fails here, naming the case.

Regenerate the fixture only for a change that is *meant* to move detection:

    PYTHONPATH=src python tests/runtime/test_detection_golden.py --regenerate
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.corpus.generator import CorpusConfig, CorpusGenerator
from repro.runtime.harness import GoFile, GoPackage, GoTestHarness
from repro.runtime.race_report import race_hash, report_from_race
from repro.testing import ALL_POLICIES, detection_outcome, reset_addresses, run_outcome

FIXTURE = Path(__file__).with_name("detection_golden.json")

#: corpus name -> (seeds, runs)
SWEEPS = {
    "templates": ((0, 11), 5),
    "mutants": ((7, 19), 3),
}

#: (seeds, runs) of the construct packages' detection digests, recorded
#: under ``"constructs"``: the slice-aware lowering of every construct.
CONSTRUCT_SWEEP = ((0, 11), 5)

#: outcome set name -> (seeds, runs), recorded under ``"outcomes"``
OUTCOME_SWEEPS = {
    "templates": ((0, 11), 5),
    "mutants": ((7, 19), 3),
    "harness": ((0, 11), 3),
    "constructs": ((0, 11), 5),
}


def _package(name, source, file_name=None):
    return GoPackage(name=name, files=[GoFile(file_name or f"{name}_test.go", source)])


#: Harness edge cases: ``name -> (package, entry functions)``.
HARNESS_CASES = {
    "build-error": (_package("broken", "package broken\nfunc Broken( {\n", "lib.go"), ()),
    "entry-function": (_package("entry", """package entry

var total = 0

func Bump() {
\tfor i := 0; i < 3; i++ {
\t\ttotal += i
\t}
\tprintln(total)
}
""", "main.go"), ("Bump",)),
    # Comma-ok forms yield two values however many targets there are; the
    # third target is declared as nil.
    "multi-assign-padding": (_package("pad", """package pad

import "testing"

func TestPad(t *testing.T) {
\tm := map[string]int{"a": 1}
\tv, ok, extra := m["a"]
\tprintln(v, ok, extra)
}
"""), ()),
}

_CONSTRUCT_HEADER = """package {name}

import (
\t"sync"
\t"testing"
)

var _ sync.Mutex
"""

#: One small package per Go construct that neither corpus contains, each
#: racing a goroutine against the construct where it can.
CONSTRUCT_SOURCES = {
    # v, ok := m[k]: the comma-ok map read, racing a writer goroutine.
    "map-comma-ok": """
func TestMapCommaOk(t *testing.T) {
\tm := map[string]int{"a": 1}
\tdone := make(chan bool)
\tgo func() {
\t\tm["b"] = 2
\t\tdone <- true
\t}()
\tv, ok := m["a"]
\tw, found := m["zzz"]
\t<-done
\tprintln(v, ok, w, found)
}
""",
    # v, ok := p.m[k]: the same read through a struct field.
    "field-map-comma-ok": """
type registry struct {
\tm map[string]int
}

func TestFieldMapCommaOk(t *testing.T) {
\tr := &registry{m: map[string]int{}}
\tvar wg sync.WaitGroup
\twg.Add(1)
\tgo func() {
\t\tdefer wg.Done()
\t\tr.m["x"] = 1
\t}()
\tv, ok := r.m["x"]
\twg.Wait()
\tw, present := r.m["x"]
\tprintln(v+w, ok || present, len(r.m))
}
""",
    # v, ok := <-ch: the comma-ok receive, open and then closed.
    "recv-comma-ok": """
func TestRecvCommaOk(t *testing.T) {
\tch := make(chan int, 1)
\tcounter := 0
\tgo func() {
\t\tcounter++
\t\tch <- 7
\t\tclose(ch)
\t}()
\tv, ok := <-ch
\tw, more := <-ch
\tcounter++
\tprintln(v, ok, w, more, counter)
}
""",
    # v, ok := x.(int): the comma-ok type assertion.
    "assert-comma-ok": """
func TestAssertCommaOk(t *testing.T) {
\tvar x interface{} = 5
\tvar y interface{}
\tv, ok := x.(int)
\tw, ok2 := y.(string)
\tshared := 0
\tgo func() {
\t\tshared = v
\t}()
\tprintln(v, ok, w, ok2, shared)
}
""",
    # var a, b = 1, 2: a multi-value var declaration.
    "var-multi-values": """
func TestVarMultiValues(t *testing.T) {
\tvar a, b = 1, 2
\tvar c, d int
\tgo func() {
\t\ta = b + c
\t}()
\tprintln(a, b, c, d)
}
""",
    # var a, b = two(): a multi-value var declaration from one call, local
    # and at package level.
    "var-multi-call": """
func two() (int, string) {
\treturn 3, "x"
}

var g, h = two()

func TestVarMultiCall(t *testing.T) {
\tvar a, b = two()
\tgo func() {
\t\tg = a
\t}()
\tprintln(a, b, g, h)
}
""",
    # select { case ch <- v: }: a select send case, ready and then full.
    "select-send": """
func TestSelectSend(t *testing.T) {
\tch := make(chan int, 1)
\tshared := 0
\tgo func() {
\t\tshared = 1
\t}()
\tselect {
\tcase ch <- 1:
\t\tprintln("sent")
\tdefault:
\t\tprintln("full")
\t}
\tselect {
\tcase ch <- 2:
\t\tprintln("sent again")
\tdefault:
\t\tprintln("full")
\t}
\tprintln(<-ch, shared)
}
""",
    # switch with an init statement, a tag, a multi-value case and break.
    "switch-tag": """
func classify(n int) string {
\tswitch r := n % 10; r {
\tcase 0:
\t\treturn "zero"
\tcase 1, 2:
\t\treturn "small"
\tcase 3:
\t\tbreak
\tdefault:
\t\treturn "big"
\t}
\treturn "three"
}

func TestSwitchTag(t *testing.T) {
\ttotal := 0
\tvar wg sync.WaitGroup
\tfor i := 0; i < 4; i++ {
\t\twg.Add(1)
\t\tgo func(n int) {
\t\t\tdefer wg.Done()
\t\t\tswitch classify(n) {
\t\t\tcase "small":
\t\t\t\ttotal++
\t\t\t}
\t\t}(i)
\t}
\twg.Wait()
\tprintln(classify(0), classify(2), classify(3), classify(9), total)
}
""",
    # switch { case cond: }: a tagless switch.
    "switch-tagless": """
func sign(n int) int {
\tswitch {
\tcase n < 0:
\t\treturn -1
\tcase n == 0:
\t\treturn 0
\t}
\treturn 1
}

func TestSwitchTagless(t *testing.T) {
\tlast := 0
\tdone := make(chan bool)
\tgo func() {
\t\tlast = sign(-4)
\t\tdone <- true
\t}()
\tlast = sign(0) + sign(7)
\t<-done
\tprintln(last)
}
""",
    # s[1:], s[:2], s[1:3] and a string slice.
    "slice-expr": """
func TestSliceExpr(t *testing.T) {
\ts := []int{1, 2, 3, 4}
\ttail := s[1:]
\thead := s[:2]
\tmid := s[1:3]
\tword := "hello"[1:3]
\tgo func() {
\t\ttail[0] = 20
\t}()
\tprintln(len(tail), len(head), len(mid), word, s[1], mid[0])
}
""",
    # &x, &T{...} and &p.f, each written through the pointer.
    "address-of": """
type point struct {
\tx int
}

func TestAddressOf(t *testing.T) {
\tx := 0
\tp := &x
\tq := &point{x: 1}
\tf := &q.x
\tdone := make(chan bool)
\tgo func() {
\t\t*p = 5
\t\t*f = 9
\t\tdone <- true
\t}()
\tx = 3
\t<-done
\tprintln(x, *p, q.x)
}
""",
    # select receives: v, ok := <-ch against default, open then closed; an
    # assigned receive racing a ready bare receive; a blocking select.
    "select-recv": """
func source(ch chan int) chan int {
\treturn ch
}

func TestSelectRecv(t *testing.T) {
\tch := make(chan int, 2)
\tshared := 0
\tgo func() {
\t\tshared = 1
\t\tch <- 4
\t\tclose(ch)
\t}()
\tgot := 0
\tfor i := 0; i < 4; i++ {
\t\tselect {
\t\tcase v, ok := <-ch:
\t\t\tprintln("recv", v, ok)
\t\t\tgot += v
\t\tdefault:
\t\t\tprintln("empty")
\t\t}
\t}
\tvar last int
\tdone := make(chan bool, 1)
\tdone <- true
\tselect {
\tcase last = <-source(ch):
\t\tprintln("assigned", last)
\tcase <-done:
\t\tprintln("done")
\t}
\tres := make(chan int)
\tgo func() {
\t\tres <- 42
\t}()
\tfor {
\t\tselect {
\t\tcase r := <-res:
\t\t\tprintln("res", r)
\t\t\tshared = got + r
\t\t\tprintln(shared, last)
\t\t\treturn
\t\t}
\t}
}
""",
    # Local type and const declarations, a grouped var, zero values of a
    # local struct, a named scalar, an anonymous struct and sync types.
    "local-decls": """
func TestLocalDecls(t *testing.T) {
\ttype pair struct {
\t\ta int
\t\tb string
\t}
\ttype counter int
\tconst limit = 3
\tvar (
\t\ttotal int
\t\tnames []string
\t\tmu    sync.Mutex
\t)
\tvar q pair
\tvar c counter = 5
\tvar anon struct{ n int }
\tp := pair{a: 1, b: "x"}
\tvar wg sync.WaitGroup
\tfor i := 0; i < limit; i++ {
\t\twg.Add(1)
\t\tgo func(i int) {
\t\t\tdefer wg.Done()
\t\t\tmu.Lock()
\t\t\ttotal += i
\t\t\tnames = append(names, "n")
\t\t\tmu.Unlock()
\t\t\tp.a = i
\t\t\tanon.n = i
\t\t}(i)
\t}
\twg.Wait()
\tq.b = p.b
\tprintln(total, len(names), limit, q.a, q.b, c, anon.n)
}
""",
    # cap, recover, append(s, t...), copy, new, delete, close, print and a
    # builtin name the program also binds.
    "builtins": """
func dup(dst, src []int) int {
\treturn copy(dst, src)
}

func TestBuiltins(t *testing.T) {
\ts := make([]int, 2, 8)
\textra := []int{7, 8}
\ts = append(s, extra...)
\ts = append(s, 9)
\tvar none []int
\tnone = append(none, 1)
\tu := make([]int, 3)
\tn := dup(u, s)
\tch := make(chan int, 3)
\tch <- 1
\tm := map[string]int{"a": 1, "b": 2}
\tdelete(m, "a")
\tp := new(int)
\t*p = len(s)
\tdefer func() {
\t\tr := recover()
\t\tprintln("recovered", r)
\t}()
\tdone := make(chan bool)
\tgo func() {
\t\ts[0] = cap(ch)
\t\tdone <- true
\t}()
\tx := s[0]
\t<-done
\tclose(ch)
\tcopy := func(a, b int) int {
\t\treturn a + b
\t}
\tprintln(len(s), cap(s), cap(ch), len(ch), len(m), len(none), n, u[2], *p, x, copy(1, 2))
\tprint("plain", len("gopher"))
}
""",
    # &s[i], &T{} with a pointer method, and slices of a string variable.
    "address-index": """
type box struct {
\tn int
}

func (b *box) bump() {
\tb.n++
}

func TestAddressIndex(t *testing.T) {
\ts := []int{1, 2, 3}
\te := &s[1]
\tb := &box{}
\tword := "gopher"
\tsub := word[2:]
\tpre := word[:3]
\tdone := make(chan bool)
\tgo func() {
\t\t*e = 20
\t\tb.bump()
\t\tdone <- true
\t}()
\ts[1] = 5
\tb.n = 3
\t<-done
\tprintln(s[1], *e, b.n, sub, pre, word[1:4])
}
""",
    # *p = v, m[k] = v, s[i] = v and x.f = v, racing, then the augmented,
    # increment, nested, swapped and parenthesized forms of each.
    "assign-targets": """
type node struct {
\tval  int
\tnext *node
\ttags map[string]int
}

func TestAssignTargets(t *testing.T) {
\tx := 1
\tp := &x
\tm := map[string]int{}
\ts := []int{0, 0, 0}
\tn := node{tags: map[string]int{}}
\tn.next = &node{}
\tvar wg sync.WaitGroup
\twg.Add(1)
\tgo func() {
\t\tdefer wg.Done()
\t\t*p = 2
\t\tm["a"] = 1
\t\ts[0] = 3
\t\tn.val = 4
\t}()
\t*p = 5
\tm["b"] = 6
\ts[1] = 7
\tn.val = 8
\twg.Wait()
\tm["a"] += 10
\ts[2]++
\tn.val += 1
\t(*p)++
\tn.next.val = 9
\tn.tags["k"] = 11
\ts[0], s[1] = s[1], s[0]
\t(x) = x + 1
\t_ = n
\tprintln(x, *p, m["a"], m["b"], len(m), s[0], s[1], s[2], n.val, n.next.val, n.tags["k"])
}
""",
    # switch: default before later cases, case expressions evaluated in
    # order until one matches, continue and a labeled break out of a loop,
    # fallthrough, and a switch whose init declares the tag.
    "switch-flow": """
func pick(n int, seen *int) int {
\t*seen = *seen + 1
\treturn n
}

func TestSwitchFlow(t *testing.T) {
\tevals := 0
\tout := 0
\tshared := 0
\tgo func() {
\t\tshared = 2
\t}()
Loop:
\tfor i := 0; i < 6; i++ {
\t\tswitch i {
\t\tcase pick(0, &evals), pick(1, &evals):
\t\t\tcontinue
\t\tdefault:
\t\t\tout += 100
\t\tcase 2:
\t\t\tout += 2
\t\t\tfallthrough
\t\tcase 3:
\t\t\tout += 3
\t\tcase 5:
\t\t\tbreak Loop
\t\t}
\t\tout++
\t}
\tswitch s := shared; s {
\tcase 0:
\t\tprintln("unset")
\tcase 2:
\t\tprintln("set")
\t}
\tprintln(out, evals, shared)
}
""",
    # Struct values: var declarations copy them, and a promoted field's
    # cell, which the literal did not create, is named after the variable.
    "struct-values": """
type base struct {
\tid int
}

type wrapped struct {
\tbase
\tname string
}

func TestStructValues(t *testing.T) {
\tw := wrapped{name: "w"}
\tvar copied = w
\tvar first, second = w, copied
\tcopied.name = "c"
\tfirst.name = "f"
\tdone := make(chan bool)
\tgo func() {
\t\tw.id = 4
\t\tdone <- true
\t}()
\tw.id = 3
\t<-done
\tprintln(w.name, copied.name, first.name, second.name, w.id)
}
""",
    # Comma-ok reads of a slice, a string, a nil map and a parenthesized
    # map index; plain assignment from comma-ok and tuple forms; package
    # level comma-ok and struct initializers.
    "comma-ok-forms": """
func three() (int, string, bool) {
\treturn 1, "two", true
}

type spot struct {
\tx int
}

var table = map[string]int{"k": 1}

var hit, present = table["k"]

var home, away = spot{x: 1}, spot{}

func TestCommaOkForms(t *testing.T) {
\ts := []int{5, 6}
\tvar nm map[string]int
\tm := map[string]int{"a": 1}
\tshared := 0
\tgo func() {
\t\tshared = 1
\t}()
\tv, ok := s[1]
\tc, cok := "go"[0]
\tz, zok := nm["x"]
\tw, wok := (m["a"])
\ta, b, d := three()
\tvar e, f int
\te, f = f, e
\te, ok = m["missing"]
\tplain := nm["q"]
\tprintln(v, ok, c, cok, z, zok, w, wok, a, b, d, e, f, plain, shared)
\tprintln(hit, present, home.x, away.x)
}
""",
}

CONSTRUCTS = {
    name: _package(name.replace("-", ""),
                   _CONSTRUCT_HEADER.format(name=name.replace("-", "")) + body)
    for name, body in CONSTRUCT_SOURCES.items()
}


@functools.lru_cache(maxsize=None)
def _cases(corpus):
    if corpus == "templates":
        dataset = CorpusGenerator(CorpusConfig()).generate()
        return dataset.evaluation + dataset.db_examples
    generator = CorpusGenerator(CorpusConfig(seed=606, noise_level=1))
    return generator.generate_mutant_corpus(32, mutants_per_base=4)


def digest(outcome):
    """A stable hex digest of one :func:`detection_outcome` or
    :func:`run_outcome` result."""
    canonical = {
        key: sorted(value) if isinstance(value, frozenset) else value
        for key, value in outcome.items()
    }
    payload = json.dumps(canonical, sort_keys=True, default=list)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _outcome_cases(name):
    """``(case_id, package, entry functions)`` for every case of a set."""
    if name == "harness":
        return [(case_id, package, entries)
                for case_id, (package, entries) in HARNESS_CASES.items()]
    if name == "constructs":
        return [(case_id, package, ()) for case_id, package in CONSTRUCTS.items()]
    return [(case.case_id, case.package, ()) for case in _cases(name)]


def outcome_sweep(name):
    """``{"<case_id>@<seed>": digest}`` of :func:`run_outcome` at
    ``slicing=False``, each (case, seed) from freshly reset addresses."""
    seeds, runs = OUTCOME_SWEEPS[name]
    digests = {}
    for case_id, package, entries in _outcome_cases(name):
        for seed in seeds:
            key = f"{case_id}@{seed}"
            assert key not in digests, f"duplicate case id {case_id}"
            reset_addresses()
            digests[key] = digest(run_outcome(
                package, seed, runs=runs, slicing=False, entry_functions=entries))
    return digests


def _sweep_cases(corpus):
    """``(seeds, runs, [(case_id, package)])`` of a corpus of :data:`SWEEPS`
    or ``"constructs"``."""
    if corpus == "constructs":
        return (*CONSTRUCT_SWEEP, list(CONSTRUCTS.items()))
    seeds, runs = SWEEPS[corpus]
    return seeds, runs, [(case.case_id, case.package) for case in _cases(corpus)]


def sweep(corpus):
    """``{"<case_id>@<seed>": digest}`` for every case and seed of ``corpus``
    (a corpus of :data:`SWEEPS` or ``"constructs"``)."""
    seeds, runs, cases = _sweep_cases(corpus)
    reset_addresses()
    digests = {}
    for case_id, package in cases:
        for seed in seeds:
            key = f"{case_id}@{seed}"
            assert key not in digests, f"duplicate case id {case_id}"
            digests[key] = digest(detection_outcome(
                package, seed, runs=runs, slicing=True))
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("corpus", sorted(SWEEPS))
def test_detection_matches_golden(corpus, golden):
    expected = golden[corpus]
    actual = sweep(corpus)
    assert len(actual) >= 60
    assert sorted(actual) == sorted(expected), "case set changed"
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"detection moved on {len(moved)} sweeps: {moved[:10]}"


def test_construct_detection_matches_golden(golden):
    expected = golden["constructs"]
    actual = sweep("constructs")
    assert sorted(actual) == sorted(expected), "case set changed"
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"detection moved on {len(moved)} sweeps: {moved[:10]}"


@pytest.mark.parametrize("corpus", sorted(SWEEPS) + ["constructs"])
def test_record_hash_is_the_report_bug_hash(corpus):
    """The harness keeps one report per bug hash by hashing raw race records;
    on every race of every run of the detection sweeps, that hash is the
    rendered report's."""
    seeds, runs, cases = _sweep_cases(corpus)
    races = 0
    for _case_id, package in cases:
        for seed in seeds:
            harness = GoTestHarness(package, runs=runs, seed=seed, policies=ALL_POLICIES)
            build = harness.build()
            if build.errors:
                continue
            for run_seed, policy in harness.plan_runs():
                for race in harness._run_once(build, build.tests, [], run_seed, policy).races:
                    races += 1
                    assert race_hash(race) == report_from_race(race).bug_hash()
    assert races


@pytest.mark.parametrize("name", sorted(OUTCOME_SWEEPS))
def test_outcomes_match_golden(name, golden):
    expected = golden["outcomes"][name]
    actual = outcome_sweep(name)
    assert sorted(actual) == sorted(expected), "case set changed"
    moved = sorted(key for key in expected if actual[key] != expected[key])
    assert not moved, f"outcome moved on {len(moved)} sweeps: {moved[:10]}"


@pytest.mark.parametrize("name", sorted(CONSTRUCTS))
def test_construct_builds_and_runs_clean(name):
    outcome = run_outcome(CONSTRUCTS[name], 0, runs=1, slicing=False)
    assert not outcome["build_errors"] and not outcome["failures"]
    assert outcome["tests"] == 1 and outcome["output"]


def test_harness_cases_cover_their_edge():
    outcomes = {
        case_id: run_outcome(package, 0, runs=2, slicing=False, entry_functions=entries)
        for case_id, (package, entries) in HARNESS_CASES.items()
    }
    assert outcomes["build-error"]["build_errors"]
    assert outcomes["entry-function"]["output"] == ["3", "3"]
    assert outcomes["multi-assign-padding"]["output"] == ["1 true <nil>"] * 2
    assert not outcomes["multi-assign-padding"]["failures"]


def test_digest_ignores_set_order():
    base = {"raced": True, "racy_vars": frozenset({"err", "count"}), "runs": 5}
    reordered = dict(base, racy_vars=frozenset({"count", "err"}))
    assert digest(base) == digest(reordered)
    assert len(digest(base)) == 16


@pytest.mark.parametrize("key,value", [
    ("raced", False),
    ("racy_vars", frozenset({"err"})),
    ("runs", 4),
])
def test_digest_moves_with_any_observable(key, value):
    base = {"raced": True, "racy_vars": frozenset({"err", "count"}), "runs": 5}
    assert digest(dict(base, **{key: value})) != digest(base)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_detection_golden.py --regenerate")
    fixture = {corpus: sweep(corpus) for corpus in sorted(SWEEPS) + ["constructs"]}
    fixture["outcomes"] = {name: outcome_sweep(name) for name in sorted(OUTCOME_SWEEPS)}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    count = sum(len(fixture[corpus]) for corpus in sorted(SWEEPS) + ["constructs"])
    count += sum(map(len, fixture["outcomes"].values()))
    print(f"wrote {count} digests to {FIXTURE}")
