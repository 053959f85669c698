"""The Go memory model as a table: small programs, each with the verdict
that the model's text gives (https://go.dev/ref/mem), not the verdict this
detector gives.

Every row is one ``TestRow``, most of them over a package-level ``x``.  Its
verdict is "race" when some run over a few seeds reports a data race, and
"no race" when none does.  The detector stands in for ``go test -race``, so a row it
gets wrong is a fix the validator can wrongly accept or reject.  Rows that
fail today are strict expected failures naming ROADMAP item 13: its
per-message channel clocks and rendezvous flip them.
"""

from __future__ import annotations

import pytest

from repro.runtime.harness import GoFile, GoPackage, run_package_tests

RACE, NO_RACE = "race", "no race"
SEEDS = (0, 1, 2, 3)
RUNS = 20

ITEM_13 = "ROADMAP item 13: the detector's channel edges do not follow the Go memory model"


def _row(name, body, verdict, xfail=None):
    marks = [pytest.mark.xfail(strict=True, reason=f"{ITEM_13} ({xfail})")] if xfail else []
    return pytest.param(body, verdict, id=name, marks=marks)


ROWS = [
    # -- Channels: "A send on a channel is synchronized before the
    # completion of the corresponding receive from that channel."
    _row("chan-unbuffered-send-before-receive", """
	ch := make(chan int)
	go func() {
		x = 1
		ch <- 1
	}()
	<-ch
	_ = x
""", NO_RACE),
    _row("chan-buffered-send-before-receive", """
	ch := make(chan int, 1)
	go func() {
		x = 1
		ch <- 1
	}()
	<-ch
	_ = x
""", NO_RACE),
    _row("chan-write-after-send", """
	ch := make(chan int, 1)
	done := make(chan bool)
	go func() {
		ch <- 1
		x = 1
		done <- true
	}()
	<-ch
	_ = x
	<-done
""", RACE),
    # A receive acquires only the message it takes: main received A's value,
    # so nothing orders B's write of x before main's read.
    _row("chan-buffered-receive-takes-one-message", """
	ch := make(chan int, 2)
	go func() {
		ch <- 1
	}()
	go func() {
		x = 1
		ch <- 2
	}()
	for len(ch) < 2 {
	}
	if <-ch == 1 {
		_ = x
	}
""", RACE, xfail="a receive acquires every send on the channel"),
    # -- Channels, receive to send: "A receive from an unbuffered channel is
    # synchronized before the completion of the corresponding send on that
    # channel."
    _row("chan-unbuffered-receive-before-send-completes", """
	ch := make(chan int)
	done := make(chan bool)
	go func() {
		ch <- 1
		_ = x
		done <- true
	}()
	x = 5
	<-ch
	<-done
""", NO_RACE, xfail="an unbuffered channel is modelled as capacity 1"),
    _row("chan-buffered-receive-does-not-order-send", """
	ch := make(chan int, 1)
	done := make(chan bool)
	go func() {
		ch <- 1
		_ = x
		done <- true
	}()
	x = 5
	<-ch
	<-done
""", RACE),
    # "The kth receive on a channel with capacity C is synchronized before
    # the completion of the k+Cth send from that channel completes."
    _row("chan-semaphore-capacity-1", """
	sem := make(chan int, 1)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- 1
			x++
			<-sem
		}()
	}
	wg.Wait()
""", NO_RACE, xfail="no edge from the kth receive to the (k+C)th send"),
    # "The closing of a channel is synchronized before a receive that
    # returns because the channel is closed."
    _row("chan-close-before-receive", """
	ch := make(chan int)
	go func() {
		x = 1
		close(ch)
	}()
	<-ch
	_ = x
""", NO_RACE),
    _row("chan-write-after-close", """
	ch := make(chan int)
	done := make(chan bool)
	go func() {
		close(ch)
		x = 1
		done <- true
	}()
	<-ch
	_ = x
	<-done
""", RACE),
    # -- Locks: "the nth call of l.Unlock() is synchronized before the
    # mth call of l.Lock() returns", for n < m.
    _row("mutex-both-sides-locked", """
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			x++
			mu.Unlock()
		}()
	}
	wg.Wait()
""", NO_RACE),
    _row("mutex-one-side-unlocked", """
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mu.Lock()
		x++
		mu.Unlock()
	}()
	go func() {
		defer wg.Done()
		x++
	}()
	wg.Wait()
""", RACE),
    # "For any call to l.RLock on a sync.RWMutex variable l, there is an n
    # such that the nth call to l.Unlock is synchronized before the return
    # from l.RLock, and the matching call to l.RUnlock is synchronized
    # before the return from call n+1 to l.Lock."
    _row("rwmutex-writer-then-reader", """
	var rw sync.RWMutex
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		rw.Lock()
		x = 1
		rw.Unlock()
	}()
	go func() {
		defer wg.Done()
		rw.RLock()
		_ = x
		rw.RUnlock()
	}()
	wg.Wait()
""", NO_RACE),
    _row("rwmutex-writes-under-read-locks", """
	var rw sync.RWMutex
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rw.RLock()
			x++
			rw.RUnlock()
		}()
	}
	wg.Wait()
""", RACE),
    # -- WaitGroup: Done is synchronized before the return of the Wait it
    # unblocks (sync package docs, "In the terminology of the Go memory
    # model").
    _row("waitgroup-wait-after-done", """
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		x = 1
		wg.Done()
	}()
	wg.Wait()
	_ = x
""", NO_RACE),
    _row("waitgroup-read-before-wait", """
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		x = 1
		wg.Done()
	}()
	_ = x
	wg.Wait()
""", RACE),
    # -- Once: "The completion of a single call of f() from once.Do(f) is
    # synchronized before the return of any call of once.Do(f)."
    _row("once-do-before-every-return", """
	var once sync.Once
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			once.Do(func() {
				x = 1
			})
			_ = x
		}()
	}
	wg.Wait()
""", NO_RACE),
    _row("once-reader-without-do", """
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		once.Do(func() {
			x = 1
		})
	}()
	go func() {
		defer wg.Done()
		_ = x
	}()
	wg.Wait()
""", RACE),
    # -- Atomics: "If the effect of an atomic operation A is observed by
    # atomic operation B, then A is synchronized before B."
    _row("atomic-flag-publishes", """
	var flag int32
	go func() {
		x = 1
		atomic.StoreInt32(&flag, 1)
	}()
	for atomic.LoadInt32(&flag) == 0 {
	}
	_ = x
""", NO_RACE),
    _row("atomic-adds-only", """
	var n int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			atomic.AddInt64(&n, 1)
		}()
	}
	wg.Wait()
	_ = atomic.LoadInt64(&n)
""", NO_RACE),
    _row("atomic-store-plain-write", """
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		atomic.StoreInt32(&x, 1)
	}()
	go func() {
		defer wg.Done()
		x = 2
	}()
	wg.Wait()
""", RACE),
]


def _package(body: str) -> GoPackage:
    source = f"""package mm

import (
	"sync"
	"sync/atomic"
	"testing"
)

var x int32

func TestRow(t *testing.T) {{{body}}}
"""
    return GoPackage(name="mm", files=[GoFile("mm_test.go", source)])


def _verdict(package: GoPackage) -> str:
    for seed in SEEDS:
        result = run_package_tests(package, runs=RUNS, seed=seed)
        assert result.built and result.tests_discovered == 1, result.summary()
        assert not result.test_failures, result.test_failures
        if result.reports:
            return RACE
    return NO_RACE


@pytest.mark.parametrize("body, verdict", ROWS)
def test_memory_model_verdict(body, verdict):
    assert _verdict(_package(body)) == verdict
