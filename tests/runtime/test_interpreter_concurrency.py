"""Concurrency semantics of the interpreter: goroutines, channels, select,
sync primitives, atomics, and race detection on the paper's patterns."""

import pytest

from repro.golang.parser import parse_file
from repro.runtime.harness import GoFile, GoPackage, run_package_tests
from repro.runtime.compiler import CompiledProgram
from repro.runtime.interpreter import Interpreter
from repro.runtime.scheduler import Scheduler, SchedulerPolicy


def run_source(source: str, entry: str = "main", seed: int = 3):
    interp = Interpreter(CompiledProgram([parse_file(source, "main.go")]),
                         scheduler=Scheduler(seed=seed))
    return interp.run_func(entry)


class TestGoroutinesAndChannels:
    def test_waitgroup_orders_parent_after_children(self):
        source = """
package main

import (
	"fmt"
	"sync"
)

func main() {
	var wg sync.WaitGroup
	total := 0
	var mu sync.Mutex
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total = total + i
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Println(total)
}
"""
        result = run_source(source)
        assert result.output == ["6"]
        assert not result.races and not result.failures

    def test_channel_send_receive_transfers_value(self):
        source = """
package main

import "fmt"

func main() {
	ch := make(chan int, 1)
	go func() {
		ch <- 42
	}()
	fmt.Println(<-ch)
}
"""
        result = run_source(source)
        assert result.output == ["42"] and not result.races

    def test_channel_close_and_comma_ok(self):
        source = """
package main

import "fmt"

func main() {
	ch := make(chan int, 2)
	ch <- 1
	close(ch)
	v, ok := <-ch
	_, ok2 := <-ch
	fmt.Println(v, ok, ok2)
}
"""
        result = run_source(source)
        assert result.output == ["1 true false"]

    def test_range_over_closed_channel(self):
        source = """
package main

import "fmt"

func main() {
	ch := make(chan int, 3)
	ch <- 1
	ch <- 2
	close(ch)
	total := 0
	for _, v := range ch {
		total += v
	}
	fmt.Println(total)
}
"""
        result = run_source(source)
        assert result.output == ["3"]

    def test_select_picks_ready_case(self):
        source = """
package main

import "fmt"

func main() {
	ready := make(chan int, 1)
	ready <- 7
	idle := make(chan int, 1)
	select {
	case v := <-ready:
		fmt.Println("ready", v)
	case <-idle:
		fmt.Println("idle")
	}
}
"""
        result = run_source(source)
        assert result.output == ["ready 7"]

    def test_select_default_when_nothing_ready(self):
        source = """
package main

import "fmt"

func main() {
	idle := make(chan int, 1)
	select {
	case <-idle:
		fmt.Println("never")
	default:
		fmt.Println("default")
	}
}
"""
        result = run_source(source)
        assert result.output == ["default"]

    def test_deadlock_is_reported(self):
        source = """
package main

func main() {
	ch := make(chan int, 1)
	<-ch
}
"""
        result = run_source(source)
        assert result.failures and "blocked" in result.failures[0]

    def test_channel_communication_establishes_happens_before(self):
        source = """
package main

import "fmt"

func main() {
	data := 0
	done := make(chan struct{}, 1)
	go func() {
		data = 42
		done <- struct{}{}
	}()
	<-done
	fmt.Println(data)
}
"""
        result = run_source(source)
        assert result.output == ["42"] and not result.races

    def test_mutex_enforces_mutual_exclusion(self):
        source = """
package main

import (
	"fmt"
	"sync"
)

func main() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	counter := 0
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			counter = counter + 1
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Println(counter)
}
"""
        result = run_source(source)
        assert result.output == ["5"] and not result.races

    def test_unlock_of_unlocked_mutex_fails(self):
        source = """
package main

import "sync"

func main() {
	var mu sync.Mutex
	mu.Unlock()
}
"""
        result = run_source(source)
        assert result.failures

    def test_atomic_operations_are_race_free(self):
        source = """
package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

func main() {
	var counter int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			atomic.AddInt64(&counter, 2)
		}()
	}
	wg.Wait()
	fmt.Println(atomic.LoadInt64(&counter))
}
"""
        result = run_source(source)
        assert result.output == ["8"] and not result.races

    def test_sync_map_is_internally_synchronized(self):
        source = """
package main

import (
	"fmt"
	"sync"
)

func main() {
	var m sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Store(i, i*10)
		}()
	}
	wg.Wait()
	count := 0
	m.Range(func(key, value interface{}) bool {
		count++
		return true
	})
	fmt.Println(count)
}
"""
        result = run_source(source)
        assert result.output == ["4"] and not result.races

    def test_sync_once_runs_exactly_once(self):
        source = """
package main

import (
	"fmt"
	"sync"
)

func main() {
	var once sync.Once
	var wg sync.WaitGroup
	count := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			once.Do(func() {
				count = count + 1
			})
		}()
	}
	wg.Wait()
	fmt.Println(count)
}
"""
        result = run_source(source)
        assert result.output == ["1"] and not result.races


class TestRaceDetectionOnPaperPatterns:
    def test_captured_err_race_is_detected(self, listing1_package):
        result = run_package_tests(listing1_package, runs=10)
        assert result.reports, "the Listing 1 race must be detected"
        assert "err" in result.reports[0].variable

    def test_redeclaration_fix_eliminates_race(self, listing1_fixed_package):
        result = run_package_tests(listing1_fixed_package, runs=10)
        assert not result.reports

    def test_unsynchronized_counter_races(self):
        source = """
package main

import "sync"

func main() {
	var wg sync.WaitGroup
	counter := 0
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counter = counter + 1
		}()
	}
	wg.Wait()
	_ = counter
}
"""
        races = 0
        for seed in range(6):
            result = run_source(source, seed=seed)
            races += len(result.races)
        assert races > 0

    @pytest.mark.parametrize("writer, reader, races", [
        ("v.n = 1", "_ = v.get()", True),
        ("v.n = 1", "f := v.get\n\t_ = f()", True),
        ("v.n = 1", "p := &v\n\t_ = p.get()", True),
        ("w.t.n = 1", "_ = w.get()", True),
        ("mu.Lock()\n\t\tv.n = 1\n\t\tmu.Unlock()",
         "mu.Lock()\n\t_ = v.get()\n\tmu.Unlock()", False),
    ], ids=["call", "method-value", "through-pointer", "nested-field", "locked"])
    def test_value_receiver_copy_reads_the_callers_fields(self, writer, reader, races):
        # Go copies a value receiver at the call (or when the method value
        # is evaluated), and the copy reads every field: `go test -race`
        # reports a concurrent write to any of them.
        source = """
package main

import "sync"

type T struct {
	n int
}

type W struct {
	t T
}

func (t T) get() int { return t.n }

func (w W) get() int { return 0 }

func main() {
	var mu sync.Mutex
	var wg sync.WaitGroup
	v := T{}
	w := W{}
	_ = w
	wg.Add(1)
	go func() {
		defer wg.Done()
		WRITER
	}()
	READER
	wg.Wait()
}
""".replace("WRITER", writer).replace("READER", reader)
        found = sum(len(run_source(source, seed=seed).races) for seed in range(4))
        assert (found > 0) is races

    def test_scheduler_seed_changes_interleavings(self):
        source = """
package main

import "fmt"

func main() {
	ch := make(chan int, 2)
	go func() {
		ch <- 1
	}()
	go func() {
		ch <- 2
	}()
	fmt.Println(<-ch + <-ch)
}
"""
        outputs = set()
        for seed in range(8):
            result = run_source(source, seed=seed)
            outputs.add(tuple(result.output))
        assert outputs == {("3",)}


class TestSchedulerPolicies:
    @pytest.mark.parametrize("policy", list(SchedulerPolicy))
    def test_every_policy_completes_a_fanout_program(self, policy):
        source = """
package main

import (
	"fmt"
	"sync"
)

func main() {
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			hits++
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Println(hits)
}
"""
        interp = Interpreter(CompiledProgram([parse_file(source, "main.go")]),
                             scheduler=Scheduler(seed=1, policy=policy))
        result = interp.run_func("main")
        assert result.output == ["3"] and not result.failures

    def test_step_budget_guards_against_runaway_programs(self):
        source = """
package main

func main() {
	for {
		x := 1
		_ = x
	}
}
"""
        interp = Interpreter(CompiledProgram([parse_file(source, "main.go")]),
                             scheduler=Scheduler(seed=1, max_steps=500))
        result = interp.run_func("main")
        assert result.failures and "budget" in result.failures[0]
