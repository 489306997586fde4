package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"fdt/internal/trace"
)

func TestSingleProcAdvances(t *testing.T) {
	e := NewEngine()
	var at []uint64
	e.Spawn("a", func(p *Proc) {
		at = append(at, p.Now())
		p.Advance(10)
		at = append(at, p.Now())
		p.Advance(5)
		at = append(at, p.Now())
	})
	e.Run()
	want := []uint64{0, 10, 15}
	if len(at) != len(want) {
		t.Fatalf("got %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("step %d: at cycle %d, want %d", i, at[i], want[i])
		}
	}
	if e.Now() != 15 {
		t.Errorf("final clock %d, want 15", e.Now())
	}
}

func TestProcsInterleaveByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(s string, p *Proc) { order = append(order, fmt.Sprintf("%s@%d", s, p.Now())) }
	e.Spawn("a", func(p *Proc) {
		log("a", p)
		p.Advance(10)
		log("a", p)
	})
	e.Spawn("b", func(p *Proc) {
		log("b", p)
		p.Advance(3)
		log("b", p)
		p.Advance(20)
		log("b", p)
	})
	e.Run()
	want := []string{"a@0", "b@0", "b@3", "a@10", "b@23"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestFIFOTieBreakAtSameCycle(t *testing.T) {
	// Processes scheduled for the same cycle run in scheduling order.
	e := NewEngine()
	var order []string
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			order = append(order, name)
			p.Advance(7)
			order = append(order, name)
		})
	}
	e.Run()
	want := []string{"p0", "p1", "p2", "p0", "p1", "p2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestParkAndWake(t *testing.T) {
	e := NewEngine()
	var consumer *Proc
	var got uint64
	consumer = e.Spawn("consumer", func(p *Proc) {
		p.Park()
		got = p.Now()
	})
	e.Spawn("producer", func(p *Proc) {
		p.Advance(42)
		p.Wake(consumer)
	})
	e.Run()
	if got != 42 {
		t.Errorf("consumer woke at %d, want 42", got)
	}
}

func TestWaitUntilPastClampsToNow(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Advance(10)
		p.WaitUntil(3) // in the past: must not move time backwards
		if p.Now() != 10 {
			t.Errorf("clock went backwards to %d", p.Now())
		}
	})
	e.Run()
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic, got none")
		}
	}()
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Park() })
	e.Run()
}

func TestWakeUnparkedPanics(t *testing.T) {
	e := NewEngine()
	a := e.Spawn("a", func(p *Proc) { p.Advance(100) })
	e.Spawn("b", func(p *Proc) {
		defer func() {
			if r := recover(); r == nil {
				t.Error("expected panic waking unparked process")
			}
		}()
		p.Wake(a) // a is queued, not parked
	})
	e.Run()
}

func TestSpawnFromWithinProc(t *testing.T) {
	e := NewEngine()
	var childAt uint64
	e.Spawn("parent", func(p *Proc) {
		p.Advance(5)
		p.eng.Spawn("child", func(c *Proc) {
			childAt = c.Now()
			c.Advance(1)
		})
		p.Advance(10)
	})
	e.Run()
	if childAt != 5 {
		t.Errorf("child first ran at %d, want 5", childAt)
	}
	if e.Now() != 15 {
		t.Errorf("final clock %d, want 15", e.Now())
	}
}

func TestYieldGivesWayToSameCycleEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	var b *Proc
	e.Spawn("a", func(p *Proc) {
		p.Yield() // b's initial event is pending at cycle 0
		order = append(order, "a")
	})
	b = e.Spawn("b", func(p *Proc) {
		order = append(order, "b")
	})
	_ = b
	e.Run()
	if fmt.Sprint(order) != fmt.Sprint([]string{"b", "a"}) {
		t.Errorf("order = %v, want [b a]", order)
	}
}

// A process whose wait is the engine's next dispatch keeps running
// without a coroutine switch. Each case pins the dispatch order and
// Events(), which must match the switching path exactly, and how many
// of those dispatches took the direct path.
func TestDirectContinuation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spawn  func(e *Engine)
		order  string
		direct uint64
	}{
		{"lone process advancing", func(e *Engine) {
			e.Spawn("a", func(p *Proc) {
				p.Advance(5)
				p.Advance(3)
				p.Advance(0)
			})
		}, "[a@0 a@5 a@8 a@8]", 3},
		{"another process queued for the same future cycle runs first", func(e *Engine) {
			e.Spawn("b", func(p *Proc) { p.Advance(10) })
			e.Spawn("a", func(p *Proc) {
				p.Advance(10) // ties with b at the heap top
				p.Advance(1)
			})
		}, "[b@0 a@0 b@10 a@10 a@11]", 1},
		{"yield with same-cycle events pending", func(e *Engine) {
			e.Spawn("a", func(p *Proc) {
				p.Yield() // b is still queued at cycle 0
				p.Yield() // nothing is: a continues
			})
			e.Spawn("b", func(*Proc) {})
		}, "[a@0 b@0 a@0 a@0]", 1},
		{"woken process runs before the waker's advance", func(e *Engine) {
			q := e.Spawn("q", func(p *Proc) { p.Park() })
			e.Spawn("a", func(p *Proc) {
				p.Advance(2)
				p.Wake(q)
				p.Advance(3)
			})
		}, "[q@0 a@0 a@2 q@2 a@5]", 1},
		{"spawned process runs before the spawner's Advance(0)", func(e *Engine) {
			e.Spawn("a", func(p *Proc) {
				p.eng.Spawn("c", func(*Proc) {})
				p.Advance(0)
				p.Advance(0)
			})
		}, "[a@0 c@0 a@0 a@0]", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			var order []string
			e.stepHook = func(now uint64, p *Proc) {
				order = append(order, fmt.Sprintf("%s@%d", p.Name(), now))
			}
			tc.spawn(e)
			e.Run()
			if got := fmt.Sprint(order); got != tc.order {
				t.Errorf("dispatch order = %s, want %s", got, tc.order)
			}
			if e.Events() != uint64(len(order)) {
				t.Errorf("Events() = %d, want %d", e.Events(), len(order))
			}
			if e.direct != tc.direct {
				t.Errorf("%d direct dispatches, want %d", e.direct, tc.direct)
			}
		})
	}
}

// With CatSim on, a run whose dispatches are mostly direct still emits
// exactly one "dispatch" instant per event, in cycle order, so Perfetto
// traces and the trace-overhead probe count the same events as Run.
func TestDirectDispatchesAreTraced(t *testing.T) {
	e := NewEngine()
	tr := trace.New(1<<16, trace.CatSim)
	e.SetTracer(tr)
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(uint64(i) * 1000) // stagger the bursts
			for r := 0; r < 500; r++ {
				p.Advance(1)
			}
		})
	}
	e.Run()
	if e.direct*10 < e.Events()*9 {
		t.Fatalf("only %d of %d dispatches were direct; the test needs most of them", e.direct, e.Events())
	}
	var n, last uint64
	for _, ev := range tr.Events() {
		if ev.Name != "dispatch" {
			continue
		}
		if ev.Cycle < last {
			t.Fatalf("dispatch instant at cycle %d after one at %d", ev.Cycle, last)
		}
		last = ev.Cycle
		n++
	}
	if n != e.Events() || tr.Dropped() != 0 {
		t.Errorf("%d dispatch instants (%d dropped) for %d events", n, tr.Dropped(), e.Events())
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected Run to re-raise the process panic")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "boom") || !strings.Contains(msg, "faulty") {
			t.Errorf("panic message %q missing process name or cause", msg)
		}
	}()
	e := NewEngine()
	e.Spawn("faulty", func(p *Proc) {
		p.Advance(5)
		panic("boom")
	})
	e.Run()
}

func TestLiveCount(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) { p.Advance(1) })
	e.Spawn("b", func(p *Proc) { p.Advance(2) })
	if e.Live() != 2 {
		t.Fatalf("live = %d before run, want 2", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("live = %d after run, want 0", e.Live())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	// The same model must produce an identical event trace on every
	// run, regardless of host goroutine scheduling.
	trace := func() []string {
		e := NewEngine()
		var tr []string
		e.stepHook = func(tm uint64, p *Proc) {
			tr = append(tr, fmt.Sprintf("%d:%s", tm, p.Name()))
		}
		r := NewResource("bus")
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("w%d", i)
			delay := uint64(i % 3)
			e.Spawn(name, func(p *Proc) {
				p.Advance(delay)
				for j := 0; j < 4; j++ {
					r.AcquireAndHold(p, 10)
					p.Advance(uint64(j))
				}
			})
		}
		e.Run()
		return tr
	}
	first := fmt.Sprint(trace())
	for i := 0; i < 5; i++ {
		if got := fmt.Sprint(trace()); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestPropertyClockMonotone(t *testing.T) {
	// Property: for any set of random process schedules the observed
	// dispatch times are non-decreasing.
	f := func(delays []uint16) bool {
		if len(delays) > 64 {
			delays = delays[:64]
		}
		e := NewEngine()
		var last uint64
		ok := true
		e.stepHook = func(tm uint64, p *Proc) {
			if tm < last {
				ok = false
			}
			last = tm
		}
		for i, d := range delays {
			d := uint64(d % 1000)
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Advance(d)
				p.Advance(d / 2)
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// settledGoroutines polls runtime.NumGoroutine until it drops to want
// or a deadline passes, returning the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// runExpectingPanic runs e and returns the panic value Run raised.
func runExpectingPanic(t *testing.T, e *Engine) (r any) {
	t.Helper()
	defer func() { r = recover() }()
	e.Run()
	t.Fatal("Run returned without panicking")
	return nil
}

// A failed Run must not strand suspended processes: every parked,
// queued and never-started process is stopped, and its body's defers
// run as it unwinds.
func TestFailedRunLeaksNoProcesses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(e *Engine, ran *bool)
		want  string
	}{
		{"deadlock", func(e *Engine, _ *bool) {
			e.Spawn("stuck", func(p *Proc) { p.Advance(3); p.Park() })
		}, "sim: deadlock: 9 processes parked forever:"},
		{"process panic", func(e *Engine, ran *bool) {
			e.Spawn("faulty", func(p *Proc) {
				p.Advance(3)
				p.eng.Spawn("unstarted", func(*Proc) { *ran = true })
				panic("boom")
			})
			e.Spawn("late", func(p *Proc) { p.Advance(10) })
		}, `sim: process "faulty" panicked: boom`},
		{"process panic on the direct path", func(e *Engine, ran *bool) {
			e.Spawn("queued", func(p *Proc) {
				p.Advance(1 << 20)
				*ran = true
			})
			// Every Advance is the engine's next dispatch, so "direct"
			// never yields after its first dispatch.
			e.Spawn("direct", func(p *Proc) {
				for i := 0; i < 1000; i++ {
					p.Advance(1)
				}
				if e.direct != 1000 {
					panic(fmt.Sprintf("%d direct dispatches, want 1000", e.direct))
				}
				panic("boom")
			})
		}, `sim: process "direct" panicked: boom`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine()
			unwound, ran := 0, false
			for i := 0; i < 8; i++ {
				e.Spawn(fmt.Sprintf("parked%d", i), func(p *Proc) {
					defer func() { unwound++ }()
					p.Park()
				})
			}
			tc.fault(e, &ran)
			msg := fmt.Sprint(runExpectingPanic(t, e))
			if !strings.HasPrefix(msg, tc.want) {
				t.Errorf("panic = %q, want prefix %q", msg, tc.want)
			}
			if ran {
				t.Error("a stopped process body ran past its last dispatch")
			}
			if unwound != 8 {
				t.Errorf("%d of 8 parked bodies unwound", unwound)
			}
			if e.Live() != 0 {
				t.Errorf("live = %d after failed Run, want 0", e.Live())
			}
			if n := settledGoroutines(base); n != base {
				t.Errorf("goroutines = %d after failed Run, want baseline %d", n, base)
			}
		})
	}
}
