package sim

// FuzzEngine drives the event kernel with arbitrary interleavings of
// Advance/Yield/Park decoded from the fuzz input. The program is
// deadlock-free by construction: workers that park first enqueue
// themselves on a wake list, and a master process that never parks
// drains that list until every worker has finished — so any panic or
// stuck run the fuzzer finds is an engine bug, not a bad program. The
// kernel's contracts are then checked directly: every dispatch goes to
// the process holding the earliest pending wake, by (cycle, request
// order), and the same program replayed gives the identical event
// count and final clock (determinism).

import (
	"fmt"
	"testing"
)

// fuzzProgram is one decoded worker schedule: op codes 0..3.
type fuzzProgram struct {
	workers int
	ops     [][]byte
}

func decodeProgram(data []byte) fuzzProgram {
	if len(data) == 0 {
		return fuzzProgram{workers: 1, ops: make([][]byte, 1)}
	}
	if len(data) > 256 {
		data = data[:256]
	}
	p := fuzzProgram{workers: 1 + int(data[0]%8)}
	p.ops = make([][]byte, p.workers)
	for i, b := range data[1:] {
		w := i % p.workers
		p.ops[w] = append(p.ops[w], b)
	}
	return p
}

// wakeReq is a process's pending wake: the cycle it asked for and the
// global order in which it asked. The engine's contract is to dispatch
// pending wakes in (t, order) order, whichever internal path it takes.
type wakeReq struct{ t, order uint64 }

func (a wakeReq) before(b wakeReq) bool {
	return a.t < b.t || a.t == b.t && a.order < b.order
}

// runProgram executes the decoded program on a fresh engine and
// returns (events dispatched, final clock).
func runProgram(t *testing.T, p fuzzProgram) (uint64, uint64) {
	t.Helper()
	e := NewEngine()

	// The oracle: each process records its requested wake before every
	// Advance, Yield and Wake, and stepHook checks that the dispatched
	// process holds the minimum. Every wake must be dispatched exactly
	// once, and Events must count each. The hook may run on a process's
	// coroutine, so it records the first violation instead of failing.
	pending := make(map[*Proc]wakeReq)
	var order uint64
	var violation string
	request := func(q *Proc, at uint64) {
		if w, ok := pending[q]; ok && violation == "" {
			violation = fmt.Sprintf("%s asked again before its wake %+v was dispatched", q.Name(), w)
		}
		order++
		pending[q] = wakeReq{at, order}
	}
	var lastDispatch uint64
	e.stepHook = func(now uint64, q *Proc) {
		got, ok := pending[q]
		delete(pending, q)
		if violation != "" {
			return
		}
		switch {
		case now < lastDispatch:
			violation = fmt.Sprintf("dispatch time went backwards: %d after %d", now, lastDispatch)
		case !ok:
			violation = fmt.Sprintf("dispatched %s at %d with no pending wake", q.Name(), now)
		case got.t != now:
			violation = fmt.Sprintf("dispatched %s at %d, it asked for %d", q.Name(), now, got.t)
		}
		lastDispatch = now
		for r, w := range pending {
			if violation == "" && w.before(got) {
				violation = fmt.Sprintf("dispatched %s %+v at %d ahead of %s %+v",
					q.Name(), got, now, r.Name(), w)
			}
		}
	}

	done := 0
	var wantWake []*Proc
	for w := 0; w < p.workers; w++ {
		ops := p.ops[w]
		q := e.Spawn(fmt.Sprintf("worker%d", w), func(proc *Proc) {
			for _, b := range ops {
				switch b % 4 {
				case 0:
					d := 1 + uint64(b)/4
					request(proc, proc.Now()+d)
					proc.Advance(d)
				case 1:
					request(proc, proc.Now())
					proc.Yield()
				case 2:
					// Enqueue-then-park is atomic w.r.t. the
					// single-threaded scheduler: the master can only
					// observe the queue entry once this worker has
					// actually parked.
					wantWake = append(wantWake, proc)
					proc.Park()
				case 3:
					d := uint64(b) * 97
					request(proc, proc.Now()+d)
					proc.Advance(d)
				}
			}
			done++
		})
		request(q, 0)
	}
	m := e.Spawn("master", func(proc *Proc) {
		for done < p.workers {
			if len(wantWake) > 0 {
				q := wantWake[0]
				wantWake = wantWake[1:]
				request(q, proc.Now())
				proc.Wake(q)
				request(proc, proc.Now())
				proc.Yield()
				continue
			}
			request(proc, proc.Now()+1)
			proc.Advance(1)
		}
	})
	request(m, 0)
	e.Run()

	if violation != "" {
		t.Fatal(violation)
	}
	if len(pending) != 0 || e.Events() != order {
		t.Fatalf("%d wakes requested, %d dispatched, %d never dispatched",
			order, e.Events(), len(pending))
	}
	if done != p.workers {
		t.Fatalf("%d of %d workers finished", done, p.workers)
	}
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after Run", e.Live())
	}
	return e.Events(), e.Now()
}

func FuzzEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2})
	f.Add([]byte{7, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{1, 0, 4, 8, 12, 255, 251, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		events1, now1 := runProgram(t, p)
		events2, now2 := runProgram(t, p)
		if events1 != events2 || now1 != now2 {
			t.Fatalf("non-deterministic replay: (%d events, clock %d) then (%d events, clock %d)",
				events1, now1, events2, now2)
		}
	})
}
