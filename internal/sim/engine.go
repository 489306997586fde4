//go:build go1.23

// This file needs go1.23 for package iter. The constraint raises the
// file's language version while the module's go line stays at 1.22.

// Package sim implements a deterministic, process-oriented
// discrete-event simulation kernel.
//
// A simulation is a set of processes (Proc) that advance a shared
// simulated clock by waiting: WaitUntil schedules the process at an
// absolute cycle, Park suspends it until another process Wakes it.
// The engine resumes exactly one process at a time — the one with the
// smallest pending event time, FIFO among ties — so simulations are
// fully deterministic regardless of host goroutine scheduling.
//
// The kernel knows nothing about CPUs, caches or buses; those live in
// higher layers (internal/mem, internal/cpu) and are expressed purely
// in terms of WaitUntil/Park/Wake.
//
// Each process runs as a coroutine (iter.Pull) that the engine resumes
// directly, so a dispatch is one coroutine switch rather than a
// goroutine handoff through the scheduler. One Engine simulates one
// execution on the goroutine that calls Run; it is not safe for
// concurrent use. Host-level parallelism belongs one layer up
// (internal/runner), across independent engines.
package sim

import (
	"fmt"
	"iter"
	"sort"

	"fdt/internal/trace"
)

// initialHeapCap pre-sizes the future-event heap so steady-state
// simulations (a few hundred live processes in the full machine
// model) never grow it.
const initialHeapCap = 1024

// Engine owns the simulated clock and the pending-event queue.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now uint64
	seq uint64
	// events holds future events only (t > now) ordered by (t, seq);
	// events at the current cycle live in the cur FIFO. Keeping the
	// same-cycle events out of the heap gives the dominant
	// schedule-at-now case (Yield, Wake, resource handoff) an O(1)
	// fast path instead of an O(log n) sift.
	events eventHeap
	// cur is the FIFO of processes runnable at the current cycle;
	// curHead indexes the next one to dispatch.
	cur     []*Proc
	curHead int
	// dispatched counts events delivered to processes over the
	// engine's lifetime — the "simulator throughput" numerator.
	dispatched uint64
	live       map[*Proc]struct{}
	// stepHook, when non-nil, is invoked before each event dispatch.
	// Used by tests to observe scheduling order.
	stepHook func(t uint64, p *Proc)
	// tracer receives kernel-level trace events (dispatches, blocked
	// spans) when simTrace is set; the cached boolean keeps the
	// disabled case a single predictable branch in the dispatch loop.
	tracer   *trace.Tracer
	simTrace bool
}

// NewEngine returns an engine with the clock at cycle 0 and no
// processes.
func NewEngine() *Engine {
	return &Engine{
		events: make(eventHeap, 0, initialHeapCap),
		cur:    make([]*Proc, 0, 64),
		live:   make(map[*Proc]struct{}),
	}
}

// NewEngineAt returns an engine whose clock starts at cycle now — the
// restore half of the checkpoint protocol. A restored simulation's
// processes are spawned fresh (coroutine stacks cannot be
// checkpointed), which is why checkpoints are only taken at quiescent
// points where no process is mid-flight.
func NewEngineAt(now uint64) *Engine {
	e := NewEngine()
	e.now = now
	return e
}

// Now reports the current simulated cycle. It is only meaningful while
// the engine is running or after Run returns.
func (e *Engine) Now() uint64 { return e.now }

// Live reports the number of processes that have been spawned and have
// not yet finished.
func (e *Engine) Live() int { return len(e.live) }

// Events reports the number of events the engine has dispatched so
// far — the basis for events/second throughput metrics.
func (e *Engine) Events() uint64 { return e.dispatched }

// SetTracer attaches a tracer to the engine. With trace.CatSim in the
// tracer's mask the engine emits a "dispatch" instant per delivered
// event and a "blocked" span per Park/Wake pair, each on a track named
// after the process. A nil tracer (or a mask without CatSim) keeps
// the dispatch loop's tracing cost at one always-false branch.
func (e *Engine) SetTracer(t *trace.Tracer) {
	e.tracer = t
	e.simTrace = t.Wants(trace.CatSim)
	if e.simTrace {
		for p := range e.live {
			p.track = t.Track(p.name)
		}
	}
}

type event struct {
	t   uint64
	seq uint64
	p   *Proc
}

// eventHeap is a binary min-heap ordered by (t, seq). The sift
// routines are hand-rolled rather than going through container/heap:
// the interface-based API boxes every pushed event into an `any`,
// which costs an allocation per scheduled event on the hottest path
// of the whole simulator.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release the Proc pointer
	*h = old[:n]
	if n > 0 {
		old[:n].down(0)
	}
	return ev
}

// schedule queues p to run at cycle t. Events at the current cycle
// take the FIFO fast path; only genuinely future events pay for heap
// maintenance. Spawn-before-Run schedules (now == 0, nothing
// dispatched yet) also take the FIFO path, preserving spawn order.
func (e *Engine) schedule(t uint64, p *Proc) {
	if t == e.now {
		e.cur = append(e.cur, p)
		return
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, p: p})
}

// next pops the earliest pending process, advancing the clock when the
// current cycle drains. It returns nil when no events remain.
func (e *Engine) next() *Proc {
	for {
		if e.curHead < len(e.cur) {
			p := e.cur[e.curHead]
			e.cur[e.curHead] = nil // release for GC
			e.curHead++
			return p
		}
		if len(e.events) == 0 {
			return nil
		}
		// The current cycle is exhausted: advance to the earliest
		// future time and move every event at that time into the FIFO
		// (heap pops yield them in seq order, preserving the global
		// (t, seq) dispatch order of the original design).
		e.cur = e.cur[:0]
		e.curHead = 0
		t := e.events[0].t
		if t < e.now {
			panic("sim: event queue went backwards")
		}
		e.now = t
		for len(e.events) > 0 && e.events[0].t == t {
			e.cur = append(e.cur, e.events.pop().p)
		}
	}
}

// Proc is a simulated process: a coroutine that cooperates with the
// engine through WaitUntil, Advance, Park and Wake. All Proc methods
// must be called from the process's own body function, except Wake,
// which is called by whichever process is currently running.
type Proc struct {
	eng  *Engine
	name string
	// resume runs the body until its next yield (or its end); suspend
	// is the coroutine's yield, handing control back to the engine,
	// and reports false once stop has been called; stop unwinds a
	// suspended body. Engine and process strictly alternate, so model
	// state needs no host-level locking.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
	parked  bool
	done    bool
	// track and parkedAt support kernel-level tracing; both are
	// maintained only while the engine's simTrace flag is set.
	track    trace.TrackID
	parkedAt uint64
}

// halted is the panic value that unwinds a process body after stop.
type halted struct{}

// Name reports the diagnostic name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Now reports the current simulated cycle.
func (p *Proc) Now() uint64 { return p.eng.now }

// Spawn creates a process that will first run at the current simulated
// time. The body runs as a coroutine and only while the engine has
// resumed it, so body code may freely touch shared model state without
// host-level locking.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	if e.simTrace {
		p.track = e.tracer.Track(name)
	}
	e.live[p] = struct{}{}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		body(p)
		p.done = true
		delete(e.live, p)
	})
	e.schedule(e.now, p)
	return p
}

// yield hands control back to the engine and returns when the engine
// resumes this process. If the engine stops the process instead, yield
// unwinds the body.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(halted{})
	}
}

// halt unwinds a suspended process body. Panics raised on the way out,
// the halted sentinel included, are dropped: halt only runs while Run
// is already failing with its own diagnostic.
func (p *Proc) halt() {
	defer func() { _ = recover() }()
	p.stop()
}

// haltAll unwinds every live process so none outlives a failed Run.
func (e *Engine) haltAll() {
	for len(e.live) > 0 {
		for p := range e.live {
			delete(e.live, p)
			p.done = true
			p.halt()
		}
	}
}

// WaitUntil blocks the process until the simulated clock reaches t.
// Waiting for a time in the past (t <= now) re-queues the process at
// the current time, which still yields to any already-pending events
// at this cycle.
func (p *Proc) WaitUntil(t uint64) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.eng.schedule(t, p)
	p.yield()
}

// Advance blocks the process for d cycles.
func (p *Proc) Advance(d uint64) { p.WaitUntil(p.eng.now + d) }

// Yield re-queues the process at the current cycle, letting any other
// process scheduled for this cycle run first.
func (p *Proc) Yield() { p.WaitUntil(p.eng.now) }

// Park suspends the process indefinitely. It returns when another
// process calls Wake on it. A parked process holds no queue entry, so
// a simulation in which every live process is parked is deadlocked and
// Run panics with a diagnostic.
func (p *Proc) Park() {
	p.parked = true
	if p.eng.simTrace {
		p.parkedAt = p.eng.now
	}
	p.yield()
}

// Wake schedules a parked process q to resume at the current simulated
// time. Waking a process that is not parked is a programming error in
// the model layer and panics. Wake must be called by the currently
// running process (or before Run starts).
func (p *Proc) Wake(q *Proc) {
	p.eng.wake(q)
}

func (e *Engine) wake(q *Proc) {
	if !q.parked {
		panic(fmt.Sprintf("sim: Wake(%s): process is not parked", q.name))
	}
	q.parked = false
	if e.simTrace {
		e.tracer.Emit(trace.CatSim, trace.Event{
			Cycle: q.parkedAt,
			Dur:   e.now - q.parkedAt,
			Track: q.track,
			Kind:  trace.Complete,
			Name:  "blocked",
		})
	}
	e.schedule(e.now, q)
}

// Run dispatches events until none remain. It panics if live processes
// remain parked with an empty event queue (model deadlock), naming the
// stuck processes, and re-raises a panic from a process body with the
// process's name. Either way every remaining process is stopped first.
func (e *Engine) Run() {
	// cur is the process holding control, for attributing its panic.
	var cur *Proc
	defer func() {
		if cur == nil {
			return
		}
		r := recover()
		delete(e.live, cur)
		cur.done = true
		e.haltAll()
		if r != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", cur.name, r))
		}
	}()
	for {
		p := e.next()
		if p == nil {
			break
		}
		if p.done {
			continue
		}
		e.dispatched++
		if e.stepHook != nil {
			e.stepHook(e.now, p)
		}
		if e.simTrace {
			e.tracer.Emit(trace.CatSim, trace.Event{
				Cycle: e.now, Track: p.track, Kind: trace.Instant, Name: "dispatch",
			})
		}
		cur = p
		p.resume()
		cur = nil
	}
	if len(e.live) > 0 {
		names := make([]string, 0, len(e.live))
		for p := range e.live {
			names = append(names, p.name)
		}
		sort.Strings(names)
		e.haltAll()
		panic(fmt.Sprintf("sim: deadlock: %d processes parked forever: %v", len(names), names))
	}
}
