package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fdt/internal/core"
	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// simWorkers is the number of concurrent runs, as fdtreport's host
// pool runs them on a 2-CPU host.
const simWorkers = 2

// simOp is one cold run: a fresh machine and workload, driven by
// Controller.Run outside the run cache.
type simOp struct {
	key     runKey
	host    time.Duration // machine.New + Factory + Controller.Run
	run     time.Duration // Controller.Run alone
	traced  bool
	pair    int // deal index; a traced run and its untraced twin share it
	result  core.RunResult
	events  uint64
	cycles  uint64
	ctrs    map[string]uint64
	payload []byte // the RunResult as the run store would persist it
	err     error
}

var memCounters = []string{counters.L3Misses, counters.BusTransactions, counters.DRAMRowHits,
	counters.DRAMRowMisses, counters.BusBusyCycles}

// runOne executes one run and checks it: the workload's own Verify
// (exact runs; sampled runs skip the host computation of extrapolated
// iterations, so only their cycles and events are checked) and the
// expected-results file when exp is non-nil.
func runOne(k runKey, cfg machine.Config, md core.Mode, exp *expected, tr *tracer) simOp {
	op := simOp{key: k, traced: tr != nil}
	info, ok := workloads.ByName(k.Workload)
	if !ok {
		op.err = fmt.Errorf("unknown workload %q", k.Workload)
		return op
	}
	ctl, err := k.controller(md)
	if err != nil {
		op.err = err
		return op
	}
	trace := tr.newTrace()
	root := tr.begin(trace, -1, "op.run")
	t0 := time.Now()
	sp := tr.begin(trace, root, "machine.New")
	m, err := machine.New(cfg)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		op.err = err
		return op
	}
	sp = tr.begin(trace, root, "workloads.Factory")
	w := info.Factory(m)
	tr.end(sp)
	sp = tr.begin(trace, root, "core.Controller.Run")
	t1 := time.Now()
	op.result = ctl.Run(m, w)
	op.run = time.Since(t1)
	tr.end(sp)
	op.host = time.Since(t0)

	op.events, op.cycles = m.Eng.Events(), op.result.TotalCycles
	op.ctrs = map[string]uint64{}
	for _, c := range memCounters {
		op.ctrs[c] = m.Ctrs.Counter(c).Read()
	}
	if v, ok := w.(workloads.Verifier); ok && !md.Sampled {
		sp = tr.begin(trace, root, "workloads.Verify")
		op.err = v.Verify()
		tr.end(sp)
	}
	if op.err == nil && exp != nil {
		op.err = exp.check(k, md.Sampled, outcome{op.cycles, op.events})
	}
	tr.end(root)
	if tr != nil {
		op.payload, _ = json.Marshal(op.result) // RunResult always marshals
	}
	return op
}

// simMix is the exact-mix or sampled-mix workload.
type simMix struct {
	mode core.Mode
	exp  *expected
	seed uint64
}

// setupSimMix loads the expected results and builds one machine and
// workload per Table-2 member, the first-touch cost of every input
// generator.
func setupSimMix(dir string, sampled bool, seed uint64) (*simMix, error) {
	exp, err := loadExpected(dir + "/expected.json")
	if err != nil {
		return nil, err
	}
	for _, info := range workloads.All() {
		m, err := machine.New(machine.DefaultConfig())
		if err != nil {
			return nil, err
		}
		info.Factory(m)
	}
	md := core.ExactMode()
	if sampled {
		md = core.SampledMode()
	}
	return &simMix{mode: md, exp: exp, seed: seed}, nil
}

// window deals runs to simWorkers workers until the deadline; runs in
// flight at the deadline complete and count. With a tracer, every
// dealt key runs twice, untraced and traced, in alternating order, so
// the pairs measure the tracing overhead on identical work.
func (s *simMix) window(d time.Duration, tr *tracer) (ops []simOp, elapsed time.Duration) {
	dr := newDrawer(s.seed)
	var mu sync.Mutex
	dealt := 0
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				k, i := dr.next(), dealt
				dealt++
				mu.Unlock()
				run := func(t *tracer) simOp { return runOne(k, machine.DefaultConfig(), s.mode, s.exp, t) }
				var got []simOp
				switch {
				case tr == nil:
					got = []simOp{run(nil)}
				case i%2 == 0:
					got = []simOp{run(nil), run(tr)}
				default:
					got = []simOp{run(tr), run(nil)}
				}
				for j := range got {
					got[j].pair = i
				}
				mu.Lock()
				ops = append(ops, got...)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}
