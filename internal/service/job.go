package service

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

// Spec is a submitted job: workload x machine config x policy x mode
// x sweep range, or a whole named experiment from the report registry.
type Spec struct {
	// Client identifies the submitter for admission fairness; empty
	// means "anon". It is an accounting label, not authentication.
	Client string `json:"client,omitempty"`
	// Kind selects the job shape: "sweep" (default when Workload is
	// set) or "experiment" (default when Experiment is set).
	Kind string `json:"kind,omitempty"`
	// Workload names a registered workload for sweep jobs.
	Workload string `json:"workload,omitempty"`
	// Threads are the static thread counts to sweep; may be empty
	// when Policies is not.
	Threads []int `json:"threads,omitempty"`
	// Policies are placed on the curve after the sweep: sat, bat,
	// sat+bat, serial, static:N, adaptive, hillclimb, hybrid.
	Policies []string `json:"policies,omitempty"`
	// Experiment names a report-registry experiment ("fig2" ...
	// "gauntlet") for experiment jobs.
	Experiment string `json:"experiment,omitempty"`
	// Cores and Bandwidth shape the simulated machine (default 32
	// cores, 1.0 bandwidth).
	Cores     int     `json:"cores,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Mode is "exact" (default) or "sampled".
	Mode string `json:"mode,omitempty"`
	// PowerBudget caps average chip power in nominal-active-core
	// units (0 = unconstrained). A positive budget with no explicit
	// ladder implies the default four-state ladder.
	PowerBudget float64 `json:"power_budget,omitempty"`
	// FreqLadderMHz is the P-state ladder as a strictly descending
	// MHz list, nominal first (empty = single-frequency machine).
	FreqLadderMHz []int `json:"freq_ladder_mhz,omitempty"`
}

const (
	KindSweep      = "sweep"
	KindExperiment = "experiment"
)

// normalize fills defaults and validates everything that can be
// checked without simulating; the HTTP layer maps an error to 400.
func (s *Spec) normalize() error {
	if s.Client == "" {
		s.Client = "anon"
	}
	if s.Kind == "" {
		if s.Experiment != "" {
			s.Kind = KindExperiment
		} else {
			s.Kind = KindSweep
		}
	}
	if s.Cores == 0 {
		s.Cores = machine.DefaultConfig().Mem.Cores
	}
	if s.Cores < 1 {
		return fmt.Errorf("bad cores %d", s.Cores)
	}
	if s.Bandwidth == 0 {
		s.Bandwidth = 1.0
	}
	if s.Bandwidth < 0 {
		return fmt.Errorf("bad bandwidth %g", s.Bandwidth)
	}
	switch s.Mode {
	case "", "exact":
		s.Mode = "exact"
	case "sampled":
	default:
		return fmt.Errorf("bad mode %q (want exact or sampled)", s.Mode)
	}
	if _, err := s.freq(); err != nil {
		return err
	}
	// The machine a job would build must be buildable: a core count
	// the L3 banks cannot be placed around is rejected here, not by a
	// panic in the worker.
	if err := s.options().Cfg.Mem.Validate(); err != nil {
		return err
	}
	for _, n := range s.Threads {
		if n < 1 || n > s.Cores*machine.DefaultConfig().SMTContexts {
			return fmt.Errorf("bad thread count %d for %d cores", n, s.Cores)
		}
	}
	switch s.Kind {
	case KindSweep:
		if s.Experiment != "" {
			return fmt.Errorf("sweep job must not name an experiment")
		}
		o := s.options()
		for _, p := range s.Policies {
			d, err := core.ParseDriver(p)
			if err != nil {
				return err
			}
			rs := core.RunSpec{Cfg: o.Cfg, Driver: d, Mode: o.Mode, Power: o.Power}
			if _, err := rs.Validate(0); err != nil {
				return err
			}
		}
		if _, ok := workloads.ByName(s.Workload); !ok {
			return fmt.Errorf("unknown workload %q", s.Workload)
		}
		if len(s.Threads) == 0 && len(s.Policies) == 0 {
			return fmt.Errorf("empty job: no threads and no policies")
		}
	case KindExperiment:
		if s.Workload != "" || len(s.Policies) != 0 {
			return fmt.Errorf("experiment job carries only an experiment name")
		}
		if _, ok := experiments.LookupExperiment(experiments.DefaultOptions(), s.Experiment); !ok {
			return fmt.Errorf("unknown experiment %q", s.Experiment)
		}
	default:
		return fmt.Errorf("bad kind %q (want sweep or experiment)", s.Kind)
	}
	return nil
}

// dvfs reports whether the spec asks for the power-aware path at
// all; false keeps jobs on the bit-identical single-frequency path.
func (s Spec) dvfs() bool { return s.PowerBudget > 0 || len(s.FreqLadderMHz) > 0 }

// freq resolves the spec's (budget, ladder) pair, mirroring the
// CLIs' machine.ResolveDVFS: the budget must be non-negative, the
// MHz list must form a valid ladder, and a positive budget with no
// explicit ladder implies the default ladder.
func (s Spec) freq() (machine.FreqConfig, error) {
	if s.PowerBudget < 0 {
		return machine.FreqConfig{}, fmt.Errorf("bad power budget %g (want >= 0; 0 = unconstrained)", s.PowerBudget)
	}
	fc, err := machine.LadderFromMHz(s.FreqLadderMHz)
	if err != nil {
		return machine.FreqConfig{}, err
	}
	if s.PowerBudget > 0 && fc.Trivial() {
		fc = machine.DefaultLadder()
	}
	return fc, nil
}

// options builds the experiment options a job executes under.
func (s Spec) options() experiments.Options {
	o := experiments.Options{
		Cfg: machine.DefaultConfig().WithCores(s.Cores).WithBandwidth(s.Bandwidth),
	}
	if s.Mode == "sampled" {
		o.Mode = core.SampledMode()
	}
	if s.Kind == KindExperiment && len(s.Threads) > 0 {
		o.SweepThreads = s.Threads
	}
	if s.dvfs() {
		fc, err := s.freq() // validated by normalize
		if err == nil {
			o.Cfg = o.Cfg.WithFreq(fc)
			o.Power = &core.PowerParams{Budget: s.PowerBudget, LockState: -1}
		}
	}
	return o
}

// Job statuses, in lifecycle order.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Event is one progress notification on a job's stream.
type Event struct {
	// Type: "queued", "running", "point" (one sweep point or policy
	// placement finished), "done", "error".
	Type string `json:"type"`
	Job  string `json:"job"`
	// Point payload (Type "point").
	Workload string `json:"workload,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Cycles   uint64 `json:"cycles,omitempty"`
	Index    int    `json:"index,omitempty"`
	Total    int    `json:"total,omitempty"`
	// Err carries the failure message (Type "error").
	Err string `json:"error,omitempty"`
}

// Job is one admitted submission and its lifecycle state.
type Job struct {
	ID   string
	Spec Spec

	mu        sync.Mutex
	status    string
	errMsg    string
	result    json.RawMessage
	submitted time.Time
	started   time.Time
	finished  time.Time
	events    []Event
	subs      map[int]chan Event
	nextSub   int
	dropped   uint64
}

func newJob(id string, spec Spec) *Job {
	j := &Job{
		ID: id, Spec: spec,
		status:    StatusQueued,
		submitted: time.Now(),
		subs:      map[int]chan Event{},
	}
	j.events = append(j.events, Event{Type: StatusQueued, Job: id})
	return j
}

// publish appends an event to the job's history and fans it out to
// live subscribers. Sends never block the dispatcher: a subscriber
// that stops draining loses intermediate events (counted), but the
// terminal state is always observable because completion closes every
// subscriber channel and the final snapshot holds the result.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, ev)
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
			j.dropped++
		}
	}
}

// terminal state transitions; close all subscriber channels.
func (j *Job) finish(result json.RawMessage, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	var ev Event
	if err != nil {
		j.status = StatusFailed
		j.errMsg = err.Error()
		ev = Event{Type: "error", Job: j.ID, Err: j.errMsg}
	} else {
		j.status = StatusDone
		j.result = result
		ev = Event{Type: "done", Job: j.ID}
	}
	j.events = append(j.events, ev)
	subs := j.subs
	j.subs = map[int]chan Event{}
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
			j.dropped++
		}
		close(ch)
	}
	j.mu.Unlock()
}

func (j *Job) start() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
	j.publish(Event{Type: StatusRunning, Job: j.ID})
}

// Subscribe returns a channel that replays the job's full event
// history and then carries live events; it is closed when the job
// reaches a terminal state (or immediately after replay if it already
// has). cancel detaches early.
func (j *Job) Subscribe() (ch <-chan Event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Replay capacity plus live headroom; the SSE writer drains
	// promptly, and terminal delivery is guaranteed by channel close +
	// snapshot regardless of drops.
	c := make(chan Event, len(j.events)+256)
	for _, ev := range j.events {
		c <- ev
	}
	if j.status == StatusDone || j.status == StatusFailed {
		close(c)
		return c, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = c
	return c, func() {
		j.mu.Lock()
		if ch, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// View is a job's externally visible snapshot.
type View struct {
	ID        string          `json:"id"`
	Spec      Spec            `json:"spec"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Events    int             `json:"events"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// Snapshot captures the job's current state. withResult=false elides
// the (potentially large) result payload for listings.
func (j *Job) Snapshot(withResult bool) View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.ID, Spec: j.Spec, Status: j.status, Error: j.errMsg,
		Submitted: j.submitted, Events: len(j.events),
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// Status reports the job's current lifecycle state.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Result returns the terminal result payload (nil until done).
func (j *Job) Result() json.RawMessage {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}
