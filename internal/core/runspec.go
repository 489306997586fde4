package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"fdt/internal/machine"
	"fdt/internal/runner"
)

// RunSpec names one simulated run: a machine, a workload, the driver
// that executes it, the execution mode and the power parameters. It is
// the single way to run, key and validate a single-team simulation;
// CLIs, experiments and the daemon all build one.
type RunSpec struct {
	// Cfg is the simulated machine.
	Cfg machine.Config
	// Workload is the run's cache name: the registered workload plus
	// any non-default parameters ("pagemine/pb=2560"). "" runs
	// uncached — closures carry no identity of their own.
	Workload string
	// Factory builds the workload on the run's fresh machine. It runs
	// before the driver, so it may also attach observers (tracer,
	// checker, sampler) to the machine of an uncached run.
	Factory Factory
	// Driver executes the workload; see ParseDriver.
	Driver Driver
	// Mode selects exact or sampled execution.
	Mode Mode
	// Power arms the budget-constrained (threads, frequency) search;
	// nil means DefaultPowerParams.
	Power *PowerParams
}

// Driver executes a workload on a fresh machine: the Controller
// pipeline (SAT, BAT, SAT+BAT, static, adaptive), HillClimb or Hybrid.
// Only the Controller takes a spec's Mode and Power; the probing
// drivers time real chunks and always run exact at nominal frequency.
type Driver interface {
	Run(m *machine.Machine, w Workload) RunResult
	// key renders the driver's fragment of a run's content address
	// on a machine with the given hardware contexts.
	key(contexts int) string
}

// key identifies a controller by its policy, plus its training and
// monitor parameters when they are not the train-once defaults.
func (ctl *Controller) key(contexts int) string {
	k := policyKey(ctl.Policy, contexts)
	if ctl.Params != DefaultTrainingParams() {
		k += fmt.Sprintf("|train/%+v", ctl.Params)
	}
	if ctl.Monitor != nil {
		k += fmt.Sprintf("|monitor/%+v", *ctl.Monitor)
	}
	return k
}

// key identifies the climber by its tuning.
func (h HillClimb) key(int) string { return fmt.Sprintf("policy/hill-climb/%+v", h) }

// key identifies the hybrid by its seed policy and tuning.
func (h Hybrid) key(int) string {
	seed := "combined"
	if h.Policy != nil {
		seed = h.Policy.Name()
	}
	return fmt.Sprintf("policy/hybrid/seed=%s/%+v|train/%+v", seed, h.HP, h.Params)
}

// Key is the run's content address:
//
//	ConfigKey | Workload | driver [| power] [| mode]
//
// Default power parameters and exact mode contribute nothing, and the
// probing drivers take neither, which keeps existing disk stores warm
// (testdata/identity_keys_*.txt pin every form). An uncached spec has
// no key.
func (s RunSpec) Key() string {
	if s.Workload == "" {
		return ""
	}
	k := ConfigKey(s.Cfg) + "|" + s.Workload + "|" + s.Driver.key(machineContexts(s.Cfg))
	if _, ok := s.Driver.(*Controller); ok {
		k += s.power().key() + s.Mode.key()
	}
	return k
}

// power resolves the spec's power parameters.
func (s RunSpec) power() PowerParams {
	if s.Power != nil {
		return *s.Power
	}
	return DefaultPowerParams()
}

// Run executes the spec on a fresh machine. A named spec goes through
// the process-wide run cache: the first call per Key simulates, later
// calls — from any figure, on any worker — return the memoized result.
// Run does not validate; front ends call Validate first.
func Run(s RunSpec) RunResult {
	if s.Workload == "" {
		return s.run()
	}
	return runCache.Do(s.Key(), s.run)
}

func (s RunSpec) run() RunResult {
	m := machine.MustNew(s.Cfg)
	d := s.Driver
	if ctl, ok := d.(*Controller); ok {
		// A copy, so the caller's controller is not mutated. Power
		// stays nil for the default parameters: a run whose key equals
		// the plain run's must execute the plain run's code.
		c := *ctl
		c.Mode = s.Mode
		c.Power = nil
		if pp := s.power(); pp != DefaultPowerParams() {
			c.Power = &pp
		}
		d = &c
	}
	return d.Run(m, s.Factory(m))
}

// Sweep runs the spec's workload once per static thread count (the
// spec's Driver is ignored: every point is a Static controller),
// fanning the points out over the runner's worker pool. Results follow
// counts' order, identical to a serial sweep because each point runs
// on its own fresh machine.
func Sweep(s RunSpec, counts []int) []RunResult {
	out := make([]RunResult, len(counts))
	runner.Map(len(counts), func(i int) {
		p := s
		p.Driver = NewController(Static{N: counts[i]})
		out[i] = Run(p)
	})
	return out
}

// Opt is a set of run options: the vocabulary of the conflict table.
type Opt uint8

const (
	OptProbes  Opt = 1 << iota // the driver times real chunks (hillclimb, hybrid)
	OptMonitor                 // the controller re-trains at phase changes (adaptive)
	OptPower                   // a power budget, a locked P-state or a P-state ladder
	OptSampled                 // sampled execution
	OptCorun                   // co-scheduled teams
	OptCheck                   // the invariant checker is armed
	OptTrace                   // the tracer is armed
)

// conflicts is the one table of option conflicts. A row applies when
// all of a's options and b are set. It rejects the run, except that a
// row against OptSampled forces exact execution instead, its message
// becoming the note. "{policy}" is replaced by the driver's name.
var conflicts = []struct {
	a, b Opt
	msg  string
}{
	{OptProbes, OptPower, "policy {policy} does not support a power budget or P-state ladder (its probes time real chunks at nominal frequency)"},
	{OptProbes, OptCorun, "policy {policy} does not support co-runs (its probes own the whole machine)"},
	{OptCorun, OptPower, "co-runs do not support a power budget or P-state ladder (per-team power attribution is not modeled)"},
	{OptCheck, OptSampled, "-check forces exact execution (invariant accounting needs every cycle simulated)"},
	{OptTrace, OptSampled, "tracing forces exact execution (a golden trace must record every event)"},
	{OptProbes, OptSampled, "policy {policy} forces exact execution (its probes time real chunks)"},
	{OptMonitor | OptPower, OptSampled, "adaptive re-training under a power budget or P-state ladder forces exact execution (frequency switching has no sampled-mode audit)"},
}

// conflictsOf applies the conflict table to an option set; policy names
// the driver in messages. It returns the first rejecting row as an
// error, else the first exact-forcing row as a note ("" when the
// options combine freely).
func conflictsOf(set Opt, policy string) (note string, err error) {
	for _, c := range conflicts {
		if set&c.a != c.a || set&c.b == 0 {
			continue
		}
		msg := strings.ReplaceAll(c.msg, "{policy}", policy)
		if c.b != OptSampled {
			return "", errors.New(msg)
		}
		if note == "" {
			note = msg
		}
	}
	return note, nil
}

// Validate checks that the spec can run: a buildable machine and no
// conflicting options, counting the host-side instruments the caller
// arms (OptCheck, OptTrace). A nil Driver is valid for Sweep. Sampled
// execution that the driver or an instrument cannot honour is
// downgraded to exact in place; the note says why.
func (s *RunSpec) Validate(instruments Opt) (note string, err error) {
	if err := s.Cfg.Mem.Validate(); err != nil {
		return "", err
	}
	set := instruments
	name := ""
	switch d := s.Driver.(type) {
	case *Controller:
		if d.Monitor != nil {
			set |= OptMonitor
		}
	case HillClimb:
		set, name = set|OptProbes, d.Name()
	case Hybrid:
		set, name = set|OptProbes, d.Name()
	}
	if s.power() != DefaultPowerParams() || !s.Cfg.Freq.Trivial() {
		set |= OptPower
	}
	if s.Mode.Sampled {
		set |= OptSampled
	}
	note, err = conflictsOf(set, name)
	if note != "" {
		s.Mode = ExactMode()
	}
	return note, err
}

// grammar is the one policy grammar of the CLIs and the daemon: a
// canonical name, its aliases, a description, and the driver it
// builds. The static:N row documents the parametric form ParseDriver
// handles by prefix.
var grammar = []struct {
	names []string
	help  string
	build func() Driver
}{
	{[]string{"sat"}, "synchronization-aware threading: Eq. 3 from trained critical-section time",
		func() Driver { return NewController(SAT{}) }},
	{[]string{"bat"}, "bandwidth-aware threading: Eq. 5 from trained bus utilization",
		func() Driver { return NewController(BAT{}) }},
	{[]string{"sat+bat", "combined", "fdt"}, "combined FDT: min of both estimates, Eq. 7",
		func() Driver { return NewController(Combined{}) }},
	{[]string{"serial"}, "one thread (static:1)",
		func() Driver { return NewController(Static{N: 1}) }},
	{[]string{"static"}, "one thread per core",
		func() Driver { return NewController(Static{}) }},
	{[]string{"static:N"}, "N threads, clamped to the cores", nil},
	{[]string{"adaptive"}, "SAT+BAT re-trained at every phase change the monitor detects",
		func() Driver { return NewAdaptiveController(Combined{}, DefaultMonitorParams()) }},
	{[]string{"hillclimb", "hill-climb"}, "model-free baseline: times real chunks and climbs to a local optimum",
		func() Driver { return HillClimb{} }},
	{[]string{"hybrid"}, "model seed + bounded measured probes, falls back to pure measurement on model breakdown",
		func() Driver { return Hybrid{} }},
}

// ParseDriver resolves a policy name of the grammar (case-insensitive):
// sat | bat | sat+bat (aliases combined, fdt) | serial | static |
// static:N | adaptive | hillclimb (alias hill-climb) | hybrid.
func ParseDriver(name string) (Driver, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	if rest, ok := strings.CutPrefix(n, "static:"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad static policy %q (want static:N, N >= 1)", name)
		}
		return NewController(Static{N: k}), nil
	}
	for _, g := range grammar {
		if g.build != nil && slices.Contains(g.names, n) {
			return g.build(), nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q (want %s)", name, PolicyGrammar())
}

// PolicyGrammar renders the grammar's canonical names for help texts.
func PolicyGrammar() string {
	names := make([]string, len(grammar))
	for i, g := range grammar {
		names[i] = g.names[0]
	}
	return strings.Join(names, " | ")
}

// PolicyList renders the grammar as (name, description) rows, aliases
// included, for -list output.
func PolicyList() [][2]string {
	rows := make([][2]string, len(grammar))
	for i, g := range grammar {
		help := g.help
		if len(g.names) > 1 {
			help += " (aliases: " + strings.Join(g.names[1:], ", ") + ")"
		}
		rows[i] = [2]string{g.names[0], help}
	}
	return rows
}
