// Package runflags registers the run-shaping flags the fdt CLIs share
// and turns them into a validated core.RunSpec, so every command
// resolves cores, bandwidth, sampling, probe tuning and DVFS the same
// way.
package runflags

import (
	"flag"
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// Group selects which flags Register defines.
type Group uint8

const (
	Machine      Group = 1 << iota // -cores, -bandwidth
	Sampled                        // -sampled
	SampleTuning                   // -sample-tol, -sample-window
	Probes                         // -probe-iters, -min-gain
	Power                          // -power-budget, -freq-ladder

	All = Machine | Sampled | SampleTuning | Probes | Power
)

// Flags holds the parsed values of the registered flags.
type Flags struct {
	Groups       Group
	Cores        int
	Bandwidth    float64
	Sampled      bool
	SampleTol    float64
	SampleWindow int
	ProbeIters   int
	MinGain      float64
	PowerBudget  float64
	FreqLadder   string
}

// Register defines the groups' flags on fs.
func Register(fs *flag.FlagSet, g Group) *Flags {
	f := &Flags{Groups: g}
	if g&Machine != 0 {
		fs.IntVar(&f.Cores, "cores", machine.DefaultConfig().Mem.Cores, "cores on the simulated chip")
		fs.Float64Var(&f.Bandwidth, "bandwidth", 1.0, "off-chip bandwidth scale factor")
	}
	if g&Sampled != 0 {
		fs.BoolVar(&f.Sampled, "sampled", false, "execute kernels in sampled mode (steady-state fast-forward; see DESIGN.md Section 11)")
	}
	if g&SampleTuning != 0 {
		fs.Float64Var(&f.SampleTol, "sample-tol", 0, "sampled-mode stability tolerance (0 = default)")
		fs.IntVar(&f.SampleWindow, "sample-window", 0, "sampled-mode detailed-window length in iterations (0 = default)")
	}
	if g&Probes != 0 {
		fs.IntVar(&f.ProbeIters, "probe-iters", 0, "probe chunk length in iterations for hillclimb/hybrid (0 = default)")
		fs.Float64Var(&f.MinGain, "min-gain", 0, "fractional speedup a probed size needs to win, for hillclimb/hybrid (0 = default)")
	}
	if g&Power != 0 {
		fs.Float64Var(&f.PowerBudget, "power-budget", 0, "average-chip-power cap in nominal-active-core units (0 = unconstrained; implies -freq-ladder default)")
		fs.StringVar(&f.FreqLadder, "freq-ladder", "", "P-state ladder: \"default\" or comma-separated MHz values, nominal first (empty = single-frequency machine)")
	}
	return f
}

// Spec returns the RunSpec the flags describe, driven by the named
// policy of core's grammar ("" leaves the Driver nil, for sweeps and
// callers that place policies later), validated against core's
// conflict table with the caller's instruments. The note reports
// sampled execution downgraded to exact.
func (f *Flags) Spec(policy string, instruments core.Opt) (core.RunSpec, string, error) {
	var s core.RunSpec
	if f.ProbeIters < 0 {
		return s, "", fmt.Errorf("-probe-iters %d, want >= 0 (0 = default)", f.ProbeIters)
	}
	if f.MinGain < 0 || f.MinGain >= 1 {
		return s, "", fmt.Errorf("-min-gain %g, want in [0, 1)", f.MinGain)
	}
	ladder, err := machine.ResolveDVFS(f.PowerBudget, f.FreqLadder)
	if err != nil {
		return s, "", err
	}
	s.Cfg = machine.DefaultConfig()
	if f.Groups&Machine != 0 {
		if f.Bandwidth <= 0 {
			return s, "", fmt.Errorf("-bandwidth %g, want > 0", f.Bandwidth)
		}
		s.Cfg = s.Cfg.WithCores(f.Cores).WithBandwidth(f.Bandwidth)
	}
	s.Cfg = s.Cfg.WithFreq(ladder)
	if f.PowerBudget > 0 {
		s.Power = &core.PowerParams{Budget: f.PowerBudget, LockState: -1}
	}
	if f.Sampled {
		s.Mode = core.SampledMode()
		s.Mode.Params.Tol = f.SampleTol
		s.Mode.Params.WindowIters = f.SampleWindow
		s.Mode.Params = s.Mode.Params.WithDefaults()
	}
	if policy != "" {
		if s.Driver, err = core.ParseDriver(policy); err != nil {
			return s, "", err
		}
		switch d := s.Driver.(type) {
		case core.HillClimb:
			d.ProbeIters, d.MinGain = f.ProbeIters, f.MinGain
			s.Driver = d
		case core.Hybrid:
			d.HP.ProbeIters, d.HP.MinGain = f.ProbeIters, f.MinGain
			s.Driver = d
		}
	}
	note, err := s.Validate(instruments)
	return s, note, err
}

// Ladder describes a spec's DVFS setup for report headers ("ladder
// f2000>f1600, budget 5.60"); "" on a single-frequency machine.
func Ladder(s core.RunSpec) string {
	if s.Cfg.Freq.Trivial() {
		return ""
	}
	names := make([]string, len(s.Cfg.Freq.States))
	for i, st := range s.Cfg.Freq.States {
		names[i] = st.Name
	}
	budget := "unconstrained"
	if s.Power != nil && s.Power.Budget > 0 {
		budget = fmt.Sprintf("%.2f", s.Power.Budget)
	}
	return "ladder " + strings.Join(names, ">") + ", budget " + budget
}
