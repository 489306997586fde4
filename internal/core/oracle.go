package core

import (
	"fdt/internal/machine"
)

// Factory builds a fresh workload instance on a fresh machine. Every
// simulated execution needs its own machine and workload state, so
// sweeps and the oracle take factories rather than instances.
type Factory func(m *machine.Machine) Workload

// OracleResult is the best static configuration found by exhaustive
// offline search.
type OracleResult struct {
	// Threads is the fewest static threads within the tolerance of
	// the minimum execution time (Section 6.3 uses 1%).
	Threads int
	// Run is the execution with that static count.
	Run RunResult
	// Sweep holds every static run, indexed by thread count - 1.
	Sweep []RunResult
}

// Oracle implements the paper's best-static-policy comparison
// (Section 6.3): simulate the application for every possible thread
// count and select the fewest threads within tolerance (fractional,
// e.g. 0.01) of the minimum execution time. This requires offline
// knowledge FDT does not need — it is the upper bound FDT is compared
// against in Fig 15.
func Oracle(cfg machine.Config, f Factory, tolerance float64) OracleResult {
	counts := make([]int, cfg.Mem.Cores)
	for i := range counts {
		counts[i] = i + 1
	}
	sweep := Sweep(RunSpec{Cfg: cfg, Factory: f}, counts)
	best := sweep[0].TotalCycles
	for _, r := range sweep[1:] {
		if r.TotalCycles < best {
			best = r.TotalCycles
		}
	}
	limit := float64(best) * (1 + tolerance)
	for i, r := range sweep {
		if float64(r.TotalCycles) <= limit {
			return OracleResult{Threads: i + 1, Run: r, Sweep: sweep}
		}
	}
	// Unreachable: the minimum itself is always within tolerance.
	return OracleResult{Threads: len(sweep), Run: sweep[len(sweep)-1], Sweep: sweep}
}
