package experiments

import (
	"fmt"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runner"
)

// The Pareto experiment charts the power/performance frontier of
// power-budgeted threading on a DVFS machine — the PR 10 extension of
// the paper's Figure 14/15 power story. Three comparators run at each
// budget level:
//
//   - FDT+DVFS: the combined policy with the full (threads, frequency)
//     search — Eq. 3/5/7 re-evaluated per P-state, budget-clamped.
//   - fixed-freq FDT: the same policy locked to the nominal state, so
//     the budget can only shed threads — the paper's FDT under a
//     power cap.
//   - static oracle: the best (threads, P-state) static grid point
//     whose MEASURED average power fits the budget — what an offline
//     exhaustive search would pick.
//
// The headline claim (asserted by shape.Assertions): at every tested
// budget at or below 75% of unconstrained peak power, FDT+DVFS weakly
// dominates fixed-frequency FDT — trading frequency for threads never
// loses, because the frequency dimension strictly enlarges the
// feasible set.

// ParetoWorkloads are the charted workloads: one synchronization-
// limited (pagemine), one bandwidth-limited (ed), one scalable (mg).
var ParetoWorkloads = []string{"pagemine", "ed", "mg"}

// ParetoBudgetFracs are the tested budget levels as fractions of each
// workload's unconstrained peak power, descending.
var ParetoBudgetFracs = []float64{1.0, 0.75, 0.5, 0.35}

// paretoCores is the charted machine size. 16 cores keeps the full
// grid (threads × P-states, per workload) affordable while leaving
// the budget clamp a wide range to bite over.
const paretoCores = 16

// paretoGridThreads is the static oracle's thread grid.
var paretoGridThreads = []int{1, 2, 3, 4, 6, 8, 12, 16}

// ParetoPoint is one policy's placement at one budget level.
type ParetoPoint struct {
	Policy string
	// Cycles is the measured execution time; AvgPower and Energy the
	// measured table-driven averages (idle draw included).
	Cycles   uint64
	AvgPower float64
	Energy   float64
	// Threads and Freq are the headline decision (first kernel); the
	// oracle reports its grid point.
	Threads int
	Freq    string
}

// ParetoRow is one budget level's comparison.
type ParetoRow struct {
	// BudgetFrac is the level as a fraction of peak; Budget the
	// absolute cap in nominal-active-core units.
	BudgetFrac float64
	Budget     float64
	DVFS       ParetoPoint
	Fixed      ParetoPoint
	Oracle     ParetoPoint
}

// ParetoFrontier is one workload's frontier.
type ParetoFrontier struct {
	Workload string
	// Peak is the unconstrained static-all average chip power the
	// budget fractions are anchored to.
	Peak float64
	Rows []ParetoRow
}

// Pareto is the full experiment result.
type Pareto struct {
	Frontiers []ParetoFrontier
}

// paretoOptions pins the experiment's machine — the Table-1 memory
// system at 16 cores with the default P-state ladder — and forces
// exact execution like the gauntlet does: the frontier's budget and
// energy claims are wall-clock-exact accounting identities, so the
// chart is mode-independent by construction rather than re-derived
// per execution mode.
func paretoOptions(o Options) Options {
	o.Cfg = o.Cfg.WithCores(paretoCores).WithFreq(machine.DefaultLadder())
	o.Mode = core.ExactMode()
	return o
}

// runBudget executes (or recalls) a workload under a policy with
// explicit power parameters through the run cache.
func runBudget(o Options, name string, pol core.Policy, pp core.PowerParams) core.RunResult {
	s := o.spec(name, core.NewController(pol))
	s.Power = &pp
	r := core.Run(s)
	o.emit(ProgressEvent{Workload: name, Policy: r.Policy, Cycles: r.TotalCycles, Total: 1})
	return r
}

// paretoPoint condenses a run into its frontier placement.
func paretoPoint(label string, r core.RunResult) ParetoPoint {
	p := ParetoPoint{Policy: label, Cycles: r.TotalCycles}
	if r.Energy != nil {
		p.AvgPower = r.Energy.AvgPower
		p.Energy = r.Energy.Total
	}
	if len(r.Kernels) > 0 {
		p.Threads = r.Kernels[0].Decision.Threads
		p.Freq = r.Kernels[0].Decision.Freq
	}
	return p
}

// RunPareto executes the experiment, one parallel frontier per
// workload.
func RunPareto(o Options) Pareto {
	o = paretoOptions(o)
	var f Pareto
	f.Frontiers = make([]ParetoFrontier, len(ParetoWorkloads))
	runner.Map(len(ParetoWorkloads), func(i int) {
		f.Frontiers[i] = runParetoFrontier(o, ParetoWorkloads[i])
	})
	return f
}

// runParetoFrontier builds one workload's frontier: measure peak,
// then place the three comparators at every budget level.
func runParetoFrontier(o Options, name string) ParetoFrontier {
	fr := ParetoFrontier{Workload: name}

	// Peak: the unconstrained all-cores nominal run — the power the
	// budget fractions are anchored to. LockState 0 keeps the machine
	// at nominal exactly like the pre-DVFS baseline.
	peak := runBudget(o, name, core.Static{}, core.PowerParams{Budget: 0, LockState: 0})
	if peak.Energy != nil {
		fr.Peak = peak.Energy.AvgPower
	}

	// The static oracle grid is budget-independent: measure every
	// (threads, P-state) point once, filter per budget below. Grid
	// points fan out over the worker pool via the run cache.
	type gridRun struct {
		threads int
		state   int
		run     core.RunResult
	}
	states := len(o.Cfg.Freq.States)
	grid := make([]gridRun, 0, len(paretoGridThreads)*states)
	for _, n := range paretoGridThreads {
		for s := 0; s < states; s++ {
			grid = append(grid, gridRun{threads: n, state: s})
		}
	}
	runner.Map(len(grid), func(i int) {
		g := &grid[i]
		g.run = runBudget(o, name, core.Static{N: g.threads}, core.PowerParams{Budget: 0, LockState: g.state})
	})

	for _, frac := range ParetoBudgetFracs {
		budget := frac * fr.Peak
		row := ParetoRow{BudgetFrac: frac, Budget: budget}

		dvfs := runBudget(o, name, core.Combined{}, core.PowerParams{Budget: budget, LockState: -1})
		row.DVFS = paretoPoint("fdt+dvfs", dvfs)

		fixed := runBudget(o, name, core.Combined{}, core.PowerParams{Budget: budget, LockState: 0})
		row.Fixed = paretoPoint("fdt@nominal", fixed)

		// Oracle: fastest grid point whose measured power fits the
		// budget. Some point always fits in practice (one thread at
		// the lowest state); if none does, the oracle point stays
		// zero-valued and the shape assertions flag it.
		best := -1
		for i, g := range grid {
			if g.run.Energy == nil || g.run.Energy.AvgPower > budget {
				continue
			}
			if best < 0 || g.run.TotalCycles < grid[best].run.TotalCycles {
				best = i
			}
		}
		if best >= 0 {
			g := grid[best]
			row.Oracle = paretoPoint("oracle", g.run)
			row.Oracle.Threads = g.threads
			row.Oracle.Freq = o.Cfg.Freq.States[g.state].Name
		}

		fr.Rows = append(fr.Rows, row)
	}
	return fr
}

// Frontier finds one workload's frontier by name.
func (f Pareto) Frontier(workload string) (ParetoFrontier, bool) {
	for _, fr := range f.Frontiers {
		if fr.Workload == workload {
			return fr, true
		}
	}
	return ParetoFrontier{}, false
}

// String renders the experiment.
func (f Pareto) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pareto: power-budgeted (threads, frequency) co-optimization (%d cores, %d P-states)\n",
		paretoCores, len(machine.DefaultLadder().States))
	for _, fr := range f.Frontiers {
		fmt.Fprintf(&b, " %s (peak power %.2f):\n", fr.Workload, fr.Peak)
		fmt.Fprintf(&b, "  %-7s %-9s | %-28s | %-28s | %s\n",
			"budget", "(abs)", "FDT+DVFS", "FDT@nominal", "oracle")
		for _, r := range fr.Rows {
			fmt.Fprintf(&b, "  %-7.2f %-9.2f | %s | %s | %s\n",
				r.BudgetFrac, r.Budget, fmtParetoPoint(r.DVFS), fmtParetoPoint(r.Fixed), fmtParetoPoint(r.Oracle))
		}
	}
	return b.String()
}

func fmtParetoPoint(p ParetoPoint) string {
	return fmt.Sprintf("%9dcy %5.2fpw %2dt %-5s", p.Cycles, p.AvgPower, p.Threads, p.Freq)
}

// CSV renders the frontier table.
func (f Pareto) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload,budget_frac,budget,policy,cycles,avg_power,energy,threads,freq\n")
	for _, fr := range f.Frontiers {
		for _, r := range fr.Rows {
			for _, p := range []ParetoPoint{r.DVFS, r.Fixed, r.Oracle} {
				fmt.Fprintf(&b, "%s,%.2f,%.4f,%s,%d,%.4f,%.1f,%d,%s\n",
					fr.Workload, r.BudgetFrac, r.Budget, p.Policy, p.Cycles, p.AvgPower, p.Energy, p.Threads, p.Freq)
			}
		}
	}
	return b.String()
}
