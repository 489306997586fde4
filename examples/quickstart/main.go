// Quickstart: run one workload on the simulated 32-core CMP under
// conventional threading (as many threads as cores) and under
// Feedback-Driven Threading (SAT+BAT), and compare execution time and
// power.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

func main() {
	// The Table-1 machine: 32 in-order cores, private L1/L2, shared
	// banked L3 on a ring, split-transaction off-chip bus, 32 DRAM
	// banks.
	cfg := machine.DefaultConfig()

	// PageMine — the paper's motivating kernel: a data-mining loop
	// whose per-page histogram merge serializes in a critical
	// section.
	info, _ := workloads.ByName("pagemine")
	factory := func(m *machine.Machine) core.Workload { return info.Factory(m) }

	// Conventional threading: one thread per core.
	run := func(pol core.Policy) core.RunResult {
		return core.Run(core.RunSpec{Cfg: cfg, Factory: factory, Driver: core.NewController(pol)})
	}
	conventional := run(core.Static{})

	// Feedback-Driven Threading: train on a few iterations, read the
	// cycle and bus counters, apply the SAT and BAT models, execute
	// the rest on min(P_CS, P_BW, cores) threads.
	fdt := run(core.Combined{})

	fmt.Println("PageMine on the simulated 32-core CMP")
	fmt.Printf("  %-22s %12s %8s\n", "policy", "exec cycles", "power")
	fmt.Printf("  %-22s %12d %8.2f\n", conventional.Policy, conventional.TotalCycles, conventional.AvgActiveCores)
	fmt.Printf("  %-22s %12d %8.2f\n", fdt.Policy, fdt.TotalCycles, fdt.AvgActiveCores)

	d := fdt.Kernels[0].Decision
	fmt.Printf("\nFDT trained %d iterations, measured a critical-section fraction of %.2f%%\n",
		fdt.Kernels[0].TrainIters, 100*d.CSFraction)
	fmt.Printf("and bus utilization of %.2f%%, and chose %d threads (P_CS=%d, P_BW=%d).\n",
		100*d.BusUtil1, d.Threads, d.PCS, d.PBW)
	fmt.Printf("\nSpeedup %.2fx, power reduced %.0f%%.\n",
		float64(conventional.TotalCycles)/float64(fdt.TotalCycles),
		100*(1-fdt.AvgActiveCores/conventional.AvgActiveCores))
}
