// Machine-configuration adaptation (the paper's Section 5.4): the
// thread count that saturates the off-chip bus depends on the
// machine's bandwidth. BAT measures utilization at runtime, so the
// same binary picks few threads on a narrow-bus machine and many on a
// wide one — a static choice tuned for one machine wastes power or
// performance on the other.
//
//	go run ./examples/bandwidth
package main

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

func main() {
	info, _ := workloads.ByName("convert")
	factory := func(m *machine.Machine) core.Workload { return info.Factory(m) }

	fmt.Println("BAT on machines with different off-chip bandwidth (convert)")
	fmt.Printf("  %-12s %8s %10s %12s %8s\n", "machine", "BU1", "BAT->", "exec cycles", "power")
	for _, scale := range []float64{0.5, 1, 2} {
		cfg := machine.DefaultConfig().WithBandwidth(scale)
		r := core.Run(core.RunSpec{Cfg: cfg, Factory: factory, Driver: core.NewController(core.BAT{})})
		d := r.Kernels[0].Decision
		fmt.Printf("  %-12s %7.1f%% %10d %12d %8.2f\n",
			fmt.Sprintf("%.2gx bus", scale), 100*d.BusUtil1, d.Threads,
			r.TotalCycles, r.AvgActiveCores)
	}
	fmt.Println("\nHalving the bus doubles a thread's measured utilization, so")
	fmt.Println("BAT halves the team; doubling it does the reverse — no")
	fmt.Println("recompilation, no profiling, just the training loop's counters.")
}
