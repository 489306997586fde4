// PageMine input-set adaptation (the paper's Section 4.4): the best
// thread count for the same program changes with the page size, and
// SAT — because it trains at runtime — tracks it, while any static
// choice is only right for one input.
//
//	go run ./examples/pagemine
package main

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/workloads"
)

func main() {
	cfg := machine.DefaultConfig()
	fmt.Println("SAT vs static threading across PageMine page sizes")
	fmt.Printf("  %-10s %6s %14s %14s %14s\n",
		"page size", "SAT->", "SAT cycles", "static-4", "static-16")

	for _, pageBytes := range []int{1 << 10, 2560, 5280, 10 << 10, 20 << 10} {
		params := workloads.DefaultPageMineParams()
		params.PageBytes = pageBytes
		// Keep total input size roughly constant so runs are comparable.
		params.Pages = 200 * 5280 / pageBytes

		factory := func(m *machine.Machine) core.Workload {
			return workloads.NewPageMine(m, params)
		}
		run := func(pol core.Policy) core.RunResult {
			return core.Run(core.RunSpec{Cfg: cfg, Factory: factory, Driver: core.NewController(pol)})
		}
		sat, s4, s16 := run(core.SAT{}), run(core.Static{N: 4}), run(core.Static{N: 16})

		fmt.Printf("  %-10s %6d %14d %14d %14d\n",
			fmt.Sprintf("%dB", pageBytes),
			sat.Kernels[0].Decision.Threads,
			sat.TotalCycles, s4.TotalCycles, s16.TotalCycles)
	}
	fmt.Println("\nSmall pages: merging histograms dominates, SAT stays low;")
	fmt.Println("large pages: parallel work dominates, SAT scales up. The")
	fmt.Println("static columns are each only competitive on part of the range.")
}
