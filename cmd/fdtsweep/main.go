// Command fdtsweep sweeps a workload across static thread counts and
// prints the baseline curve of the paper's per-workload figures —
// normalized execution time (and bus utilization) versus thread
// count — plus the point each feedback policy picks.
//
// Usage:
//
//	fdtsweep -workload ed
//	fdtsweep -workload pagemine -threads 1,2,4,8,16,32
//	fdtsweep -workload convert -bandwidth 2
//	fdtsweep -workload ed -parallel 1   # legacy serial (0 = GOMAXPROCS)
//	fdtsweep -workload ed -json sweep.json   # machine-readable output ("-" = stdout)
//	fdtsweep -workload ed -sampled           # steady-state fast-forward
//	fdtsweep -workload ed -sampled -verify   # sampled vs exact error table
//	fdtsweep -workload ed -cache-dir d/      # back the run cache with fdtd's disk store
//
// Sweep points are independent simulations; they fan out over a host
// worker pool and land in the process-wide run cache.
//
// With -sampled the sweep executes in sampled mode (DESIGN.md
// Section 11); adding -verify runs every point in both modes and
// prints a per-point cycle/power relative-error table with geometric
// means — the accuracy audit behind BENCH_PR6.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fdt/internal/core"
	"fdt/internal/machine"
	"fdt/internal/runflags"
	"fdt/internal/runner"
	"fdt/internal/stats"
	"fdt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flag errors and unknown inputs
// return 2, unwritable outputs return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "ed", "workload name")
		corun     = fs.String("corun", "", "co-schedule two workloads as \"a+b\" and sweep the mapping dimension instead of thread counts")
		mapStr    = fs.String("mapping", "", "with -corun: sweep only this mapping (packed, scattered, smt; default all valid)")
		threadStr = fs.String("threads", "", "comma-separated static thread counts (default 1..cores)")
		policies  = fs.String("policies", "sat,bat,sat+bat", "comma-separated policies to place on the curve: "+core.PolicyGrammar())
		parallel  = fs.Int("parallel", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cacheDir  = fs.String("cache-dir", "", "disk run-store directory shared with fdtd (warm runs are loaded, new runs persisted)")
		jsonPath  = fs.String("json", "", "write the sweep and policy runs as JSON to this file (\"-\" for stdout)")
		verifyAcc = fs.Bool("verify", false, "with -sampled: also run every point exactly and print the error table")
	)
	rf := runflags.Register(fs, runflags.All)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "fdtsweep:", err)
		return code
	}
	var instruments core.Opt
	if *corun != "" {
		instruments = core.OptCorun
	}
	spec, _, err := rf.Spec("", instruments)
	if err != nil {
		return fail(2, err)
	}
	runner.SetWorkers(*parallel)
	if *cacheDir != "" {
		if _, err := core.OpenRunStore(*cacheDir); err != nil {
			return fail(1, err)
		}
		defer core.DetachRunStore()
	}

	if *corun != "" {
		return runCorunSweep(spec, *corun, *mapStr, *jsonPath, stdout, stderr)
	}

	// Every policy is resolved and checked before anything simulates.
	var placed []core.RunSpec
	for _, pname := range strings.Split(*policies, ",") {
		if strings.TrimSpace(pname) == "" {
			continue
		}
		ps, note, err := rf.Spec(pname, 0)
		if err != nil {
			return fail(2, err)
		}
		if note != "" {
			fmt.Fprintln(stdout, "# note:", note)
		}
		placed = append(placed, ps)
	}
	info, ok := workloads.ByName(*workload)
	if !ok {
		return fail(2, fmt.Errorf("unknown workload %q", *workload))
	}
	counts, err := parseThreads(*threadStr, rf.Cores)
	if err != nil {
		return fail(2, err)
	}
	spec.Workload = info.Name
	spec.Factory = func(m *machine.Machine) core.Workload { return info.Factory(m) }

	sweep := core.Sweep(spec, counts)
	base := sweep[0].TotalCycles // normalize to the 1-thread run
	fmt.Fprintf(stdout, "# %s on %d cores, %.2gx bandwidth (time normalized to %d threads)\n",
		info.Name, rf.Cores, rf.Bandwidth, counts[0])
	if l := runflags.Ladder(spec); l != "" {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	fmt.Fprintf(stdout, "%8s %12s %10s %10s %10s\n", "threads", "cycles", "norm.time", "bus.util", "power")
	times := make([]uint64, len(sweep))
	for i, r := range sweep {
		times[i] = r.TotalCycles
		fmt.Fprintf(stdout, "%8d %12d %10.3f %9.1f%% %10.2f\n",
			counts[i], r.TotalCycles,
			float64(r.TotalCycles)/float64(base),
			100*float64(r.BusBusyCycles)/float64(r.TotalCycles),
			r.AvgActiveCores)
	}
	bestIdx, bestCycles := stats.ArgMinUint(times)
	fmt.Fprintf(stdout, "# minimum at %d threads (%d cycles)\n", counts[bestIdx], bestCycles)

	out := sweepJSON{
		Workload:   info.Name,
		Cores:      rf.Cores,
		Bandwidth:  rf.Bandwidth,
		Threads:    counts,
		Sweep:      sweep,
		MinThreads: counts[bestIdx],
	}

	if spec.Mode.Sampled && *verifyAcc {
		exactSpec := spec
		exactSpec.Mode = core.ExactMode()
		exact := core.Sweep(exactSpec, counts)
		fmt.Fprintf(stdout, "# sampled-vs-exact verification\n")
		fmt.Fprintf(stdout, "%8s %12s %12s %9s %8s %8s %9s %8s\n",
			"threads", "exact.cyc", "sampled.cyc", "cyc.err", "exact.pw", "smpl.pw", "pw.err", "skipped")
		var cycErrs, pwErrs []float64
		var points []verifyPoint
		for i, ex := range exact {
			sp := sweep[i]
			cycErr := relErr(float64(sp.TotalCycles), float64(ex.TotalCycles))
			pwErr := relErr(sp.AvgActiveCores, ex.AvgActiveCores)
			cycErrs = append(cycErrs, 1+absF(cycErr))
			pwErrs = append(pwErrs, 1+absF(pwErr))
			skipped := 0.0
			if sp.Sampled != nil {
				skipped = sp.Sampled.SkippedFrac()
			}
			fmt.Fprintf(stdout, "%8d %12d %12d %8.2f%% %8.2f %8.2f %8.2f%% %7.1f%%\n",
				counts[i], ex.TotalCycles, sp.TotalCycles, 100*cycErr,
				ex.AvgActiveCores, sp.AvgActiveCores, 100*pwErr, 100*skipped)
			points = append(points, verifyPoint{
				Threads: counts[i], ExactCycles: ex.TotalCycles, SampledCycles: sp.TotalCycles,
				CycleErr: cycErr, ExactPower: ex.AvgActiveCores, SampledPower: sp.AvgActiveCores,
				PowerErr: pwErr, SkippedFrac: skipped,
			})
		}
		gCyc := stats.Gmean(cycErrs) - 1
		gPw := stats.Gmean(pwErrs) - 1
		fmt.Fprintf(stdout, "# gmean |cycle err| %.3f%%, gmean |power err| %.3f%%\n", 100*gCyc, 100*gPw)
		out.Verify = &verifyJSON{Points: points, GmeanCycleErr: gCyc, GmeanPowerErr: gPw}
	}

	for _, ps := range placed {
		ps.Workload, ps.Factory = spec.Workload, spec.Factory
		r := core.Run(ps)
		out.Policies = append(out.Policies, r)
		fmt.Fprintf(stdout, "# %-8s -> ", r.Policy)
		for _, k := range r.Kernels {
			fmt.Fprintf(stdout, "[%s threads=%d", k.Kernel, k.Decision.Threads)
			if k.Decision.Freq != "" {
				fmt.Fprintf(stdout, " freq=%s", k.Decision.Freq)
			}
			fmt.Fprintf(stdout, " pcs=%d pbw=%d csfrac=%.2f%% bu1=%.2f%%] ",
				k.Decision.PCS, k.Decision.PBW,
				100*k.Decision.CSFraction, 100*k.Decision.BusUtil1)
		}
		fmt.Fprintf(stdout, "time=%.3f power=%.2f", float64(r.TotalCycles)/float64(base), r.AvgActiveCores)
		if r.Energy != nil {
			fmt.Fprintf(stdout, " energy=%.0f", r.Energy.Total)
		}
		fmt.Fprintln(stdout)
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, out, stdout); err != nil {
			return fail(1, err)
		}
	}

	hits, misses := core.RunCacheStats()
	rate := 0.0
	if hits+misses > 0 {
		rate = 100 * float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(stdout, "# [%d workers; run cache: %d hits / %d misses (%.1f%% hit rate)]\n",
		runner.Workers(), hits, misses, rate)
	if st, ok := core.RunStoreStats(); ok {
		fmt.Fprintf(stdout, "# [run store: %d loads / %d saves]\n", st.Hits, st.Puts)
	}
	return 0
}

// runCorunSweep is the -corun mode: instead of the thread dimension,
// sweep the thread-to-core mapping dimension for a co-scheduled pair.
// Every mapping row reports each tenant solo on its partition (the
// interference-free control) against the co-run, under combined
// SAT+BAT controllers.
func runCorunSweep(spec core.RunSpec, pair, mapStr, jsonPath string, stdout, stderr io.Writer) int {
	cfg, md := spec.Cfg, spec.Mode
	a, b, err := workloads.ParsePair(pair)
	if err != nil {
		fmt.Fprintln(stderr, "fdtsweep:", err)
		return 2
	}
	mappings := []machine.Mapping{machine.MapPacked, machine.MapScattered, machine.MapSMT}
	if mapStr != "" {
		mp, err := machine.ParseMapping(mapStr)
		if err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 2
		}
		mappings = []machine.Mapping{mp}
	}

	specs := []core.TeamSpec{
		{Workload: a.Name, Factory: a.Factory, Policy: core.Combined{}},
		{Workload: b.Name, Factory: b.Factory, Policy: core.Combined{}},
	}
	fmt.Fprintf(stdout, "# corun %s + %s on %d cores under sat+bat (solo runs use the same partition, empty machine)\n",
		a.Name, b.Name, cfg.Mem.Cores)
	fmt.Fprintf(stdout, "%-10s %-10s %12s %12s %9s %8s %8s %9s\n",
		"mapping", "workload", "solo.cyc", "corun.cyc", "slowdown", "thr.solo", "thr.co", "bus.share")
	out := corunSweepJSON{PairA: a.Name, PairB: b.Name, Cores: cfg.Mem.Cores}
	for _, mp := range mappings {
		co, err := core.RunCorun(cfg, mp, specs, md)
		if err != nil {
			// An invalid mapping for this config (e.g. smt without
			// planes) is only an error when explicitly requested.
			if mapStr != "" {
				fmt.Fprintln(stderr, "fdtsweep:", err)
				return 2
			}
			continue
		}
		row := corunSweepRow{Mapping: mp.String(), Makespan: co.TotalCycles, Corun: co}
		for i := range specs {
			solo, err := core.RunSolo(cfg, mp, len(specs), i, specs[i], md)
			if err != nil {
				fmt.Fprintln(stderr, "fdtsweep:", err)
				return 2
			}
			ct := co.Teams[i]
			slow := 0.0
			if solo.TotalCycles > 0 {
				slow = 100 * (float64(ct.TotalCycles)/float64(solo.TotalCycles) - 1)
			}
			fmt.Fprintf(stdout, "%-10s %-10s %12d %12d %8.1f%% %8.1f %8.1f %8.1f%%\n",
				mp, specs[i].Workload, solo.TotalCycles, ct.TotalCycles, slow,
				solo.AvgThreads(), ct.AvgThreads(), 100*ct.BusShare)
			row.Solo = append(row.Solo, solo)
		}
		out.Rows = append(out.Rows, row)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, out, stdout); err != nil {
			fmt.Fprintln(stderr, "fdtsweep:", err)
			return 1
		}
	}
	hits, misses := core.RunCacheStats()
	fmt.Fprintf(stdout, "# [run cache: %d hits / %d misses]\n", hits, misses)
	return 0
}

// corunSweepJSON is the -corun -json payload: one row per mapping
// with the co-run result and each tenant's solo control.
type corunSweepJSON struct {
	PairA string          `json:"pair_a"`
	PairB string          `json:"pair_b"`
	Cores int             `json:"cores"`
	Rows  []corunSweepRow `json:"rows"`
}

type corunSweepRow struct {
	Mapping  string            `json:"mapping"`
	Makespan uint64            `json:"makespan"`
	Corun    core.CorunResult  `json:"corun"`
	Solo     []core.TeamResult `json:"solo"`
}

// sweepJSON is fdtsweep's machine-readable output: the full RunResult
// of every sweep point and policy run.
type sweepJSON struct {
	Workload   string           `json:"workload"`
	Cores      int              `json:"cores"`
	Bandwidth  float64          `json:"bandwidth"`
	Threads    []int            `json:"threads"`
	Sweep      []core.RunResult `json:"sweep"`
	MinThreads int              `json:"min_threads"`
	Policies   []core.RunResult `json:"policies,omitempty"`
	Verify     *verifyJSON      `json:"verify,omitempty"`
}

// verifyJSON is the -sampled -verify accuracy audit: per-point
// exact-vs-sampled comparison plus error geometric means.
type verifyJSON struct {
	Points        []verifyPoint `json:"points"`
	GmeanCycleErr float64       `json:"gmean_cycle_err"`
	GmeanPowerErr float64       `json:"gmean_power_err"`
}

type verifyPoint struct {
	Threads       int     `json:"threads"`
	ExactCycles   uint64  `json:"exact_cycles"`
	SampledCycles uint64  `json:"sampled_cycles"`
	CycleErr      float64 `json:"cycle_err"`
	ExactPower    float64 `json:"exact_power"`
	SampledPower  float64 `json:"sampled_power"`
	PowerErr      float64 `json:"power_err"`
	SkippedFrac   float64 `json:"skipped_frac"`
}

// relErr is (got-want)/want, signed.
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got - want) / want
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func writeJSON(path string, v any, stdout io.Writer) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func parseThreads(s string, cores int) ([]int, error) {
	if s == "" {
		out := make([]int, cores)
		for i := range out {
			out[i] = i + 1
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
