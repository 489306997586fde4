// Command fdtsim runs one workload on the simulated 32-core CMP under
// one threading policy and prints a report: execution time, average
// active cores (the paper's power metric), per-kernel FDT decisions
// and the verification verdict.
//
// Usage:
//
//	fdtsim -workload pagemine -policy sat+bat
//	fdtsim -workload ed -policy static:8
//	fdtsim -workload convert -policy bat -bandwidth 0.5
//	fdtsim -workload ed -policy bat -trace ed.trace.json
//	fdtsim -workload isort -check
//	fdtsim -workload ep -policy hillclimb
//	fdtsim -workload ed -sampled             # steady-state fast-forward
//	fdtsim -list
//
// Sampled mode (-sampled, tuned by -sample-tol and -sample-window)
// extrapolates through steady-state kernel regions; see DESIGN.md
// Section 11. Invariant checking (-check) and tracing need every
// cycle simulated, so they force exact execution with a note.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fdt/internal/core"
	"fdt/internal/invariant"
	"fdt/internal/machine"
	"fdt/internal/runflags"
	"fdt/internal/trace"
	"fdt/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body: flag errors and unknown inputs
// return 2, simulation-level failures (verification, violated
// invariants, unwritable outputs) return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "pagemine", "workload name (see -list)")
		corun     = fs.String("corun", "", "co-schedule two workloads as \"a+b\" (overrides -workload; see -list)")
		mapping   = fs.String("mapping", "packed", "thread-to-core mapping for -corun: packed, scattered, smt")
		policy    = fs.String("policy", "sat+bat", "threading policy: "+core.PolicyGrammar())
		verify    = fs.Bool("verify", true, "verify the workload's computed results")
		list      = fs.Bool("list", false, "list workloads and exit")
		dumpCtrs  = fs.Bool("counters", false, "dump the machine's counter set")
		sparkline = fs.Bool("sparkline", false, "sample the run and print bus/active-core sparklines")
		traceOut  = fs.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto)")
		check     = fs.Bool("check", false, "arm the runtime invariant checker (conservation, queueing, coherence, controller equations)")
	)
	rf := runflags.Register(fs, runflags.All)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var instruments core.Opt
	if *check {
		instruments |= core.OptCheck
	}
	if *traceOut != "" {
		instruments |= core.OptTrace
	}
	if *corun != "" {
		instruments |= core.OptCorun
	}
	spec, note, err := rf.Spec(*policy, instruments)
	if err != nil {
		fmt.Fprintln(stderr, "fdtsim:", err)
		return 2
	}

	if *list {
		printList(stdout)
		return 0
	}

	var info workloads.Info
	if *corun == "" {
		var ok bool
		info, ok = workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "fdtsim: unknown workload %q (try -list)\n", *workload)
			return 2
		}
	}
	if note != "" {
		fmt.Fprintln(stdout, "note:", note)
	}

	// Observers attach to the run's fresh machine before the workload
	// is built.
	var (
		m       *machine.Machine
		samples *machine.SampleLog
		tr      *trace.Tracer
		ck      *invariant.Checker
	)
	instrument := func(mm *machine.Machine) {
		m = mm
		if *sparkline {
			samples = m.StartSampler(0)
		}
		if *traceOut != "" {
			tr = trace.New(1<<19, trace.CatMem|trace.CatSync|trace.CatCtl)
			m.AttachTracer(tr)
		}
		if *check {
			ck = invariant.New()
			m.AttachChecker(ck)
		}
	}

	if *corun != "" {
		instrument(machine.MustNew(spec.Cfg))
		return runCorun(m, *corun, *mapping, spec, *verify, *dumpCtrs, ck, samples, stdout, stderr)
	}

	// Plain runs go through the keyed run cache so repeated invocations
	// in one process (and the experiment figures) share the simulation;
	// instrumented runs (sparklines, tracing, invariants, counter dumps)
	// must simulate on the machine the observers watch.
	var w core.Workload
	spec.Factory = func(mm *machine.Machine) core.Workload {
		instrument(mm)
		w = info.Factory(mm)
		return w
	}
	if !(*sparkline || *traceOut != "" || *check || *dumpCtrs) {
		spec.Workload = info.Name
	}
	res := core.Run(spec)

	fmt.Fprintf(stdout, "workload   %s (%s)\n", res.Workload, info.Class)
	fmt.Fprintf(stdout, "policy     %s\n", res.Policy)
	if l := runflags.Ladder(spec); l != "" {
		fmt.Fprintf(stdout, "machine    %d cores, %.2gx bandwidth, %s\n", rf.Cores, rf.Bandwidth, l)
	} else {
		fmt.Fprintf(stdout, "machine    %d cores, %.2gx bandwidth\n", rf.Cores, rf.Bandwidth)
	}
	fmt.Fprintf(stdout, "exec time  %d cycles\n", res.TotalCycles)
	fmt.Fprintf(stdout, "power      %.2f avg active cores\n", res.AvgActiveCores)
	if e := res.Energy; e != nil {
		fmt.Fprintf(stdout, "energy     %.0f core-cycles (%.2f avg chip power, table-driven)\n", e.Total, e.AvgPower)
	}
	fmt.Fprintf(stdout, "bus busy   %d cycles (%.1f%% of run)\n",
		res.BusBusyCycles, 100*float64(res.BusBusyCycles)/float64(res.TotalCycles))
	fmt.Fprintf(stdout, "avgthreads %.1f\n", res.AvgThreads())
	for _, k := range res.Kernels {
		d := k.Decision
		freq := ""
		if d.Freq != "" {
			freq = " freq=" + d.Freq
		}
		fmt.Fprintf(stdout, "kernel %-22s threads=%-3d%s pcs=%-3d pbw=%-3d csfrac=%.3f%% bu1=%.2f%% train=%d iters (%d cyc) total=%d cyc\n",
			k.Kernel, d.Threads, freq, d.PCS, d.PBW, 100*d.CSFraction, 100*d.BusUtil1, k.TrainIters, k.TrainCycles, k.Cycles)
	}
	if s := res.Sampled; s != nil {
		fmt.Fprintf(stdout, "sampled    %d detailed + %d skipped iters (%.1f%% skipped), %d fast-forwards, %d re-entries, %d cycles extrapolated\n",
			s.DetailedIters, s.SkippedIters, 100*s.SkippedFrac(), s.FastForwards, s.Reentries, s.SkippedCycles)
	}

	if *dumpCtrs {
		fmt.Fprintf(stdout, "counters   %s\n", m.Ctrs)
	}
	if samples != nil {
		fmt.Fprintln(stdout, samples)
	}
	if tr != nil {
		meta := map[string]string{
			"workload":     res.Workload,
			"policy":       res.Policy,
			"cores":        fmt.Sprintf("%d", rf.Cores),
			"bandwidth":    fmt.Sprintf("%g", rf.Bandwidth),
			"total_cycles": fmt.Sprintf("%d", res.TotalCycles),
		}
		if err := writeChromeFile(*traceOut, tr, meta); err != nil {
			fmt.Fprintln(stderr, "fdtsim:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace      %d events (%d dropped) -> %s\n", tr.Len(), tr.Dropped(), *traceOut)
	}
	if *check {
		fmt.Fprintf(stdout, "invariants %s\n", ck.Report())
		if err := ck.Err(); err != nil {
			fmt.Fprintln(stderr, "fdtsim:", err)
			return 1
		}
	}

	if *verify {
		if res.Sampled != nil {
			// Fast-forwarded iterations never execute their host-side
			// computation, so the workload's arrays are incomplete by
			// construction — result verification only means something
			// on an exact run.
			fmt.Fprintln(stdout, "verify     skipped (sampled run: extrapolated iterations compute no results)")
		} else if v, ok := w.(workloads.Verifier); ok {
			if err := v.Verify(); err != nil {
				fmt.Fprintf(stdout, "verify     FAIL: %v\n", err)
				return 1
			}
			fmt.Fprintln(stdout, "verify     ok")
		} else {
			fmt.Fprintln(stdout, "verify     (workload has no verifier)")
		}
	}
	return 0
}

func writeChromeFile(path string, tr *trace.Tracer, meta map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, tr, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCorun executes a co-scheduled pair — each workload its own
// thread team under the mapping, each with an independent controller
// of the requested policy — and prints the makespan plus a per-tenant
// report.
func runCorun(m *machine.Machine, pair, mapping string, spec core.RunSpec,
	verify, dumpCtrs bool, ck *invariant.Checker, samples *machine.SampleLog, stdout, stderr io.Writer) int {
	a, b, err := workloads.ParsePair(pair)
	if err != nil {
		fmt.Fprintf(stderr, "fdtsim: %v (try -list)\n", err)
		return 2
	}
	mp, err := machine.ParseMapping(mapping)
	if err != nil {
		fmt.Fprintln(stderr, "fdtsim:", err)
		return 2
	}

	// Wrap the factories to keep the built instances for -verify
	// (RunCorunOn instantiates them serially). The conflict table has
	// already rejected the probing drivers, so the driver is a
	// Controller.
	ctl := spec.Driver.(*core.Controller)
	var built []core.Workload
	team := func(info workloads.Info) core.TeamSpec {
		return core.TeamSpec{
			Workload: info.Name,
			Factory: func(mm *machine.Machine) core.Workload {
				w := info.Factory(mm)
				built = append(built, w)
				return w
			},
			Policy:  ctl.Policy,
			Monitor: ctl.Monitor,
		}
	}
	res, err := core.RunCorunOn(m, mp, []core.TeamSpec{team(a), team(b)}, spec.Mode)
	if err != nil {
		fmt.Fprintln(stderr, "fdtsim:", err)
		return 2
	}

	fmt.Fprintf(stdout, "corun      %s + %s (mapping %s)\n", a.Name, b.Name, res.Mapping)
	fmt.Fprintf(stdout, "policy     %s\n", ctl.Policy.Name())
	fmt.Fprintf(stdout, "machine    %d cores\n", m.Cfg.Mem.Cores)
	fmt.Fprintf(stdout, "makespan   %d cycles\n", res.TotalCycles)
	fmt.Fprintf(stdout, "power      %.2f avg active cores (whole machine)\n", res.AvgActiveCores)
	fmt.Fprintf(stdout, "bus busy   %d cycles (%.1f%% of makespan)\n",
		res.BusBusyCycles, 100*float64(res.BusBusyCycles)/float64(res.TotalCycles))
	for _, t := range res.Teams {
		fmt.Fprintf(stdout, "team %-14s time=%-10d power=%-6.2f avgthreads=%-5.1f bus share=%.1f%%\n",
			t.Team, t.TotalCycles, t.AvgActiveCores, t.AvgThreads(), 100*t.BusShare)
		for _, k := range t.Kernels {
			d := k.Decision
			fmt.Fprintf(stdout, "  kernel %-20s threads=%-3d pcs=%-3d pbw=%-3d csfrac=%.3f%% bu1=%.2f%% train=%d iters (%d cyc) total=%d cyc\n",
				k.Kernel, d.Threads, d.PCS, d.PBW, 100*d.CSFraction, 100*d.BusUtil1, k.TrainIters, k.TrainCycles, k.Cycles)
		}
	}

	if dumpCtrs {
		fmt.Fprintf(stdout, "counters   %s\n", m.Ctrs)
	}
	if samples != nil {
		fmt.Fprintln(stdout, samples)
	}
	if ck != nil {
		fmt.Fprintf(stdout, "invariants %s\n", ck.Report())
		if err := ck.Err(); err != nil {
			fmt.Fprintln(stderr, "fdtsim:", err)
			return 1
		}
	}
	if verify {
		sampled := false
		for _, t := range res.Teams {
			if t.Sampled != nil {
				sampled = true
			}
		}
		if sampled {
			fmt.Fprintln(stdout, "verify     skipped (sampled run: extrapolated iterations compute no results)")
		} else {
			for _, w := range built {
				if v, ok := w.(workloads.Verifier); ok {
					if err := v.Verify(); err != nil {
						fmt.Fprintf(stdout, "verify     %s FAIL: %v\n", w.Name(), err)
						return 1
					}
					fmt.Fprintf(stdout, "verify     %s ok\n", w.Name())
				} else {
					fmt.Fprintf(stdout, "verify     %s (no verifier)\n", w.Name())
				}
			}
		}
	}
	return 0
}

// printList renders the full `fdtsim -list` inventory: workloads,
// synthetic extras, combinators, policies, mappings and execution
// modes.
func printList(stdout io.Writer) {
	fmt.Fprintln(stdout, "WORKLOADS (Table 2)")
	fmt.Fprintf(stdout, "  %-10s %-12s %-28s %s\n", "NAME", "CLASS", "PROBLEM", "INPUT")
	for _, info := range workloads.All() {
		fmt.Fprintf(stdout, "  %-10s %-12s %-28s %s\n", info.Name, info.Class, info.Problem, info.Input)
	}
	fmt.Fprintln(stdout, "\nEXTRAS (synthetic, outside Table 2)")
	for _, info := range workloads.Extras() {
		if strings.HasPrefix(info.Name, "gauntlet/") {
			continue
		}
		fmt.Fprintf(stdout, "  %-10s %-12s %-28s %s\n", info.Name, info.Class, info.Problem, info.Input)
	}
	fmt.Fprintln(stdout, "\nGAUNTLET (adversarial robustness family; run with -workload gauntlet/<member>)")
	for _, gm := range workloads.GauntletMembers() {
		fmt.Fprintf(stdout, "  %-18s breaks: %s\n", gm.Name, gm.Breaks)
	}
	fmt.Fprintln(stdout, "\nCOMBINATORS")
	fmt.Fprintf(stdout, "  %-10s %s\n", "corun", "co-schedule two workloads as concurrent teams: -corun a+b (e.g. pagemine+mg)")
	fmt.Fprintln(stdout, "\nPOLICIES (-policy)")
	for _, p := range core.PolicyList() {
		fmt.Fprintf(stdout, "  %-10s %s\n", p[0], p[1])
	}
	fmt.Fprintln(stdout, "\nMAPPINGS (-mapping, with -corun)")
	for _, mp := range machine.Mappings() {
		fmt.Fprintf(stdout, "  %-10s %s\n", mp, mp.Describe())
	}
	fmt.Fprintln(stdout, "\nMODES")
	fmt.Fprintf(stdout, "  %-10s %s\n", "exact", "every cycle simulated (default)")
	fmt.Fprintf(stdout, "  %-10s %s\n", "sampled", "steady-state fast-forward: -sampled, tuned by -sample-tol/-sample-window")
}
