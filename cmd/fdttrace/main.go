// Command fdttrace runs one registered workload on the simulated CMP
// under any threading policy with the trace subsystem armed, and
// writes the captured trace out: Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing) and, optionally, a plain-text
// per-resource utilization timeline.
//
// Usage:
//
//	fdttrace -workload phaseshift -policy adaptive
//	fdttrace -workload pagemine -policy sat+bat -o pagemine.trace.json
//	fdttrace -workload ed -policy static:8 -timeline ed.timeline.txt
//	fdttrace -workload convert -policy bat -events all -buf 1048576
//	fdttrace -workload isort -check
//	fdttrace -list
//
// The exported JSON has one track per core, the off-chip bus, each
// DRAM bank, plus the controller-decision track; open it in
// https://ui.perfetto.dev. Ring-buffer overflow is reported on stderr
// and recorded in the trace metadata (events_dropped) — a truncated
// trace always says so.
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
// return 2, write failures and violated invariants return 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdttrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "phaseshift", "workload name (see -list)")
		corun    = fs.String("corun", "", "trace two co-scheduled workloads as \"a+b\" (overrides -workload)")
		mapping  = fs.String("mapping", "packed", "thread-to-core mapping for -corun: packed, scattered, smt")
		policy   = fs.String("policy", "adaptive", "threading policy: "+core.PolicyGrammar())
		out      = fs.String("o", "trace.json", "Chrome trace-event JSON output path")
		timeline = fs.String("timeline", "", "also write a plain-text utilization timeline to this path")
		interval = fs.Uint64("interval", 10000, "timeline bin width in cycles")
		events   = fs.String("events", "mem,sync,ctl", "traced categories, comma-separated: sim, mem, sync, ctl (or all)")
		bufCap   = fs.Int("buf", 1<<19, "trace ring-buffer capacity in events (newest kept on overflow)")
		list     = fs.Bool("list", false, "list workloads and exit")
		check    = fs.Bool("check", false, "arm the runtime invariant checker (conservation, queueing, coherence, controller equations)")
	)
	rf := runflags.Register(fs, runflags.Machine|runflags.Sampled|runflags.Power)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	instruments := core.OptTrace
	if *check {
		instruments |= core.OptCheck
	}
	if *corun != "" {
		instruments |= core.OptCorun
	}
	spec, note, err := rf.Spec(*policy, instruments)
	if err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 2
	}
	if note != "" {
		fmt.Fprintln(stdout, "note:", note)
	}

	if *list {
		fmt.Fprintf(stdout, "%-10s %-12s %-28s %s\n", "NAME", "CLASS", "PROBLEM", "INPUT")
		for _, info := range workloads.All() {
			fmt.Fprintf(stdout, "%-10s %-12s %-28s %s\n", info.Name, info.Class, info.Problem, info.Input)
		}
		for _, info := range workloads.Extras() {
			fmt.Fprintf(stdout, "%-10s %-12s %-28s %s\n", info.Name, info.Class, info.Problem, info.Input)
		}
		return 0
	}

	var info workloads.Info
	if *corun == "" {
		var ok bool
		info, ok = workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "fdttrace: unknown workload %q (try -list)\n", *workload)
			return 2
		}
	}
	mask, err := parseCategories(*events)
	if err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 2
	}

	tr := trace.New(*bufCap, mask)
	var ck *invariant.Checker
	instrument := func(m *machine.Machine) {
		m.AttachTracer(tr)
		if *check {
			ck = invariant.New()
			m.AttachChecker(ck)
		}
	}
	var res core.RunResult
	meta := map[string]string{
		"cores":     fmt.Sprintf("%d", rf.Cores),
		"bandwidth": fmt.Sprintf("%g", rf.Bandwidth),
	}
	if !spec.Cfg.Freq.Trivial() {
		meta["budget"] = fmt.Sprintf("%g", rf.PowerBudget)
		meta["ladder"] = spec.Cfg.Freq.Key()
	}
	if *corun != "" {
		a, b, err := workloads.ParsePair(*corun)
		if err != nil {
			fmt.Fprintf(stderr, "fdttrace: %v (try -list)\n", err)
			return 2
		}
		mp, err := machine.ParseMapping(*mapping)
		if err != nil {
			fmt.Fprintln(stderr, "fdttrace:", err)
			return 2
		}
		// The conflict table has already rejected the probing drivers,
		// so the driver is a Controller.
		ctl := spec.Driver.(*core.Controller)
		team := func(i workloads.Info) core.TeamSpec {
			return core.TeamSpec{Workload: i.Name, Factory: i.Factory, Policy: ctl.Policy, Monitor: ctl.Monitor}
		}
		m := machine.MustNew(spec.Cfg)
		instrument(m)
		co, err := core.RunCorunOn(m, mp, []core.TeamSpec{team(a), team(b)}, spec.Mode)
		if err != nil {
			fmt.Fprintln(stderr, "fdttrace:", err)
			return 2
		}
		meta["corun"] = a.Name + "+" + b.Name
		meta["mapping"] = co.Mapping
		meta["policy"] = policyLabel(spec, co.Teams[0].Policy)
		meta["total_cycles"] = fmt.Sprintf("%d", co.TotalCycles)
		res = co.Teams[0].RunResult
		res.Workload = a.Name + "+" + b.Name
		res.TotalCycles = co.TotalCycles
		res.AvgActiveCores = co.AvgActiveCores
		for _, t := range co.Teams[1:] {
			res.Kernels = append(res.Kernels, t.Kernels...)
		}
	} else {
		spec.Factory = func(m *machine.Machine) core.Workload {
			instrument(m)
			return info.Factory(m)
		}
		res = core.Run(spec)
		meta["workload"] = res.Workload
		meta["policy"] = policyLabel(spec, res.Policy)
		meta["total_cycles"] = fmt.Sprintf("%d", res.TotalCycles)
	}
	if err := writeChromeFile(*out, tr, meta); err != nil {
		fmt.Fprintln(stderr, "fdttrace:", err)
		return 1
	}
	if *timeline != "" {
		if err := writeTimelineFile(*timeline, tr, *interval); err != nil {
			fmt.Fprintln(stderr, "fdttrace:", err)
			return 1
		}
	}

	fmt.Fprintf(stdout, "workload   %s under %s: %d cycles, %.2f avg active cores\n",
		res.Workload, policyLabel(spec, res.Policy), res.TotalCycles, res.AvgActiveCores)
	if res.Energy != nil {
		fmt.Fprintf(stdout, "energy     %.0f core-cycles (%.2f avg chip power, table-driven)\n",
			res.Energy.Total, res.Energy.AvgPower)
	}
	for _, k := range res.Kernels {
		if k.Retrains > 0 {
			fmt.Fprintf(stdout, "kernel     %s: %d phases (%d retrains)\n", k.Kernel, len(k.Phases), k.Retrains)
		}
	}
	fmt.Fprintf(stdout, "trace      %d events captured (%d emitted, %d dropped; categories %s) -> %s\n",
		tr.Len(), tr.Emitted(), tr.Dropped(), mask, *out)
	if *timeline != "" {
		fmt.Fprintf(stdout, "timeline   interval %d cycles -> %s\n", *interval, *timeline)
	}
	if tr.Dropped() > 0 {
		fmt.Fprintf(stderr, "fdttrace: ring buffer overflowed: %d events dropped (oldest first); raise -buf or narrow -events\n",
			tr.Dropped())
	}
	if *check {
		fmt.Fprintf(stdout, "invariants %s\n", ck.Report())
		if err := ck.Err(); err != nil {
			fmt.Fprintln(stderr, "fdttrace:", err)
			return 1
		}
	}
	return 0
}

// policyLabel names the effective policy: a monitored (adaptive)
// controller wraps its policy's name.
func policyLabel(spec core.RunSpec, resolved string) string {
	if ctl, ok := spec.Driver.(*core.Controller); ok && ctl.Monitor != nil {
		return "adaptive(" + resolved + ")"
	}
	return resolved
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

func writeTimelineFile(path string, tr *trace.Tracer, interval uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteTimeline(f, tr, interval); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseCategories resolves the -events flag to a category mask.
func parseCategories(s string) (trace.Category, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return trace.CatAll, nil
	}
	var mask trace.Category
	for _, part := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(part)) {
		case "sim":
			mask |= trace.CatSim
		case "mem":
			mask |= trace.CatMem
		case "sync":
			mask |= trace.CatSync
		case "ctl":
			mask |= trace.CatCtl
		case "":
		default:
			return 0, fmt.Errorf("unknown event category %q (want sim, mem, sync, ctl or all)", part)
		}
	}
	if mask == 0 {
		return 0, fmt.Errorf("no event categories selected")
	}
	return mask, nil
}
