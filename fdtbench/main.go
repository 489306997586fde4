// Command fdtbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output, and prints its
// metrics by name with their units; the last line of its output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	bash fdtbench/run.sh --workload exact-mix --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	exact-mix      cold exact runs drawn from the space fdtreport sweeps
//	sampled-mix    the same draw in sampled mode
//	service-mixed  an in-process fdtd under two closed-loop HTTP clients
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans
// around every layer call, runs the layer probes, and reports the
// per-layer metrics, including the tracing overhead. -regen rewrites
// expected.json. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"fdt/internal/core"
	"fdt/internal/counters"
	"fdt/internal/machine"
	"fdt/internal/runner"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's state.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	dir      string // the benchmark's directory
	work     string // scratch directory, removed at exit
	tr       *tracer
	out      io.Writer

	attempted, failed int
	errs              []string
	metrics           map[string]metric
	report            map[string]any
}

// count tallies one checked operation.
func (b *bench) count(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 10 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

func (b *bench) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{v, unit}
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.out, format+"\n", args...) }

// timing prints a timing series with its median and the highest tail
// percentile that has at least ten samples beyond it.
func (b *bench) timing(name string, xs []float64) {
	line := fmt.Sprintf("%-28s n=%-6d p50=%.3fms", name, len(xs), median(xs))
	if p, ok := tailPercentile(len(xs)); ok {
		line += fmt.Sprintf(" p%g=%.3fms", p, percentile(xs, p))
	}
	b.logf("%s", line)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdtbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "exact-mix, sampled-mix or service-mixed")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	dir := fs.String("dir", "fdtbench", "benchmark directory holding expected.json")
	work := fs.String("work", ".bench_build/fdtbench-work", "scratch directory for stores and span files")
	regen := fs.Bool("regen", false, "rewrite expected.json from the current simulator and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner.SetWorkers(simWorkers)
	if *regen {
		if err := regenerate(filepath.Join(*dir, "expected.json")); err != nil {
			fmt.Fprintln(stderr, "fdtbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(stderr, "fdtbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	// A hung service or simulation must not outlive the caller's limit.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+120*time.Second, func() {
		fmt.Fprintln(stderr, "fdtbench: watchdog: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	b := &bench{
		workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second,
		dir: *dir, work: filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		out: stdout, metrics: map[string]metric{}, report: map[string]any{},
	}
	if *traced == 1 {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "fdtbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	var err error
	b.provenance()
	switch *workload {
	case "exact-mix":
		err = b.simMix(false)
	case "sampled-mix":
		err = b.simMix(true)
	case "service-mixed":
		err = b.serviceMixed()
	default:
		err = fmt.Errorf("unknown workload %q (want exact-mix, sampled-mix or service-mixed)", *workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fdtbench:", err)
		return 1
	}
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "fdtbench: check failed:", e)
	}
	if err := b.writeRecord(*work, *traced); err != nil {
		fmt.Fprintln(stderr, "fdtbench:", err)
		return 1
	}
	b.logf("error_rate %d/%d = %g", b.failed, b.attempted, ratio(float64(b.failed), float64(b.attempted)))
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fdtbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}

// provenance records the host, the toolchain and the code measured,
// and runs the fixed-work-quantum noise probe.
func (b *bench) provenance() {
	host, _ := os.Hostname() // an unknown host name is reported empty
	spread, worst := fwq(2000)
	p := map[string]any{
		"host": host, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(),
		"fwq_spread_pct": spread, "fwq_worst_pct": worst,
		"workload": b.workload, "seed": b.seed, "seconds": b.window.Seconds(), "trace": b.tr != nil,
	}
	b.report["provenance"] = p
	b.logf("host %s nproc %d GOMAXPROCS %d %s commit %s", host, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), p["commit"])
	b.logf("noise (fwq, 2000 quanta): quartile spread %.2f%% of median, worst quantum +%.1f%%", spread, worst)
	if b.tr != nil {
		b.set("host.fwq_spread_pct", "%", spread)
	}
}

// commit reads the checked-out commit from .git without running git;
// "unknown" outside a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs") // absent: the ref is unknown
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// crossCheck runs ed under static:8 on the default machine, as
// BenchmarkSimulatorThroughput does, and requires its event count.
func (b *bench) crossCheck(exp *expected) {
	op := runOne(runKey{"ed", "static:8"}, machine.DefaultConfig(), core.ExactMode(), exp, nil)
	if op.err == nil && op.events != exp.HarnessEvents {
		op.err = fmt.Errorf("cross-check: ed static:8 dispatched %d events, BenchmarkSimulatorThroughput reports %d", op.events, exp.HarnessEvents)
	}
	b.count(op.err)
	b.logf("cross-check ed static:8: %d events (harness %d)", op.events, exp.HarnessEvents)
}

// setupTimes runs set-up n times and returns the last result with the
// median set-up time in seconds; each earlier result is released
// before the next set-up starts.
func setupTimes[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
		}
		runtime.GC() // start each set-up from the same collected heap
		t0 := time.Now()
		v, err := setup()
		secs = append(secs, time.Since(t0).Seconds())
		if err != nil {
			return last, 0, err
		}
		last = v
	}
	return last, median(secs), nil
}

func (b *bench) simMix(sampled bool) error {
	s, setupS, err := setupTimes(15, func() (*simMix, error) { return setupSimMix(b.dir, sampled, b.seed) }, func(*simMix) {})
	if err != nil {
		return err
	}
	b.crossCheck(s.exp)
	heap := startHeapSampler()
	ops, elapsed := s.window(b.window, b.tr)
	peak := heap.stopMB()

	var host []float64
	var events, cycles, skipped, detailed uint64
	var errPct []float64
	for _, op := range ops {
		b.count(op.err)
		if !op.traced {
			host = append(host, ms(op.host))
		}
		events += op.events
		cycles += op.cycles
		if st := op.result.Sampled; st != nil {
			skipped += uint64(st.SkippedIters)
			detailed += uint64(st.DetailedIters)
		}
		if x, ok := s.exp.Runs[op.key.String()]; ok && sampled {
			errPct = append(errPct, 100*math.Abs(float64(op.cycles)-float64(x.Exact.Cycles))/float64(x.Exact.Cycles))
		}
	}
	skippedFrac := ratio(float64(skipped), float64(skipped+detailed))
	b.logf("%s: %d runs in %.1fs on %d workers; %.0f events/s, %.0f simulated cycles/s",
		b.workload, len(ops), elapsed.Seconds(), simWorkers, float64(events)/elapsed.Seconds(), float64(cycles)/elapsed.Seconds())
	b.timing("run (host ms)", host)
	if sampled {
		b.logf("sampled: %.1f%% of kernel iterations skipped; mean |error| vs exact %.2f%% of TotalCycles", 100*skippedFrac, mean(errPct))
	}
	b.report["skipped_iteration_share"] = skippedFrac

	if b.tr == nil {
		b.set("setup_s", "s", setupS)
		b.set("op_ms_p50", "ms", median(host))
		b.set("op_ms_p90", "ms", percentile(host, 90))
		b.set("ops_per_s", "1/s", float64(len(ops))/elapsed.Seconds())
		b.set("peak_heap_mb", "MiB", peak)
		return nil
	}

	// Traced run. Simulated counts come from the first layerRuns deals,
	// a fixed set, so they repeat exactly on any host.
	const layerRuns = 16
	var fixed, traced []simOp
	for _, op := range ops {
		if op.traced {
			traced = append(traced, op)
			if op.pair < layerRuns {
				fixed = append(fixed, op)
			}
		}
	}
	b.set("trace.overhead_pct", "%", pairedOverhead(ops))
	b.simLayers(fixed, traced)
	b.set("sampled.skipped_frac", "ratio", skippedFrac)
	b.set("sampled.err_pct", "%", mean(errPct))

	// Layer probes on this workload's own runs: the store replays their
	// keys and payloads; the service and RunSweepJob serve 1-point
	// sweep specs of its first runs.
	var keys []string
	var payloads [][]byte
	for _, op := range traced {
		keys = append(keys, storeKey(machine.DefaultConfig(), op.key))
		payloads = append(payloads, op.payload)
	}
	b.layerProbes(keys, payloads)
	var specs []svcSpec
	dr := newDrawer(b.seed)
	for len(specs) < 4 { // the first deck's deals are distinct
		specs = append(specs, dr.next().spec(sampled))
	}
	return b.serviceProbe(specs)
}

// pairedOverhead is the median, over traced runs, of the traced run's
// host time relative to its untraced twin, in %.
func pairedOverhead(ops []simOp) float64 {
	untraced := map[int]time.Duration{}
	for _, op := range ops {
		if !op.traced {
			untraced[op.pair] = op.host
		}
	}
	var rel []float64
	for _, op := range ops {
		if u, ok := untraced[op.pair]; ok && op.traced {
			rel = append(rel, 100*(float64(op.host)/float64(u)-1))
		}
	}
	return median(rel)
}

// simLayers reports the sim, mem, machine, workloads and core metrics:
// simulated counts over fixed, host times over every traced run.
func (b *bench) simLayers(fixed, traced []simOp) {
	var events, cycles, train uint64
	ctrs := map[string]uint64{}
	for _, op := range fixed {
		events += op.events
		cycles += op.cycles
		for _, k := range op.result.Kernels {
			train += k.TrainCycles
		}
		for name, v := range op.ctrs {
			ctrs[name] += v
		}
	}
	var runNs, runEvents float64
	var runMs []float64
	for _, op := range traced {
		runNs += float64(op.run)
		runEvents += float64(op.events)
		runMs = append(runMs, ms(op.run))
	}
	spans := b.tr.snapshot()
	b.set("sim.events", "count", float64(events))
	b.set("sim.ns_per_event", "ns", runNs/runEvents)
	b.set("mem.l3_misses", "count", float64(ctrs[counters.L3Misses]))
	b.set("mem.bus_transactions", "count", float64(ctrs[counters.BusTransactions]))
	b.set("mem.dram_row_hit_ratio", "ratio", float64(ctrs[counters.DRAMRowHits])/float64(ctrs[counters.DRAMRowHits]+ctrs[counters.DRAMRowMisses]))
	b.set("mem.bus_busy_frac", "ratio", float64(ctrs[counters.BusBusyCycles])/float64(cycles))
	b.set("machine.new_ms", "ms", median(durations(spans, "machine.New")))
	b.set("workloads.factory_ms", "ms", median(durations(spans, "workloads.Factory")))
	b.set("core.run_ms", "ms", median(runMs))
	b.set("core.train_frac", "ratio", float64(train)/float64(cycles))
}

// layerProbes runs the engine, cache and store probes.
func (b *bench) layerProbes(keys []string, payloads [][]byte) {
	b.set("sim.dispatch_ns", "ns", engineProbe(b.tr, 8, 25000))
	b.set("mem.lookup_ns", "ns", cacheProbe(b.tr, b.seed, 1<<21))
	b.count(storeProbe(b.tr, filepath.Join(b.work, "probe-store"), keys, payloads))
	spans := b.tr.snapshot()
	b.set("store.get_us_p50", "us", 1000*median(durations(spans, "store.Get")))
	b.set("store.put_us_p50", "us", 1000*median(durations(spans, "store.Put")))
	b.set("store.len_ms", "ms", median(durations(spans, "store.Len")))
}

// runnerCounts snapshots the process-wide run cache's counters.
type runnerCounts struct{ hits, misses, computes, backing, evictions uint64 }

func readRunner() runnerCounts {
	h, m := core.RunCacheStats()
	_, _, ev := core.RunCacheUsage()
	return runnerCounts{h, m, core.RunCacheComputes(), core.RunCacheBackingHits(), ev}
}

func (b *bench) runnerDelta(before runnerCounts) {
	a := readRunner()
	d := runnerCounts{a.hits - before.hits, a.misses - before.misses, a.computes - before.computes,
		a.backing - before.backing, a.evictions - before.evictions}
	lookups := float64(d.hits + d.misses)
	b.report["run_cache_shares"] = map[string]float64{
		"memory_hits": ratio(float64(d.hits), lookups), "store_loads": ratio(float64(d.backing), lookups),
		"computes": ratio(float64(d.computes), lookups),
	}
	b.logf("run cache: %d lookups: %.1f%% memory hits, %.1f%% store loads, %.1f%% computes, %d evictions",
		d.hits+d.misses, 100*float64(d.hits)/lookups, 100*float64(d.backing)/lookups, 100*float64(d.computes)/lookups, d.evictions)
	if b.tr != nil {
		b.set("runner.hits", "count", float64(d.hits))
		b.set("runner.misses", "count", float64(d.misses))
		b.set("runner.computes", "count", float64(d.computes))
		b.set("runner.backing_hits", "count", float64(d.backing))
		b.set("runner.evictions", "count", float64(d.evictions))
		b.set("runner.useful_ratio", "ratio", float64(d.hits+d.backing)/lookups)
	}
}

// serviceLayers reports the service and store metrics of a session
// from its client operations and the spans of the traced ones.
func (b *bench) serviceLayers(sess *session, ops []svcOp) {
	spans := b.tr.snapshot()
	roots := map[uint64]span{}
	queue, exec := map[uint64]float64{}, map[uint64]float64{}
	for _, s := range spans {
		switch s.Name {
		case "op.read":
			roots[s.Trace] = s
		case "service.queue_wait":
			queue[s.Trace] = ms(s.dur())
		case "service.exec":
			exec[s.Trace] = ms(s.dur())
		}
	}
	var q, e, h []float64
	for id, r := range roots {
		if _, ok := exec[id]; !ok {
			continue
		}
		q = append(q, queue[id])
		e = append(e, exec[id])
		h = append(h, ms(r.dur())-queue[id]-exec[id])
	}
	b.set("service.queue_wait_ms_p50", "ms", median(q))
	b.set("service.exec_ms_p50", "ms", median(e))
	b.set("service.http_ms_p50", "ms", median(h))
	b.set("service.stats_ms_p50", "ms", median(latencies(ops, "stats")))
	b.set("service.warm_job_ms_p99", "ms", percentile(latencies(withTracing(ops, true), "read"), 99))
	b.set("service.cold_job_ms_p50", "ms", median(latencies(ops, "write")))
	st := sess.store.Stats()
	b.set("store.hits", "count", float64(st.Hits))
	b.set("store.puts", "count", float64(st.Puts))
	b.set("store.corrupt", "count", float64(st.Corrupt))
}

// serviceProbe serves specs through a short in-process fdtd session:
// each spec once cold, then traced warm re-submissions and stats polls
// from simWorkers clients, then RunSweepJob directly on the first spec.
func (b *bench) serviceProbe(specs []svcSpec) error {
	before := readRunner()
	sess, err := openSession(filepath.Join(b.work, "probe-service"), 0)
	if err != nil {
		return err
	}
	ops := make([][]svcOp, simWorkers)
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sess.newClient()
			defer c.close()
			for i := w; i < len(specs); i += simWorkers {
				jd, err := c.job(specs[i], nil, 0, -1)
				ops[w] = append(ops[w], svcOp{kind: "write", latency: jd.latency, err: err})
			}
			for i := 0; i < 200; i++ {
				trace := b.tr.newTrace()
				if i%20 == 0 {
					root := b.tr.begin(trace, -1, "op.stats")
					t0 := time.Now()
					_, err := c.stats()
					ops[w] = append(ops[w], svcOp{kind: "stats", latency: time.Since(t0), traced: true, err: err})
					b.tr.end(root)
					continue
				}
				root := b.tr.begin(trace, -1, "op.read")
				jd, err := c.job(specs[i%len(specs)], b.tr, trace, root)
				b.tr.end(root)
				ops[w] = append(ops[w], svcOp{kind: "read", latency: jd.latency, traced: true, err: err})
			}
		}(w)
	}
	wg.Wait()
	var all []svcOp
	for _, o := range ops {
		all = append(all, o...)
	}
	for _, op := range all {
		b.count(op.err)
	}
	b.serviceLayers(sess, all)
	b.count(sweepJobProbe(b.tr, specs[0], 50))
	b.set("experiments.sweepjob_ms", "ms", median(durations(b.tr.snapshot(), "experiments.RunSweepJob")))
	b.runnerDelta(before)
	return sess.close()
}

func (b *bench) serviceMixed() error {
	exp, err := loadExpected(filepath.Join(b.dir, "expected.json"))
	if err != nil {
		return err
	}
	b.crossCheck(exp)
	dir := filepath.Join(b.work, "service")
	s, setupS, err := setupTimes(svcSessions,
		func() (*serviceMix, error) { return setupServiceMix(dir, b.seed) },
		func(s *serviceMix) { s.sess.close() })
	if err != nil {
		return err
	}
	for range s.specs {
		b.count(nil) // each cold working-set job completed and was checked
	}
	before := readRunner()
	rounds, err := s.window(b.window, b.tr)
	if err != nil {
		s.sess.close()
		return err
	}
	b.runnerDelta(before)

	// The end-to-end figures are medians over the complete rounds; a
	// window too short for one uses its partial round.
	var ops []svcOp
	var elapsed time.Duration
	var p50, p90, rate, peak []float64
	for _, r := range rounds {
		ops = append(ops, r.ops...)
		elapsed += r.elapsed
		if r.complete || len(rounds) == 1 {
			warm := latencies(r.ops, "read")
			p50 = append(p50, median(warm))
			p90 = append(p90, percentile(warm, 90))
			rate = append(rate, float64(len(r.ops))/r.elapsed.Seconds())
			peak = append(peak, r.peakMB)
		}
	}
	kinds := map[string]int{}
	for _, op := range ops {
		b.count(op.err)
		kinds[op.kind]++
	}
	warm := latencies(ops, "read")
	b.logf("service-mixed: %d ops in %d rounds, %.1fs, from %d clients (%d reads, %d writes, %d stats); %.0f ops/s",
		len(ops), len(rounds), elapsed.Seconds(), simWorkers, kinds["read"], kinds["write"], kinds["stats"], float64(len(ops))/elapsed.Seconds())
	b.report["ops"] = kinds
	b.report["window_gomaxprocs"] = svcProcs
	b.timing("warm job (ms)", warm)
	b.timing("cold job (ms)", latencies(ops, "write"))
	b.timing("stats poll (ms)", latencies(ops, "stats"))
	b.logf("per round: op_ms_p50 %.3f..%.3f, op_ms_p90 %.3f..%.3f, ops/s %.0f..%.0f, peak heap %.1f..%.1f MiB",
		percentile(p50, 0), percentile(p50, 100), percentile(p90, 0), percentile(p90, 100),
		percentile(rate, 0), percentile(rate, 100), percentile(peak, 0), percentile(peak, 100))

	if b.tr == nil {
		b.set("setup_s", "s", setupS)
		b.set("op_ms_p50", "ms", median(p50))
		b.set("op_ms_p90", "ms", median(p90))
		b.set("ops_per_s", "1/s", median(rate))
		b.set("peak_heap_mb", "MiB", median(peak))
		return s.sess.close()
	}

	b.set("trace.overhead_pct", "%", 100*(median(latencies(withTracing(ops, true), "read"))/median(latencies(withTracing(ops, false), "read"))-1))
	b.serviceLayers(s.sess, ops)

	// Layer probes on this workload's own inputs: direct runs of the
	// first two specs' points, the store replaying the working set's
	// run payloads, and RunSweepJob on the first spec.
	var direct []simOp
	for _, spec := range s.specs[:2] {
		for _, n := range spec.Threads {
			op := runOne(runKey{spec.Workload, fmt.Sprintf("static:%d", n)}, spec.config(), core.ExactMode(), nil, b.tr)
			b.count(op.err)
			direct = append(direct, op)
		}
	}
	b.simLayers(direct, direct)
	b.set("sampled.skipped_frac", "ratio", 0)
	b.set("sampled.err_pct", "%", 0)
	var keys []string
	var payloads [][]byte
	for i, spec := range s.specs {
		var r struct {
			Sweep []json.RawMessage `json:"sweep"`
		}
		if err := json.Unmarshal(s.ref[i], &r); err != nil {
			return err
		}
		for j, p := range r.Sweep {
			keys = append(keys, storeKey(spec.config(), runKey{spec.Workload, fmt.Sprintf("static:%d", spec.Threads[j])}))
			payloads = append(payloads, p)
		}
	}
	b.layerProbes(keys, payloads)
	b.count(sweepJobProbe(b.tr, s.specs[0], 50))
	b.set("experiments.sweepjob_ms", "ms", median(durations(b.tr.snapshot(), "experiments.RunSweepJob")))
	return s.sess.close()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// writeRecord writes the run's provenance, metrics and, when traced,
// every span with its self-time summary, next to the scratch area.
func (b *bench) writeRecord(root string, traced int) error {
	rec := map[string]any{"metrics": b.metrics, "attempted": b.attempted, "failed": b.failed, "errors": b.errs}
	for k, v := range b.report {
		rec[k] = v
	}
	if b.tr != nil {
		spans := b.tr.snapshot()
		stats := spanStats(spans)
		rec["span_stats"] = stats
		rec["spans"] = spans
		for _, s := range stats {
			b.logf("span %-28s n=%-6d median %.4fms self %.4fms", s.Name, s.Count, s.MedianMs, s.MedianSelf)
		}
	}
	blob, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(root, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, traced))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write record: %w", err)
	}
	b.logf("record: %s", path)
	return nil
}
