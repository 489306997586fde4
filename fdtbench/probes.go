package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"fdt/internal/core"
	"fdt/internal/experiments"
	"fdt/internal/machine"
	"fdt/internal/mem"
	"fdt/internal/sim"
	"fdt/internal/store"
)

// fwq is a fixed-work-quantum noise probe in the manner of LLNL's
// fwq: identical quanta of dependent integer work are timed back to
// back, and the spread of their times is the host's noise. It returns
// the quartile spread and the worst quantum, both as % of the median.
func fwq(quanta int) (spreadPct, worstPct float64) {
	t := make([]float64, quanta)
	x := uint64(1)
	for i := range t {
		t0 := time.Now()
		for j := 0; j < 1<<16; j++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		t[i] = float64(time.Since(t0))
	}
	fwqSink = x
	med := median(t)
	return 100 * (percentile(t, 75) - percentile(t, 25)) / med,
		100 * (percentile(t, 100) - med) / med
}

var fwqSink uint64

// engineProbe drives sim.Engine with no memory model: procs pass one
// token around a ring with Advance/Wake/Park, the dispatch pattern of
// threads handing off a lock. It returns host ns per dispatched event.
func engineProbe(tr *tracer, procs, rounds int) float64 {
	trace := tr.newTrace()
	sp := tr.begin(trace, -1, "sim.Engine.Run")
	t0 := time.Now()
	e := sim.NewEngine()
	ring := make([]*sim.Proc, procs)
	for i := range ring {
		i := i
		ring[i] = e.Spawn(fmt.Sprintf("ring%d", i), func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				if i != 0 || r != 0 {
					p.Park()
				}
				p.Advance(uint64(1 + (i+r)%5))
				if i != procs-1 || r != rounds-1 {
					p.Wake(ring[(i+1)%procs])
				}
			}
		})
	}
	e.Run()
	d := time.Since(t0)
	tr.end(sp)
	return float64(d) / float64(e.Events())
}

// cacheProbe replays a seeded address stream through one L3-bank-sized
// mem.Cache: half streaming through 64 MiB, half random over a 512 KiB
// hot set, inserting on every miss. It returns ns per access.
func cacheProbe(tr *tracer, seed uint64, accesses int) float64 {
	cfg := mem.DefaultConfig()
	c := mem.NewCache(cfg.L3Bytes/cfg.L3Banks, cfg.L3Ways, cfg.LineBytes)
	rng := rand.New(rand.NewPCG(seed, 2))
	addrs := make([]uint64, accesses)
	var stream uint64
	for i := range addrs {
		if i%2 == 0 {
			stream = (stream + 1) % (64 << 20 / uint64(cfg.LineBytes))
			addrs[i] = stream
		} else {
			addrs[i] = 1<<30 + rng.Uint64N(512<<10/uint64(cfg.LineBytes))
		}
	}
	trace := tr.newTrace()
	sp := tr.begin(trace, -1, "mem.Cache.Lookup")
	t0 := time.Now()
	for i, a := range addrs {
		if !c.Lookup(a, i%4 == 0) {
			c.Insert(a, i%4 == 0)
		}
	}
	d := time.Since(t0)
	tr.end(sp)
	return float64(d) / float64(accesses)
}

// storeProbe replays a workload's run keys and payloads through a
// fresh store: every Put, then every Get, then Len walks. A Get that
// misses or returns other bytes is an error.
func storeProbe(tr *tracer, dir string, keys []string, payloads [][]byte) error {
	st, err := store.Open(dir, core.RunStoreSchema)
	if err != nil {
		return err
	}
	trace := tr.newTrace()
	for i, k := range keys {
		sp := tr.begin(trace, -1, "store.Put")
		err := st.Put(k, payloads[i])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	for i, k := range keys {
		sp := tr.begin(trace, -1, "store.Get")
		got, ok := st.Get(k)
		tr.end(sp)
		if !ok || !bytes.Equal(got, payloads[i]) {
			return fmt.Errorf("store probe: %q did not read back", k)
		}
	}
	for i := 0; i < 5; i++ {
		sp := tr.begin(trace, -1, "store.Len")
		st.Len()
		tr.end(sp)
	}
	return nil
}

// storeKey lays a run out the way the run cache's content addresses
// are laid out: machine config, workload, policy.
func storeKey(cfg machine.Config, k runKey) string {
	return core.ConfigKey(cfg) + "|" + k.Workload + "|" + k.Policy
}

// sweepJobProbe calls RunSweepJob directly, warming the spec once and
// then timing calls against the warm run cache.
func sweepJobProbe(tr *tracer, spec svcSpec, calls int) error {
	o := experiments.Options{Cfg: spec.config()}
	if spec.Mode == "sampled" {
		o.Mode = core.SampledMode()
	}
	if _, err := experiments.RunSweepJob(o, spec.Workload, spec.Threads, spec.Policies); err != nil {
		return err
	}
	trace := tr.newTrace()
	for i := 0; i < calls; i++ {
		sp := tr.begin(trace, -1, "experiments.RunSweepJob")
		_, err := experiments.RunSweepJob(o, spec.Workload, spec.Threads, spec.Policies)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// config is the machine a spec runs on, as the service builds it.
func (s svcSpec) config() machine.Config {
	cfg := machine.DefaultConfig()
	if s.Cores > 0 {
		cfg = cfg.WithCores(s.Cores)
	}
	if s.Bandwidth > 0 {
		cfg = cfg.WithBandwidth(s.Bandwidth)
	}
	return cfg
}

// heapSampler records the peak live heap (bytes marked live by the
// last GC) while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MiB. A final
// collection makes the end-of-window live heap exact, since a heap
// that only grows (the service's job table) would otherwise read as
// of whichever collection happened last.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	return max(float64(h.peak)/(1<<20), liveHeapMB())
}

// liveHeapMB collects and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// spanStats summarises spans by name: count, median duration and
// median self time, in ms, sorted by name.
type spanStat struct {
	Name       string  `json:"name"`
	Count      int     `json:"count"`
	MedianMs   float64 `json:"median_ms"`
	MedianSelf float64 `json:"median_self_ms"`
}

func spanStats(spans []span) []spanStat {
	self := selfTimes(spans)
	dur, slf := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		dur[s.Name] = append(dur[s.Name], ms(s.dur()))
		slf[s.Name] = append(slf[s.Name], ms(self[i]))
	}
	var out []spanStat
	for name, d := range dur {
		out = append(out, spanStat{name, len(d), median(d), median(slf[name])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
