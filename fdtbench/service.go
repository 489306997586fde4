package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fdt/internal/core"
	"fdt/internal/service"
	"fdt/internal/store"
)

// svcSpec is the POST /v1/jobs body the clients send.
type svcSpec struct {
	Workload  string   `json:"workload"`
	Threads   []int    `json:"threads,omitempty"`
	Policies  []string `json:"policies,omitempty"`
	Cores     int      `json:"cores,omitempty"`
	Bandwidth float64  `json:"bandwidth,omitempty"`
	Mode      string   `json:"mode,omitempty"`
}

// jobView is the part of the service's job view the clients read.
type jobView struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Error     string          `json:"error"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started"`
	Finished  *time.Time      `json:"finished"`
	Result    json.RawMessage `json:"result"`
}

// session is one in-process fdtd: a disk run store in a scratch
// directory, the service, and a loopback HTTP server in front of it.
type session struct {
	dir   string
	store *store.Store
	svc   *service.Service
	srv   *httptest.Server
}

// openSession starts a service over a fresh store with the run cache
// capped at cacheLimit runs (0 = unlimited).
func openSession(dir string, cacheLimit int) (*session, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	core.ResetRunCache()
	core.SetRunCacheLimit(cacheLimit)
	st, err := core.OpenRunStore(dir)
	if err != nil {
		return nil, err
	}
	s := &session{dir: dir, store: st}
	s.startService()
	return s, nil
}

func (s *session) startService() {
	s.svc = service.New(service.Config{Workers: simWorkers})
	s.srv = httptest.NewServer(s.svc.Handler())
}

// stopService closes the server and drains the service.
func (s *session) stopService() error {
	s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.svc.Drain(ctx)
}

// restartService replaces the service and its server but keeps the
// store and the process-wide run cache, as a daemon restart on the same
// store would; the new service starts with an empty job table.
func (s *session) restartService() error {
	err := s.stopService()
	s.startService()
	return err
}

func (s *session) close() error {
	err := s.stopService()
	core.DetachRunStore()
	core.SetRunCacheLimit(0)
	core.ResetRunCache()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one closed-loop caller with its own connection.
type client struct {
	hc   *http.Client
	base string
}

func (s *session) newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{hc: &http.Client{Transport: tr}, base: s.srv.URL}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobDone is one finished job as its client saw it.
type jobDone struct {
	latency time.Duration // POST sent .. result received
	view    jobView
}

func (c *client) do(method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	return blob, resp.StatusCode, err
}

// job submits a spec, waits on its SSE stream for the terminal event
// and fetches the result.
func (c *client) job(spec svcSpec, tr *tracer, trace uint64, root int) (jobDone, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobDone{}, err
	}
	t0 := time.Now()
	sp := tr.begin(trace, root, "http.submit")
	blob, code, err := c.do("POST", "/v1/jobs", body)
	tr.end(sp)
	if err != nil {
		return jobDone{}, err
	}
	if code != http.StatusAccepted {
		return jobDone{}, fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(blob))
	}
	var v jobView
	if err := json.Unmarshal(blob, &v); err != nil {
		return jobDone{}, fmt.Errorf("submit: %w", err)
	}

	sp = tr.begin(trace, root, "http.stream")
	last, err := c.stream(v.ID)
	tr.end(sp)
	if err != nil {
		return jobDone{}, err
	}
	if last != "done" {
		blob, _, _ := c.do("GET", "/v1/jobs/"+v.ID, nil) // for the job's error message
		return jobDone{}, fmt.Errorf("job %s: stream ended with %q: %s", v.ID, last, bytes.TrimSpace(blob))
	}

	sp = tr.begin(trace, root, "http.fetch")
	blob, code, err = c.do("GET", "/v1/jobs/"+v.ID, nil)
	tr.end(sp)
	lat := time.Since(t0)
	if err != nil {
		return jobDone{}, err
	}
	if code != http.StatusOK {
		return jobDone{}, fmt.Errorf("fetch %s: %d", v.ID, code)
	}
	if err := json.Unmarshal(blob, &v); err != nil {
		return jobDone{}, fmt.Errorf("fetch %s: %w", v.ID, err)
	}
	if v.Status != service.StatusDone || v.Started == nil || v.Finished == nil {
		return jobDone{}, fmt.Errorf("job %s: status %q %s", v.ID, v.Status, v.Error)
	}
	tr.add(trace, root, "service.queue_wait", v.Submitted, *v.Started)
	tr.add(trace, root, "service.exec", *v.Started, *v.Finished)
	return jobDone{latency: lat, view: v}, nil
}

// stream reads a job's SSE stream to its end and returns the type of
// the last event.
func (c *client) stream(id string) (string, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("stream %s: %d", id, resp.StatusCode)
	}
	var last string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = ev
		}
	}
	return last, sc.Err()
}

// stats fetches GET /v1/stats.
func (c *client) stats() (service.Stats, error) {
	var st service.Stats
	blob, code, err := c.do("GET", "/v1/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("stats: %d", code)
	}
	return st, json.Unmarshal(blob, &st)
}

// svcOp is one client operation of the service-mixed stream.
type svcOp struct {
	kind    string // "read", "write" or "stats"
	latency time.Duration
	traced  bool
	err     error
}

// latencies collects, in ms, the latencies of the successful ops of a
// kind.
func latencies(ops []svcOp, kind string) []float64 {
	var out []float64
	for _, op := range ops {
		if op.err == nil && op.kind == kind {
			out = append(out, ms(op.latency))
		}
	}
	return out
}

// withTracing keeps the ops that were (or were not) traced.
func withTracing(ops []svcOp, traced bool) []svcOp {
	var out []svcOp
	for _, op := range ops {
		if op.traced == traced {
			out = append(out, op)
		}
	}
	return out
}

// Service-mixed traffic shape. Each client's stream is cut into
// rounds of roundOps operations; within a round, operation i is a write
// when i%writeEvery == writeEvery-1, a stats poll when
// i%statsEvery == statsEvery/2, and a read otherwise, so every round
// carries 0.2% writes and 1% stats polls.
const (
	roundOps    = 1000
	writeEvery  = 500
	statsEvery  = 100
	cacheLimit  = 36 // runs held in memory: half the working set's 72
	svcSessions = 3  // set-ups per run; setup_s is their median
	svcProcs    = 1  // GOMAXPROCS during the window; see window
)

// opKind is the kind of a round's i-th operation.
func opKind(i int) string {
	switch {
	case i%writeEvery == writeEvery-1:
		return "write"
	case i%statsEvery == statsEvery/2:
		return "stats"
	}
	return "read"
}

var svcWorkloads = []string{"ep", "convert", "mtwister"}

// sortedInts returns xs sorted ascending.
func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// workingSetSpecs draws the seeded set of 3-point sweep specs the
// readers re-submit, on default 32-core machines. Each (workload, bus
// width) pair gets two specs with disjoint thread counts from 1..8, so
// every seed's 24 specs name 72 distinct runs and the run cache's
// memory/store split does not depend on the seed.
func workingSetSpecs(seed uint64) []svcSpec {
	rng := rand.New(rand.NewPCG(seed, 1))
	var specs []svcSpec
	for _, w := range svcWorkloads {
		for _, bus := range []int{24, 32, 40, 48} {
			p := rng.Perm(8)
			for i := range p {
				p[i]++
			}
			for half := 0; half < 2; half++ {
				specs = append(specs, svcSpec{Workload: w, Threads: sortedInts(p[3*half : 3*half+3]), Bandwidth: 32 / float64(bus)})
			}
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// writeSpec is the n-th new spec of a run: one ep point on one thread,
// a run of a few milliseconds, so writes hold a CPU for a small, steady
// share of the window. The (cores, bus width) pair is unique to n and
// never on 32 cores, so every one simulates. Core counts stay multiples
// of the L3 bank count, which the machine requires.
func writeSpec(n int) svcSpec {
	return svcSpec{
		Workload:  "ep",
		Threads:   []int{1},
		Cores:     8 * (1 + n%3),
		Bandwidth: 32 / float64(16+n/3),
	}
}

// serviceMix is the service-mixed workload.
type serviceMix struct {
	sess  *session
	specs []svcSpec
	ref   [][]byte // each spec's first, cold result
	seed  uint64
}

// setupServiceMix opens a session and submits the working set once,
// cold, on simWorkers clients.
func setupServiceMix(dir string, seed uint64) (*serviceMix, error) {
	sess, err := openSession(dir, cacheLimit)
	if err != nil {
		return nil, err
	}
	s := &serviceMix{sess: sess, specs: workingSetSpecs(seed), seed: seed}
	s.ref = make([][]byte, len(s.specs))
	errs := make([]error, len(s.specs))
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := sess.newClient()
			defer c.close()
			for i := w; i < len(s.specs); i += simWorkers {
				jd, err := c.job(s.specs[i], nil, 0, -1)
				s.ref[i], errs[i] = jd.view.Result, err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			sess.close()
			return nil, err
		}
	}
	return s, nil
}

// round is one round of the service-mixed stream.
type round struct {
	ops      []svcOp
	elapsed  time.Duration
	peakMB   float64 // live heap at the end, when the job table is fullest
	complete bool    // every client ran all roundOps operations
}

// window runs rounds until the deadline. Each round starts on a fresh
// service over the same store and run cache, so the service's job
// table, which is never pruned, holds one round's jobs and every round
// measures the same state. Each client's stream is seeded; with a
// tracer, alternate operations are traced so both halves see the same
// service state.
//
// The window runs on svcProcs Ps. On two, the job pipeline (client,
// handler, worker, SSE) leaves both CPUs idle ~40% of the time, so every
// hand-off may wake a halted vCPU, and on a shared host the same seed
// read 4900 and 6000 ops/s a minute apart; on one P the pipeline keeps
// its CPU busy and repeats within 2%, measuring the CPU cost of a job.
func (s *serviceMix) window(d time.Duration, tr *tracer) ([]round, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(svcProcs))
	var rounds []round
	var writes atomic.Int64
	deadline := time.Now().Add(d)
	rngs := make([]*rand.Rand, simWorkers)
	for w := range rngs {
		rngs[w] = rand.New(rand.NewPCG(s.seed, uint64(100+w)))
	}
	for time.Now().Before(deadline) {
		if err := s.sess.restartService(); err != nil {
			return rounds, err
		}
		runtime.GC() // the previous service's jobs go before the round starts
		r := s.round(deadline, rngs, &writes, tr)
		// The job table only grows, so the live heap peaks at the end of
		// the round; a collection mid-round would add whatever garbage
		// its mark phase happened to see allocated.
		r.peakMB = liveHeapMB()
		rounds = append(rounds, r)
	}
	return rounds, nil
}

// round runs simWorkers closed-loop clients for roundOps operations
// each, or until the deadline.
func (s *serviceMix) round(deadline time.Time, rngs []*rand.Rand, writes *atomic.Int64, tr *tracer) round {
	var mu sync.Mutex
	r := round{complete: true}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.sess.newClient()
			defer c.close()
			var mine []svcOp
			i := 0
			for ; i < roundOps && time.Now().Before(deadline); i++ {
				var t *tracer
				if tr != nil && i%2 == 1 {
					t = tr
				}
				mine = append(mine, s.op(c, opKind(i), rngs[w], writes, t))
			}
			mu.Lock()
			r.ops = append(r.ops, mine...)
			r.complete = r.complete && i == roundOps
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

func (s *serviceMix) op(c *client, kind string, rng *rand.Rand, writes *atomic.Int64, tr *tracer) svcOp {
	trace := tr.newTrace()
	switch kind {
	case "write":
		spec := writeSpec(int(writes.Add(1) - 1))
		root := tr.begin(trace, -1, "op.write")
		jd, err := c.job(spec, tr, trace, root)
		tr.end(root)
		return svcOp{kind: kind, latency: jd.latency, traced: tr != nil, err: err}
	case "stats":
		root := tr.begin(trace, -1, "op.stats")
		t0 := time.Now()
		_, err := c.stats()
		lat := time.Since(t0)
		tr.end(root)
		return svcOp{kind: kind, latency: lat, traced: tr != nil, err: err}
	default:
		i := rng.IntN(len(s.specs))
		root := tr.begin(trace, -1, "op.read")
		jd, err := c.job(s.specs[i], tr, trace, root)
		tr.end(root)
		if err == nil && !bytes.Equal(jd.view.Result, s.ref[i]) {
			err = fmt.Errorf("spec %d: warm result differs from its cold result", i)
		}
		return svcOp{kind: kind, latency: jd.latency, traced: tr != nil, err: err}
	}
}
