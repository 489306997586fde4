package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// outcome is the simulated result a run must reproduce exactly.
type outcome struct {
	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`
}

// expectation pins one run key in both execution modes.
type expectation struct {
	Exact   outcome `json:"exact"`
	Sampled outcome `json:"sampled"`
}

// expected is expected.json: every run of the exact-mix/sampled-mix
// space, plus the event count the repository's own harness
// (BenchmarkSimulatorThroughput, ed under static:8) reports per op.
type expected struct {
	Regenerate    string                 `json:"regenerate"`
	HarnessEvents uint64                 `json:"harness_events"`
	Runs          map[string]expectation `json:"runs"`
}

const regenerateHelp = "bash fdtbench/run.sh -regen (from the repository root) after a change that legitimately alters simulated results"

func loadExpected(path string) (*expected, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(e.Runs) != len(space()) || e.HarnessEvents == 0 {
		return nil, fmt.Errorf("%s: %d runs, harness_events %d: regenerate with %s",
			path, len(e.Runs), e.HarnessEvents, regenerateHelp)
	}
	return &e, nil
}

// check compares a run's simulated result with the pinned one.
func (e *expected) check(k runKey, sampled bool, got outcome) error {
	x, ok := e.Runs[k.String()]
	if !ok {
		return fmt.Errorf("%s: no expected result", k)
	}
	want, mode := x.Exact, "exact"
	if sampled {
		want, mode = x.Sampled, "sampled"
	}
	if got != want {
		return fmt.Errorf("%s %s: got %d cycles / %d events, expected %d / %d",
			k, mode, got.Cycles, got.Events, want.Cycles, want.Events)
	}
	return nil
}

var eventsPerOp = regexp.MustCompile(`\s([0-9]+) events/op`)

// harnessEvents runs the repository's BenchmarkSimulatorThroughput
// once and returns its events/op.
func harnessEvents() (uint64, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^BenchmarkSimulatorThroughput$", "-benchtime", "1x", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("go test -bench SimulatorThroughput: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if m := eventsPerOp.FindStringSubmatch(sc.Text()); m != nil {
			return strconv.ParseUint(m[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no events/op in benchmark output:\n%s", out)
}

// regenerate simulates every run key in both modes on two workers and
// writes the expected-results file.
func regenerate(path string) error {
	he, err := harnessEvents()
	if err != nil {
		return err
	}
	keys := space()
	runs := make([]expectation, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < simWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				for _, md := range []core.Mode{core.ExactMode(), core.SampledMode()} {
					op := runOne(keys[i], machine.DefaultConfig(), md, nil, nil)
					if op.err != nil {
						errs[i] = op.err
					}
					o := outcome{Cycles: op.cycles, Events: op.events}
					if md.Sampled {
						runs[i].Sampled = o
					} else {
						runs[i].Exact = o
					}
				}
				fmt.Fprintf(os.Stderr, "regen %s\n", keys[i])
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	e := expected{Regenerate: regenerateHelp, HarnessEvents: he, Runs: map[string]expectation{}}
	for i, k := range keys {
		if errs[i] != nil {
			return errs[i]
		}
		e.Runs[k.String()] = runs[i]
	}
	// encoding/json sorts map keys, so the file diffs cleanly.
	blob, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
