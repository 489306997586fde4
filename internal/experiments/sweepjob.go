package experiments

import (
	"fmt"

	"fdt/internal/core"
	"fdt/internal/stats"
	"fdt/internal/workloads"
)

// SweepJobResult is the structured outcome of one sweep job: the
// full RunResult of every sweep point and policy placement, in the
// same shape fdtsweep's -json emits. The fdtd daemon marshals it as a
// job's result payload; because every RunResult either came from the
// simulator or JSON-round-tripped through the disk store, the payload
// is byte-stable across daemon restarts.
type SweepJobResult struct {
	Workload   string           `json:"workload"`
	Cores      int              `json:"cores"`
	Threads    []int            `json:"threads"`
	Sweep      []core.RunResult `json:"sweep,omitempty"`
	MinThreads int              `json:"min_threads,omitempty"`
	Policies   []core.RunResult `json:"policies,omitempty"`
}

// RunSweepJob sweeps a workload across static thread counts and then
// places the named policies, all through the process-wide run cache —
// the daemon-facing twin of the fdtsweep CLI path. counts may be
// empty when policies are given (policy placements only). Progress
// events flow to o.Progress: one per sweep point (with Threads set)
// and one per policy placement.
func RunSweepJob(o Options, workload string, counts []int, policies []string) (SweepJobResult, error) {
	info, ok := workloads.ByName(workload)
	if !ok {
		return SweepJobResult{}, fmt.Errorf("unknown workload %q", workload)
	}
	if len(counts) == 0 && len(policies) == 0 {
		return SweepJobResult{}, fmt.Errorf("empty job: no thread counts and no policies")
	}
	cores := o.Cfg.Mem.Cores
	for _, n := range counts {
		if n < 1 {
			return SweepJobResult{}, fmt.Errorf("bad thread count %d", n)
		}
	}

	res := SweepJobResult{
		Workload: info.Name,
		Cores:    cores,
		Threads:  counts,
	}
	if len(counts) > 0 {
		res.Sweep = sweepRuns(o, info.Name, counts)
		times := make([]uint64, len(res.Sweep))
		for i, r := range res.Sweep {
			times[i] = r.TotalCycles
		}
		idx, _ := stats.ArgMinUint(times)
		res.MinThreads = counts[idx]
	}
	for i, pname := range policies {
		r, err := runPolicyJob(o, info.Name, pname)
		if err != nil {
			return SweepJobResult{}, err
		}
		o.emit(ProgressEvent{
			Workload: info.Name, Policy: r.Policy, Cycles: r.TotalCycles,
			Index: i, Total: len(policies),
		})
		res.Policies = append(res.Policies, r)
	}
	return res, nil
}

// runPolicyJob resolves one policy name of core's grammar and executes
// it through the run cache under the options' machine, mode and power.
func runPolicyJob(o Options, workload, pname string) (core.RunResult, error) {
	d, err := core.ParseDriver(pname)
	if err != nil {
		return core.RunResult{}, err
	}
	s := o.spec(workload, d)
	s.Power = o.Power
	if _, err := s.Validate(0); err != nil {
		return core.RunResult{}, err
	}
	return core.Run(s), nil
}
