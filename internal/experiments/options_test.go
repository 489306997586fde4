package experiments

import (
	"testing"

	"fdt/internal/core"
)

// policyRunWithKernels fabricates a run result for label tests.
func policyRunWithKernels(name string, threads int) core.RunResult {
	return core.RunResult{Kernels: []core.KernelResult{
		{Kernel: name, Decision: core.Decision{Threads: threads}},
	}}
}

func TestDefaultOptionsSweepEveryCore(t *testing.T) {
	o := DefaultOptions()
	ts := o.threads()
	if len(ts) != 32 {
		t.Fatalf("default sweep has %d counts, want 32", len(ts))
	}
	for i, n := range ts {
		if n != i+1 {
			t.Fatalf("sweep[%d] = %d, want %d", i, n, i+1)
		}
	}
}

func TestOptionsCustomSweep(t *testing.T) {
	o := DefaultOptions()
	o.SweepThreads = []int{1, 4, 32}
	ts := o.threads()
	if len(ts) != 3 || ts[1] != 4 {
		t.Fatalf("custom sweep not honored: %v", ts)
	}
}

func TestFactoryPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown workload did not panic")
		}
	}()
	factory("nonesuch")
}

func TestFewestIdx(t *testing.T) {
	// min at index 3 (100); index 1 (101) is within 1%.
	if got := fewestIdx([]uint64{200, 101, 150, 100}); got != 1 {
		t.Errorf("fewestIdx = %d, want 1", got)
	}
	if got := fewestIdx([]uint64{5}); got != 0 {
		t.Errorf("single-element fewestIdx = %d", got)
	}
}

func TestThreadsLabel(t *testing.T) {
	single := policyRunWithKernels("k", 7)
	if got := threadsLabel(single); got != "7 thread(s)" {
		t.Errorf("single-kernel label = %q", got)
	}
}
