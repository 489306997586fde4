package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// runSweep runs the command body in-process and returns its exit code
// with the captured output streams.
func runSweep(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestSweepBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-workload", "nosuch"},
		{"-nosuchflag"},
		{"-threads", "notanumber"},
		{"-policies", "nosuch"},
		{"-probe-iters", "-1"},
		{"-min-gain", "1.5"},
		{"-bandwidth", "0"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
		{"-power-budget", "5", "-corun", "pagemine+mg"},
		{"-freq-ladder", "default", "-corun", "pagemine+mg"},
		{"-corun", "nosuch+mg"},
		{"-workload", "ed", "-threads", "1,2", "-power-budget", "5", "-policies", "hillclimb"},
		{"-workload", "ed", "-threads", "1,2", "-power-budget", "5", "-policies", "hybrid"},
	}
	for _, args := range cases {
		if code, _, errb := runSweep(args...); code != 2 {
			t.Errorf("fdtsweep %v = exit %d, want 2; stderr: %s", args, code, errb)
		}
	}
}

func TestSweepPowerBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated sweep")
	}
	code, out, errb := runSweep(
		"-workload", "ed", "-cores", "16", "-threads", "1,4",
		"-policies", "sat+bat", "-power-budget", "5.6")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"# ladder f2000>f1600>f1200>f800, budget 5.60",
		"freq=f", "energy=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q in:\n%s", want, out)
		}
	}
}

// policyNames loads the shared grammar table: name -> accepted.
func policyNames(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../testdata/policy_names.txt")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			names[f[0]] = f[1] == "accept"
		}
	}
	return names
}

// TestPolicyGrammar feeds every name of the shared grammar table to
// -policies; a rejected name must fail on the policy, an accepted one
// must get past it to the (unknown) workload.
func TestPolicyGrammar(t *testing.T) {
	for name, accept := range policyNames(t) {
		code, _, errb := runSweep("-policies", name, "-workload", "nosuch")
		if rejected := strings.Contains(errb, "policy"); code != 2 || rejected == accept {
			t.Errorf("fdtsweep -policies %q: exit %d, stderr %q; want accept=%v", name, code, errb, accept)
		}
	}
}
