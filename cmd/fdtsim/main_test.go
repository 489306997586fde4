package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListWorkloads(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"WORKLOADS", "NAME", "pagemine", "ed", "mtwister",
		"EXTRAS", "busburst", "phaseshift",
		"GAUNTLET", "gauntlet/oscillate", "gauntlet/csdep", "gauntlet/busstorm", "gauntlet/eqclash",
		"breaks: phases flip faster than the monitor interval",
		"COMBINATORS", "corun",
		"POLICIES", "sat+bat", "hillclimb", "hybrid",
		"MAPPINGS", "packed", "scattered", "smt",
		"MODES", "exact", "sampled",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
	// The gauntlet members print in their own section, not as extras.
	extras := out.String()[strings.Index(out.String(), "EXTRAS"):strings.Index(out.String(), "GAUNTLET")]
	if strings.Contains(extras, "gauntlet/") {
		t.Error("gauntlet members duplicated in the EXTRAS section")
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{"-workload", "nosuch"},
		{"-policy", "nosuch"},
		{"-nosuchflag"},
		{"-policy", "static:x"},
		{"-bandwidth", "0"},
		{"-corun", "nosuch+mg"},
		{"-corun", "pagemine"},
		{"-corun", "pagemine+mg", "-mapping", "nosuch"},
		{"-corun", "pagemine+mg", "-policy", "hillclimb"},
		{"-corun", "pagemine+mg", "-policy", "hybrid"},
		{"-corun", "pagemine+mg", "-mapping", "smt"}, // 1 SMT plane, 2 teams
		{"-probe-iters", "-1"},
		{"-min-gain", "1.5"},
		{"-min-gain", "-0.2"},
		{"-power-budget", "-1"},
		{"-freq-ladder", "notanumber"},
		{"-freq-ladder", "800,1600"}, // must be strictly descending
		{"-freq-ladder", "2000,2000"},
		{"-power-budget", "5", "-policy", "hillclimb"},
		{"-power-budget", "5", "-policy", "hybrid"},
		{"-power-budget", "5", "-corun", "pagemine+mg"},
		{"-freq-ladder", "default", "-corun", "pagemine+mg"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want exit 2; stderr: %s", args, code, errb.String())
		}
	}
}

func TestRunReportAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "pagemine", "-policy", "static:4",
		"-cores", "8", "-check", "-sparkline", "-counters"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"workload   pagemine", "exec time", "power",
		"invariants ok (", "verify     ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
}

func TestCorunReportAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated co-run")
	}
	var out, errb bytes.Buffer
	args := []string{"-corun", "pagemine+mg", "-mapping", "scattered",
		"-cores", "8", "-check", "-counters"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"corun      pagemine + mg (mapping scattered)",
		"makespan", "team t0:pagemine", "team t1:mg", "bus share",
		"invariants ok (", "verify     pagemine ok", "verify     mg ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("co-run report missing %q in:\n%s", want, out.String())
		}
	}
}

func TestHybridRunReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "gauntlet/oscillate", "-policy", "hybrid",
		"-cores", "8", "-probe-iters", "16", "-min-gain", "0.05"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"workload   gauntlet/oscillate", "policy     hybrid",
		"exec time", "verify     ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
		}
	}
	// The hybrid's probes always execute exactly, even under -sampled.
	out.Reset()
	errb.Reset()
	args = append(args, "-sampled")
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("-sampled exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "note: policy hybrid forces exact execution") {
		t.Errorf("missing exact-execution note in:\n%s", out.String())
	}
}

func TestTraceOutputParses(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	path := filepath.Join(t.TempDir(), "out.trace.json")
	var out, errb bytes.Buffer
	args := []string{"-workload", "ed", "-policy", "static:2",
		"-cores", "8", "-trace", path}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("-trace output has no events")
	}
	if doc.OtherData["workload"] != "ed" {
		t.Errorf("trace metadata workload = %q, want \"ed\"", doc.OtherData["workload"])
	}
}

func TestPowerBudgetRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulated run")
	}
	var out, errb bytes.Buffer
	args := []string{"-workload", "ed", "-policy", "sat+bat", "-cores", "16",
		"-power-budget", "5.6", "-check"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{
		"ladder f2000>f1600>f1200>f800, budget 5.60",
		"energy", "avg chip power, table-driven",
		"freq=f", "invariants ok (",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q in:\n%s", want, out.String())
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
// -policy; a rejected name must fail on the policy, an accepted one
// must get past it to the (unknown) workload.
func TestPolicyGrammar(t *testing.T) {
	for name, accept := range policyNames(t) {
		var out, errb bytes.Buffer
		code := run([]string{"-policy", name, "-workload", "nosuch"}, &out, &errb)
		if rejected := strings.Contains(errb.String(), "policy"); code != 2 || rejected == accept {
			t.Errorf("fdtsim -policy %q: exit %d, stderr %q; want accept=%v", name, code, errb.String(), accept)
		}
	}
}
