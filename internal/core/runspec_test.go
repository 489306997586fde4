package core

import (
	"fmt"
	"strings"
	"testing"

	"fdt/internal/invariant"
	"fdt/internal/machine"
)

// TestConflictTable pins each row of the option-conflict table: the
// rejections are errors, the sampled rows are notes that downgrade the
// spec to exact.
func TestConflictTable(t *testing.T) {
	ladder := machine.DefaultConfig().WithCores(8).WithFreq(machine.DefaultLadder())
	flat := machine.DefaultConfig().WithCores(8)
	for _, tc := range []struct {
		spec        RunSpec
		instruments Opt
		err, note   string
	}{
		{RunSpec{Cfg: flat, Driver: NewController(SAT{}), Mode: SampledMode()}, 0, "", ""},
		{RunSpec{Cfg: ladder, Driver: HillClimb{}}, 0, "policy hill-climb does not support a power budget", ""},
		{RunSpec{Cfg: flat, Driver: Hybrid{}, Power: &PowerParams{Budget: 3, LockState: -1}}, 0, "policy hybrid does not support a power budget", ""},
		{RunSpec{Cfg: flat, Driver: Hybrid{}}, OptCorun, "policy hybrid does not support co-runs", ""},
		{RunSpec{Cfg: ladder, Driver: NewController(SAT{})}, OptCorun, "co-runs do not support a power budget", ""},
		{RunSpec{Cfg: flat, Driver: NewController(SAT{}), Mode: SampledMode()}, OptCheck, "", "-check forces exact execution"},
		{RunSpec{Cfg: flat, Driver: NewController(SAT{}), Mode: SampledMode()}, OptTrace, "", "tracing forces exact execution"},
		{RunSpec{Cfg: flat, Driver: HillClimb{}, Mode: SampledMode()}, 0, "", "policy hill-climb forces exact execution"},
		{RunSpec{Cfg: ladder, Driver: NewAdaptiveController(Combined{}, DefaultMonitorParams()), Mode: SampledMode()}, 0, "", "adaptive re-training under a power budget"},
		{RunSpec{Cfg: flat, Driver: NewAdaptiveController(Combined{}, DefaultMonitorParams()), Mode: SampledMode()}, 0, "", ""},
		{RunSpec{Cfg: flat.WithCores(0), Driver: NewController(SAT{})}, 0, "Cores", ""},
	} {
		s := tc.spec
		note, err := s.Validate(tc.instruments)
		if got := fmt.Sprint(err); (tc.err == "") != (err == nil) || !strings.Contains(got, tc.err) {
			t.Errorf("%+v: err %v, want %q", tc.spec.Driver, err, tc.err)
		}
		if !strings.HasPrefix(note, tc.note) || (tc.note == "") != (note == "") {
			t.Errorf("%+v: note %q, want %q", tc.spec.Driver, note, tc.note)
		}
		if note != "" && s.Mode.Sampled {
			t.Errorf("%+v: note %q but the spec stayed sampled", tc.spec.Driver, note)
		}
	}
}

// TestEqualKeysRunTheSameCode: specs that share a Key must simulate
// identically, down to the invariant checks an armed checker runs.
// Explicit default power parameters on a single-frequency machine used
// to arm the DVFS search (which skips the Eq. 3/5/7 re-derivation)
// while keying like the plain run.
func TestEqualKeysRunTheSameCode(t *testing.T) {
	f := newSynthFactory(400, 2000, 50, 2)
	run := func(s RunSpec) string {
		ck := invariant.New()
		s.Factory = func(m *machine.Machine) Workload {
			m.AttachChecker(ck)
			return f(m)
		}
		r := Run(s)
		r.Policy = "" // display label only (static-all vs static-8)
		return fmt.Sprintf("%#v\n%s", r, ck.Report())
	}
	flat := machine.DefaultConfig().WithCores(8)
	dflt := DefaultPowerParams()
	for _, pair := range [][2]RunSpec{
		{{Cfg: flat, Driver: NewController(Combined{})}, {Cfg: flat, Driver: NewController(Combined{}), Power: &dflt}},
		{{Cfg: flat, Driver: NewController(Static{})}, {Cfg: flat, Driver: NewController(Static{N: 8})}},
		{{Cfg: flat, Driver: HillClimb{}}, {Cfg: flat, Driver: HillClimb{}, Mode: SampledMode()}},
	} {
		a, b := pair[0], pair[1]
		a.Workload, b.Workload = "synth/eqkey", "synth/eqkey"
		if a.Key() != b.Key() {
			t.Fatalf("keys differ:\n%s\n%s", a.Key(), b.Key())
		}
		a.Workload, b.Workload = "", "" // simulate both, bypassing the cache
		if ra, rb := run(a), run(b); ra != rb {
			t.Errorf("equal keys, different runs:\n%s\n%s", ra, rb)
		}
	}
}

// TestParseDriverGrammar checks the grammar's names, aliases and the
// static:N form resolve to the drivers they document.
func TestParseDriverGrammar(t *testing.T) {
	for name, want := range map[string]string{
		"sat": "policy/SAT", "BAT": "policy/BAT", "fdt": "policy/SAT+BAT", " combined ": "policy/SAT+BAT",
		"serial": "static/1", "static": "static/8", "static:3": "static/3", "static:99": "static/8",
		"hill-climb": "policy/hill-climb/{ProbeIters:0 MinGain:0}",
	} {
		d, err := ParseDriver(name)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if got := d.key(8); got != want {
			t.Errorf("%q keys as %q, want %q", name, got, want)
		}
	}
	if d, _ := ParseDriver("adaptive"); d.(*Controller).Monitor == nil {
		t.Error("adaptive is not monitored")
	}
	if _, ok := mustDriver(t, "hybrid").(Hybrid); !ok {
		t.Error("hybrid is not the Hybrid driver")
	}
	for _, row := range PolicyList() {
		if !strings.Contains(PolicyGrammar(), row[0]) {
			t.Errorf("-list row %q missing from the help grammar %q", row[0], PolicyGrammar())
		}
	}
}

func mustDriver(t *testing.T, name string) Driver {
	t.Helper()
	d, err := ParseDriver(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// FuzzRunSpec: ParseDriver and Validate are total (no panic on any
// input), a validated spec is never left sampled with a downgrade
// note, and Key is deterministic across calls and re-parses.
func FuzzRunSpec(f *testing.F) {
	f.Add("sat+bat", 32, 0.0, -1, false, false, uint8(0))
	f.Add("hybrid", 8, 4.0, -1, true, true, uint8(0))
	f.Add("static:4", 16, 0.0, 2, true, false, uint8(OptCheck|OptCorun))
	f.Fuzz(func(t *testing.T, policy string, cores int, budget float64, lock int, ladder, sampled bool, instruments uint8) {
		d, err := ParseDriver(policy)
		if err != nil {
			return
		}
		s := RunSpec{Cfg: machine.DefaultConfig().WithCores(cores), Workload: "w", Driver: d,
			Power: &PowerParams{Budget: budget, LockState: lock}}
		if ladder {
			s.Cfg = s.Cfg.WithFreq(machine.DefaultLadder())
		}
		if sampled {
			s.Mode = SampledMode()
		}
		note, _ := s.Validate(Opt(instruments))
		if note != "" && s.Mode.Sampled {
			t.Fatalf("note %q left the spec sampled", note)
		}
		again := s
		again.Driver = mustDriver(t, policy)
		if k := s.Key(); k != s.Key() || k != again.Key() {
			t.Fatalf("unstable key for %q: %q vs %q", policy, k, again.Key())
		}
	})
}
