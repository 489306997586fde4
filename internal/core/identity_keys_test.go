package core

import (
	"os"
	"strings"
	"testing"

	"fdt/internal/machine"
)

// readGolden loads a key golden, one key per line.
func readGolden(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(data), "\n"), "\n")
}

// compareKeys diffs generated keys against a golden line by line.
func compareKeys(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("key count drifted: got %d, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d drifted:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// goldenKeys regenerates the run-cache content addresses that
// testdata/identity_keys_pr9.txt captured from the pre-DVFS tree: a
// spread of machine configs × policies × modes plus the monitor,
// hill-climb and hybrid key forms. The golden file is a hard identity
// pin — if any key changes, previously cached/persisted runs would be
// silently resimulated (or worse, collide), so a diff here is a
// compatibility break, not a test to update casually.
func goldenKeys() []string {
	cfgs := []machine.Config{
		machine.DefaultConfig(),
		machine.DefaultConfig().WithCores(16),
		machine.DefaultConfig().WithCores(8).WithBandwidth(0.5),
		machine.DefaultConfig().WithSMT(2),
	}
	pols := []Policy{Static{}, Static{N: 4}, SAT{}, BAT{}, Combined{}}
	var keys []string
	for _, cfg := range cfgs {
		key := func(wkey string, d Driver, md Mode) string {
			return RunSpec{Cfg: cfg, Workload: wkey, Driver: d, Mode: md}.Key()
		}
		for _, pol := range pols {
			for _, md := range []Mode{ExactMode(), SampledMode()} {
				keys = append(keys, key("pagemine", NewController(pol), md))
			}
		}
		keys = append(keys,
			key("ed", NewAdaptiveController(Combined{}, DefaultMonitorParams()), ExactMode()),
			key("ed", HillClimb{}, ExactMode()),
			key("ed", Hybrid{}, ExactMode()))
	}
	return keys
}

// TestRunCacheKeysIdentityPR9 pins every single-frequency run-cache
// key byte-identical to the pre-DVFS release: the trivial ladder must
// contribute nothing to ConfigKey and default PowerParams nothing to
// the run key (satellite 1's cache-key half; the counters half lives
// in internal/experiments).
func TestRunCacheKeysIdentityPR9(t *testing.T) {
	compareKeys(t, goldenKeys(), readGolden(t, "../../testdata/identity_keys_pr9.txt"))
	// Default power parameters must be invisible in run keys, so a
	// spec carrying them shares cache entries with one that omits them.
	if frag := DefaultPowerParams().key(); frag != "" {
		t.Errorf("DefaultPowerParams().key() = %q, want empty", frag)
	}
}

// TestRunCacheKeysFreqFragment is the counterpart: once the ladder or
// the power parameters are non-default they MUST appear in the key,
// so DVFS runs never collide with single-frequency ones.
func TestRunCacheKeysFreqFragment(t *testing.T) {
	base := machine.DefaultConfig()
	cfg := base.WithFreq(machine.DefaultLadder())
	key := ConfigKey(cfg)
	if !strings.HasPrefix(key, ConfigKey(base)) {
		t.Errorf("ladder key does not extend the flat key:\n%s", key)
	}
	wantFrag := "|freq/" + machine.DefaultLadder().Key()
	if !strings.HasSuffix(key, wantFrag) {
		t.Errorf("ladder key %q missing fragment %q", key, wantFrag)
	}
	if k2 := ConfigKey(base.WithFreq(machine.FreqConfig{})); k2 != ConfigKey(base) {
		t.Errorf("explicit trivial ladder changed the key: %q", k2)
	}

	pp := PowerParams{Budget: 4, LockState: -1}
	if got, want := pp.key(), "|power/b=4,lock=-1"; got != want {
		t.Errorf("PowerParams.key() = %q, want %q", got, want)
	}
	lock := PowerParams{Budget: 0, LockState: 2}
	if got, want := lock.key(), "|power/b=0,lock=2"; got != want {
		t.Errorf("lock-only key = %q, want %q", got, want)
	}
}

// runSpecKeys rebuilds, in order, the keys that
// testdata/identity_keys_runspec.txt captured from the per-variant
// entry points RunSpec replaced: power budgets and locked P-states,
// ladder-only machines, adaptive runs with and without a budget, tuned
// sampled modes, hill-climb/hybrid tuning, and sweeps. Duplicate lines
// are deliberate — equivalent runs (Static{} vs Static{N: cores},
// default vs omitted power) must share a key.
func runSpecKeys(t *testing.T) []string {
	ladder2, err := machine.LadderFromMHz([]int{2000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []machine.Config{
		machine.DefaultConfig(),
		machine.DefaultConfig().WithCores(16).WithFreq(machine.DefaultLadder()),
		machine.DefaultConfig().WithCores(8).WithBandwidth(0.5).WithFreq(ladder2),
	}
	tuned := SampledMode()
	tuned.Params.Tol = 0.02
	tuned.Params.WindowIters = 12
	tuned.Params = tuned.Params.WithDefaults()
	pols := []Policy{Static{}, Static{N: 1}, Static{N: 4}, Static{N: 64}, SAT{}, BAT{}, Combined{}}
	dflt := DefaultPowerParams()
	pps := []*PowerParams{{Budget: 4, LockState: -1}, {Budget: 0, LockState: 2}, {Budget: 5.6, LockState: 1}, &dflt}
	customMon := DefaultMonitorParams()
	customMon.Interval = 32
	mons := []MonitorParams{DefaultMonitorParams(), customMon}

	var keys []string
	add := func(s RunSpec) { keys = append(keys, s.Key()) }
	for _, cfg := range cfgs {
		for _, pol := range pols {
			for _, md := range []Mode{ExactMode(), SampledMode(), tuned} {
				add(RunSpec{Cfg: cfg, Workload: "pagemine", Driver: NewController(pol), Mode: md})
			}
		}
	}
	for _, cfg := range cfgs {
		for _, pp := range pps {
			for _, pol := range []Policy{Static{N: 4}, Combined{}} {
				for _, md := range []Mode{ExactMode(), tuned} {
					add(RunSpec{Cfg: cfg, Workload: "ed", Driver: NewController(pol), Mode: md, Power: pp})
				}
			}
		}
	}
	for _, cfg := range cfgs[:2] {
		for _, mp := range mons {
			for _, pol := range []Policy{Combined{}, SAT{}} {
				for _, md := range []Mode{ExactMode(), SampledMode()} {
					add(RunSpec{Cfg: cfg, Workload: "phaseshift", Driver: NewAdaptiveController(pol, mp), Mode: md})
				}
			}
		}
	}
	for _, cfg := range cfgs[1:] {
		for _, pp := range pps {
			add(RunSpec{Cfg: cfg, Workload: "phaseshift",
				Driver: NewAdaptiveController(Combined{}, DefaultMonitorParams()), Power: pp})
		}
	}
	for _, cfg := range cfgs[:2] {
		for _, hc := range []HillClimb{{}, {ProbeIters: 16}, {MinGain: 0.1}, {ProbeIters: 16, MinGain: 0.1}} {
			add(RunSpec{Cfg: cfg, Workload: "ep", Driver: hc})
		}
	}
	for _, cfg := range cfgs[:2] {
		for _, h := range []Hybrid{
			{},
			{HP: HybridParams{ProbeIters: 16, MinGain: 0.1}},
			{Policy: SAT{}},
			{Policy: BAT{}, HP: HybridParams{ProbeIters: 8}},
		} {
			add(RunSpec{Cfg: cfg, Workload: "gauntlet/drift", Driver: h})
		}
	}
	for _, cfg := range cfgs[1:] {
		for _, s := range []RunSpec{
			{Cfg: cfg, Workload: "mg", Mode: tuned},
			{Cfg: cfg, Workload: "mg", Power: &PowerParams{Budget: 4, LockState: -1}},
		} {
			for _, n := range []int{1, 4, 16} {
				s.Driver = NewController(Static{N: n})
				add(s)
			}
		}
	}
	return keys
}

// TestRunSpecKeysIdentity pins RunSpec.Key() to the keys the deleted
// per-variant entry points built, so disk stores written before the
// RunSpec refactor stay warm.
func TestRunSpecKeysIdentity(t *testing.T) {
	compareKeys(t, runSpecKeys(t), readGolden(t, "../../testdata/identity_keys_runspec.txt"))
}
