package runflags

import (
	"flag"
	"io"
	"testing"

	"fdt/internal/core"
	"fdt/internal/machine"
)

// TestGroupsRegisterOnlyTheirFlags: a CLI gains no flag it did not ask
// for, and a spec built without the machine group keeps the default
// machine byte for byte (fdtreport's cache keys depend on it).
func TestGroupsRegisterOnlyTheirFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, Sampled|Power)
	for _, name := range []string{"cores", "bandwidth", "sample-tol", "probe-iters"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s registered outside its group", name)
		}
	}
	if err := fs.Parse([]string{"-sampled"}); err != nil {
		t.Fatal(err)
	}
	s, note, err := f.Spec("", 0)
	if err != nil || note != "" {
		t.Fatalf("Spec: note %q, err %v", note, err)
	}
	if core.ConfigKey(s.Cfg) != core.ConfigKey(machine.DefaultConfig()) || !s.Mode.Sampled {
		t.Errorf("spec drifted from the default machine in sampled mode: %+v", s)
	}
}

// TestSpecTunesProbingDrivers: -probe-iters and -min-gain reach the
// hill-climb and hybrid drivers, and -sampled yields to them with the
// conflict table's note.
func TestSpecTunesProbingDrivers(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, All)
	if err := fs.Parse([]string{"-probe-iters", "16", "-min-gain", "0.1", "-sampled"}); err != nil {
		t.Fatal(err)
	}
	s, note, err := f.Spec("hill-climb", 0)
	if err != nil {
		t.Fatal(err)
	}
	if hc := s.Driver.(core.HillClimb); hc.ProbeIters != 16 || hc.MinGain != 0.1 {
		t.Errorf("hill-climb tuning = %+v", hc)
	}
	if note == "" || s.Mode.Sampled {
		t.Errorf("sampled hill-climb: note %q, sampled %v", note, s.Mode.Sampled)
	}
	s, _, err = f.Spec("hybrid", 0)
	if hy := s.Driver.(core.Hybrid); err != nil || hy.HP.ProbeIters != 16 || hy.HP.MinGain != 0.1 {
		t.Errorf("hybrid tuning = %+v, err %v", hy.HP, err)
	}
}
