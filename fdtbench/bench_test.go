package main

import (
	"fmt"
	"io"
	"testing"
	"time"

	"fdt/internal/core"
	"fdt/internal/machine"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true}, {10000, 99.9, true}, {50000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := percentile(xs, 90); got != 4.6 {
		t.Errorf("p90 = %g, want 4.6", got)
	}
}

func TestSelfTime(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{ID: 0, Parent: -1, Start: us(0), End: us(100)},
		{ID: 1, Parent: 0, Start: us(10), End: us(30)},
		{ID: 2, Parent: 0, Start: us(20), End: us(50)},  // overlaps span 1
		{ID: 3, Parent: 0, Start: us(90), End: us(120)}, // runs past its parent
		{ID: 4, Parent: 1, Start: us(12), End: us(18)},
	}
	want := []time.Duration{us(100 - 40 - 10), us(20 - 6), us(30), us(30), us(6)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDrawCoversTheSpace(t *testing.T) {
	d := newDrawer(7)
	cells := len(d.cells.cards)
	seen := map[runKey]bool{}
	for deck := 0; deck < len(sweepThreads); deck++ {
		inDeck := map[runKey]bool{}
		for i := 0; i < cells; i++ {
			k := d.next()
			inDeck[k] = true
			seen[k] = true
		}
		if len(inDeck) != cells {
			t.Fatalf("deck %d dealt %d distinct runs, want %d", deck, len(inDeck), cells)
		}
	}
	if want := len(space()); len(seen) != want {
		t.Errorf("%d decks dealt %d distinct runs, want the whole space of %d", len(sweepThreads), len(seen), want)
	}
	a, b := newDrawer(3), newDrawer(3)
	for i := 0; i < 100; i++ {
		if x, y := a.next(), b.next(); x != y {
			t.Fatalf("deal %d: same seed gave %v and %v", i, x, y)
		}
	}
}

// TestPerturbedExpectedFails checks that a run whose pinned result is
// off by one cycle, or whose harness event count disagrees, is counted
// as a failed operation.
func TestPerturbedExpectedFails(t *testing.T) {
	exp, err := loadExpected("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	k := runKey{"ep", "static:1"}
	for _, md := range []core.Mode{core.ExactMode(), core.SampledMode()} {
		if op := runOne(k, machine.DefaultConfig(), md, exp, nil); op.err != nil {
			t.Fatalf("sampled=%v: unperturbed run failed: %v", md.Sampled, op.err)
		}
	}

	x := exp.Runs[k.String()]
	x.Exact.Cycles++
	exp.Runs[k.String()] = x
	b := &bench{out: io.Discard}
	b.count(runOne(k, machine.DefaultConfig(), core.ExactMode(), exp, nil).err)
	if b.attempted != 1 || b.failed != 1 {
		t.Errorf("perturbed cycles: attempted %d failed %d, want 1 and 1", b.attempted, b.failed)
	}

	exp.HarnessEvents++
	b.crossCheck(exp)
	if b.attempted != 2 || b.failed != 2 {
		t.Errorf("perturbed harness events: attempted %d failed %d, want 2 and 2", b.attempted, b.failed)
	}
}

// TestRoundShape pins the service-mixed round: 0.2% writes and 1%
// stats polls at fixed places, and a write spec that never repeats.
func TestRoundShape(t *testing.T) {
	kinds := map[string]int{}
	for i := 0; i < roundOps; i++ {
		kinds[opKind(i)]++
	}
	if kinds["write"] != roundOps/writeEvery || kinds["stats"] != roundOps/statsEvery {
		t.Errorf("round of %d ops: %v", roundOps, kinds)
	}
	seen := map[string]bool{}
	for n := 0; n < 1000; n++ {
		s := writeSpec(n)
		key := fmt.Sprintf("%d/%g", s.Cores, s.Bandwidth)
		if seen[key] || s.Cores == 32 || s.Cores%8 != 0 {
			t.Fatalf("write spec %d: %+v repeats or is not a fresh machine", n, s)
		}
		seen[key] = true
	}
}
