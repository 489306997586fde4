package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"fdt/internal/core"
	"fdt/internal/workloads"
)

// sweepThreads are the static thread counts fdtreport -fast sweeps.
var sweepThreads = []int{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32}

// policyKinds are the controllers the figures place on each sweep:
// a static count (drawn from sweepThreads), train-once SAT+BAT, and
// the phase-adaptive controller.
var policyKinds = []string{"static", "sat+bat", "adaptive"}

// runKey names one cold run of the exact-mix/sampled-mix space.
type runKey struct {
	Workload string
	Policy   string // "static:N", "sat+bat" or "adaptive"
}

func (k runKey) String() string { return k.Workload + "|" + k.Policy }

// controller builds the controller a policy label names, configured
// as fdtreport and the fdtd sweep jobs configure it.
func (k runKey) controller(md core.Mode) (*core.Controller, error) {
	var ctl *core.Controller
	switch {
	case k.Policy == "sat+bat":
		ctl = core.NewController(core.Combined{})
	case k.Policy == "adaptive":
		ctl = core.NewAdaptiveController(core.Combined{}, core.DefaultMonitorParams())
	case strings.HasPrefix(k.Policy, "static:"):
		n, err := strconv.Atoi(strings.TrimPrefix(k.Policy, "static:"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad policy %q", k.Policy)
		}
		ctl = core.NewController(core.Static{N: n})
	default:
		return nil, fmt.Errorf("bad policy %q", k.Policy)
	}
	ctl.Mode = md
	return ctl, nil
}

// spec is the 1-point fdtd sweep job that runs k.
func (k runKey) spec(sampled bool) svcSpec {
	spec := svcSpec{Workload: k.Workload}
	if n, err := strconv.Atoi(strings.TrimPrefix(k.Policy, "static:")); err == nil {
		spec.Threads = []int{n}
	} else {
		spec.Policies = []string{k.Policy}
	}
	if sampled {
		spec.Mode = "sampled"
	}
	return spec
}

// space lists every run key: the twelve Table-2 workloads x the
// sweep's static counts plus the two trained controllers.
func space() []runKey {
	var out []runKey
	for _, info := range workloads.All() {
		for _, n := range sweepThreads {
			out = append(out, runKey{info.Name, fmt.Sprintf("static:%d", n)})
		}
		out = append(out, runKey{info.Name, "sat+bat"}, runKey{info.Name, "adaptive"})
	}
	return out
}

// deck deals a set's members in seeded random order without
// replacement, reshuffling once every member has been dealt, so any
// len(cards) consecutive deals cover the set exactly once.
type deck[T any] struct {
	cards []T
	next  int
	rng   *rand.Rand
}

func newDeck[T any](cards []T, rng *rand.Rand) *deck[T] {
	d := &deck[T]{cards: append([]T(nil), cards...), rng: rng}
	d.next = len(d.cards)
	return d
}

func (d *deck[T]) deal() T {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// drawer yields the seeded stream of run keys in decks of the 36
// (workload, policy kind) cells, each deck dealt in seeded order.
// Static thread counts follow a fixed rotation instead of a draw: in
// deck d, workload w runs static:sweepThreads[(5w+3d) mod 14], so a
// deck holds 12 distinct counts and 14 decks cover every (workload,
// count) pair once. Host times differ by 400x across the space, and a
// drawn count would make the percentiles of a window depend on the
// seed; the rotation keeps every window's mix the same.
type drawer struct {
	cells *deck[[2]string]
	index map[string]int // Table-2 position of each workload
	dealt int
}

func newDrawer(seed uint64) *drawer {
	rng := rand.New(rand.NewPCG(seed, 0x66647462656e6368))
	var cells [][2]string
	index := map[string]int{}
	for i, info := range workloads.All() {
		index[info.Name] = i
		for _, k := range policyKinds {
			cells = append(cells, [2]string{info.Name, k})
		}
	}
	return &drawer{cells: newDeck(cells, rng), index: index}
}

func (d *drawer) next() runKey {
	deckNo := d.dealt / len(d.cells.cards)
	d.dealt++
	c := d.cells.deal()
	if c[1] != "static" {
		return runKey{c[0], c[1]}
	}
	n := sweepThreads[(5*d.index[c[0]]+3*deckNo)%len(sweepThreads)]
	return runKey{c[0], fmt.Sprintf("static:%d", n)}
}
