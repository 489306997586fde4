package mem

import (
	"math/rand"
	"reflect"
	"testing"

	"fdt/internal/counters"
)

// dirModel is the reference the open-addressed Directory is checked
// against: the same MESI bookkeeping over a Go map.
type dirModel struct {
	entries     map[uint64]DirEntryState
	invals, wbs uint64
}

func (m *dirModel) readMiss(line uint64, core int) (bool, int) {
	e := m.entries[line]
	wb, owner := false, 0
	if e.Modified && e.Owner != core {
		wb, owner = true, e.Owner
		m.wbs++
		e.Modified = false
	}
	e.Sharers |= 1 << uint(core)
	m.entries[line] = e
	return wb, owner
}

func (m *dirModel) writeMiss(line uint64, core int) ([]int, bool, int) {
	e := m.entries[line]
	self := uint64(1) << uint(core)
	inval := modelCores(e.Sharers &^ self)
	m.invals += uint64(len(inval))
	wb, owner := false, 0
	if e.Modified && e.Owner != core {
		wb, owner = true, e.Owner
		m.wbs++
	}
	m.entries[line] = DirEntryState{Sharers: self, Owner: core, Modified: true}
	return inval, wb, owner
}

func (m *dirModel) evict(line uint64, core int) {
	e, ok := m.entries[line]
	if !ok {
		return
	}
	e.Sharers &^= 1 << uint(core)
	if e.Sharers == 0 {
		delete(m.entries, line)
		return
	}
	if e.Modified && e.Owner == core {
		e.Modified = false
	}
	m.entries[line] = e
}

func (m *dirModel) drop(line uint64) []int {
	e, ok := m.entries[line]
	if !ok {
		return nil
	}
	delete(m.entries, line)
	return modelCores(e.Sharers)
}

func (m *dirModel) sharers(line uint64) []int {
	return modelCores(m.entries[line].Sharers)
}

// modelCores lists a mask's cores in ascending order; nil when empty.
func modelCores(mask uint64) []int {
	var out []int
	for c := 0; c < 64; c++ {
		if mask&(1<<uint(c)) != 0 {
			out = append(out, c)
		}
	}
	return out
}

// dirCoverage records which table mechanics a sequence exercised.
type dirCoverage struct {
	grown, wrapped, shifted bool
}

// checkTable asserts the table's structural invariants: the entry
// count matches the occupied slots, load stays at most one half, and
// every entry is reachable from its home slot without crossing an
// empty slot. It also notes whether some probe run wraps past the end
// of the table.
func checkTable(t *testing.T, d *Directory, cov *dirCoverage) {
	t.Helper()
	n := 0
	for i, s := range d.slots {
		if s.sharers == 0 {
			continue
		}
		n++
		if got, ok := d.find(s.line); !ok || got != i {
			t.Fatalf("line %#x lives in slot %d but probing finds (%d, %v)", s.line, i, got, ok)
		}
		if i < d.home(s.line) {
			cov.wrapped = true
		}
	}
	if n != d.n || n != d.Entries() {
		t.Fatalf("%d occupied slots, entry count %d", n, d.n)
	}
	if 2*n > len(d.slots) {
		t.Fatalf("%d entries in %d slots exceeds half load", n, len(d.slots))
	}
	if len(d.slots) > dirMinSlots {
		cov.grown = true
	}
}

// displacedSuccessor reports whether deleting line's slot must shift
// a later entry back: the next slot holds an entry away from its home.
func displacedSuccessor(d *Directory, line uint64) bool {
	i, ok := d.find(line)
	if !ok {
		return false
	}
	j := (i + 1) & (len(d.slots) - 1)
	return d.slots[j].sharers != 0 && d.home(d.slots[j].line) != j
}

// runDirOps decodes ops three bytes at a time — kind, core, line — and
// applies each to a Directory and to the map model, failing on the
// first disagreement. Lines come from a space of 256 low addresses
// plus 256 far ones, small enough that entries collide, probe runs
// wrap, the table grows and deletions shift.
func runDirOps(t *testing.T, ops []byte) dirCoverage {
	t.Helper()
	ctrs := counters.NewSet()
	d := NewDirectory(ctrs)
	m := &dirModel{entries: map[uint64]DirEntryState{}}
	var cov dirCoverage
	for k := 0; k+3 <= len(ops); k += 3 {
		kind, core := ops[k]%8, int(ops[k+1]%64)
		line := uint64(ops[k+2])
		if ops[k]&8 != 0 {
			line |= 1 << 40
		}
		switch kind {
		case 0, 1:
			wb, owner := d.ReadMiss(line, core)
			mwb, mowner := m.readMiss(line, core)
			if wb != mwb || (wb && owner != mowner) {
				t.Fatalf("op %d ReadMiss(%#x, %d) = (%v, %d), model (%v, %d)", k/3, line, core, wb, owner, mwb, mowner)
			}
		case 2:
			inval, wb, owner := d.WriteMiss(line, core)
			minval, mwb, mowner := m.writeMiss(line, core)
			if !reflect.DeepEqual(inval, minval) || wb != mwb || (wb && owner != mowner) {
				t.Fatalf("op %d WriteMiss(%#x, %d) = (%v, %v, %d), model (%v, %v, %d)",
					k/3, line, core, inval, wb, owner, minval, mwb, mowner)
			}
		case 3:
			if displacedSuccessor(d, line) && m.entries[line].Sharers == 1<<uint(core) {
				cov.shifted = true
			}
			d.Evict(line, core)
			m.evict(line, core)
		case 4:
			if displacedSuccessor(d, line) {
				cov.shifted = true
			}
			if got, want := d.Drop(line), m.drop(line); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d Drop(%#x) = %v, model %v", k/3, line, got, want)
			}
		case 5:
			mod, owner := d.IsModified(line)
			e := m.entries[line]
			if mod != e.Modified || (mod && owner != e.Owner) || (!mod && owner != -1) {
				t.Fatalf("op %d IsModified(%#x) = (%v, %d), model %+v", k/3, line, mod, owner, e)
			}
			if got, want := d.Sharers(line), m.sharers(line); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d Sharers(%#x) = %v, model %v", k/3, line, got, want)
			}
		case 6:
			if d.Entries() != len(m.entries) {
				t.Fatalf("op %d Entries() = %d, model %d", k/3, d.Entries(), len(m.entries))
			}
			if st := d.State(); !reflect.DeepEqual(st, m.entries) {
				t.Fatalf("op %d State() differs from the model:\n got %v\nwant %v", k/3, st, m.entries)
			}
		case 7:
			// Round trip through a checkpoint; later ops run on the
			// restored table.
			st := d.State()
			d = NewDirectory(ctrs)
			d.Restore(st)
			if !reflect.DeepEqual(d.State(), st) {
				t.Fatalf("op %d: State→Restore→State changed the entries", k/3)
			}
		}
		checkTable(t, d, &cov)
	}
	if got := ctrs.Counter(counters.CoherenceInvalidations).Read(); got != m.invals {
		t.Fatalf("invalidation counter %d, model %d", got, m.invals)
	}
	if got := ctrs.Counter(counters.CoherenceWritebacks).Read(); got != m.wbs {
		t.Fatalf("writeback counter %d, model %d", got, m.wbs)
	}
	if st := d.State(); !reflect.DeepEqual(st, m.entries) {
		t.Fatalf("final State() differs from the model")
	}
	return cov
}

// TestDirectoryMatchesMapModel runs long random operation sequences
// against the map model, biased so that the live set swells past
// several table doublings and then drains, and checks that the
// sequences exercised growth, probe runs wrapping the table, and
// backward-shift deletion.
func TestDirectoryMatchesMapModel(t *testing.T) {
	var cov dirCoverage
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		var ops []byte
		for phase := 0; phase < 6; phase++ {
			fill := phase%2 == 0 // fill phases favour misses, drain phases evictions
			for i := 0; i < 2500; i++ {
				kind := byte(r.Intn(8))
				if fill && kind >= 3 && kind <= 4 && r.Intn(3) != 0 {
					kind = 0
				}
				if !fill && kind <= 2 && r.Intn(3) != 0 {
					kind = 3 + byte(r.Intn(2))
				}
				if kind == 7 && r.Intn(20) != 0 {
					kind = 6 // keep restores rare: each rebuilds the table
				}
				core := byte(r.Intn(64))
				if !fill && kind == 3 {
					core = byte(r.Intn(4)) // evictions that hit sharers
				} else if r.Intn(2) == 0 {
					core = byte(r.Intn(4))
				}
				ops = append(ops, kind|byte(r.Intn(2))<<3, core, byte(r.Intn(256)))
			}
		}
		c := runDirOps(t, ops)
		cov.grown = cov.grown || c.grown
		cov.wrapped = cov.wrapped || c.wrapped
		cov.shifted = cov.shifted || c.shifted
	}
	if !cov.grown || !cov.wrapped || !cov.shifted {
		t.Fatalf("sequences missed table mechanics: %+v", cov)
	}
}

// FuzzDirectory drives arbitrary operation sequences through the
// directory and the map model; see runDirOps for the encoding.
func FuzzDirectory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 7, 2, 2, 7, 5, 0, 7, 3, 2, 7, 6, 0, 0})
	f.Add([]byte{2, 63, 1, 0, 0, 1, 4, 0, 1, 7, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDirOps(t, ops)
	})
}

// TestDirectoryRestoreRejectsMalformedEntries: an entry no live
// directory can hold panics, as other malformed restores do.
func TestDirectoryRestoreRejectsMalformedEntries(t *testing.T) {
	for name, e := range map[string]DirEntryState{
		"no sharers":    {Sharers: 0},
		"owner too big": {Sharers: 1, Owner: 64, Modified: true},
		"owner below 0": {Sharers: 1, Owner: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Restore accepted %+v", name, e)
				}
			}()
			d, _ := newDir()
			d.Restore(map[uint64]DirEntryState{7: e})
		}()
	}
}

// TestDirectoryStartsEmpty: a fresh directory holds no table, so
// building a machine costs nothing for it.
func TestDirectoryStartsEmpty(t *testing.T) {
	d, _ := newDir()
	if d.slots != nil {
		t.Fatalf("fresh directory allocated %d slots", len(d.slots))
	}
	if mod, owner := d.IsModified(3); mod || owner != -1 || d.Sharers(3) != nil || d.Drop(3) != nil {
		t.Fatal("lookups on an empty directory found an entry")
	}
	d.Evict(3, 0)
	if d.Entries() != 0 || d.slots != nil {
		t.Fatal("Evict on an empty directory changed it")
	}
}

// BenchmarkDirectory times the directory transitions the memory walk
// makes, over a working set of 32 cores' worth of L2 lines (32768
// lines) held live in the table:
//
//   - read-miss: a core joins the sharers of a tracked line;
//   - write-miss-inval: a core takes ownership from the previous
//     writer, invalidating its copy and forcing a writeback;
//   - evict: a line's only sharer leaves and the entry is deleted;
//   - downgrade: a core reads a line another core holds Modified.
//
// One op is one transition.
func BenchmarkDirectory(b *testing.B) {
	cfg := DefaultConfig()
	const cores = 32
	w := cores * cfg.L2Bytes / cfg.LineBytes
	lines := make([]uint64, w)
	for i := range lines {
		lines[i] = 1<<14 + uint64(i) // dense, like the heap Alloc lays out
	}
	readFill := func(d *Directory) {
		for i, l := range lines {
			d.ReadMiss(l, i%cores)
		}
	}
	writeFill := func(d *Directory) {
		for i, l := range lines {
			d.WriteMiss(l, i%cores)
		}
	}
	for _, bc := range []struct {
		name string
		fill func(d *Directory) // builds the working set, untimed
		// refill: op consumes the state fill built, so fill runs
		// again, untimed, before every pass over the lines.
		refill bool
		op     func(d *Directory, i int)
	}{
		{"read-miss", readFill, false,
			func(d *Directory, i int) { d.ReadMiss(lines[i%w], (i/w+i+1)%cores) }},
		{"write-miss-inval", writeFill, false,
			func(d *Directory, i int) { d.WriteMiss(lines[i%w], (i/w+i+1)%cores) }},
		{"evict", readFill, true,
			func(d *Directory, i int) { d.Evict(lines[i%w], i%w%cores) }},
		{"downgrade", writeFill, true,
			func(d *Directory, i int) { d.ReadMiss(lines[i%w], (i+1)%cores) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, _ := newDir()
			bc.fill(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.refill && i > 0 && i%w == 0 {
					b.StopTimer()
					bc.fill(d)
					b.StartTimer()
				}
				bc.op(d, i)
			}
		})
	}
}
