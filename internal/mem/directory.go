package mem

import (
	"math/bits"

	"fdt/internal/counters"
	"fdt/internal/invariant"
)

// Directory implements the distributed directory-based MESI protocol
// of Table 1. Each L3 bank owns the directory slice for its lines; the
// System layer charges ring latency to reach the slice, so the
// Directory itself is pure bookkeeping: who caches each line and in
// what state.
//
// States are tracked per line as either Shared (any number of clean
// copies) or Modified (exactly one owner whose private copy is
// authoritative). Exclusive is folded into Modified-clean: the timing
// consequences the paper's limiters depend on — invalidation
// round-trips and forced writebacks — are identical.
//
// Entries live in an open-addressed, linear-probing table keyed by
// line address. A slot whose sharer mask is 0 is empty: every live
// entry has at least one sharer, because Evict and Drop delete an
// entry when its last sharer leaves. Deletion shifts the rest of the
// probe run back (no tombstones), so probe chains do not lengthen over
// a long run, and the table doubles whenever it would pass half load.
// ForEach walks the slots in order, so the walk is a deterministic
// function of the operation sequence.
type Directory struct {
	slots []dirSlot // len is 0 or a power of two
	n     int       // live entries
	shift uint      // 64 - log2(len(slots)), for the multiplicative hash

	invals *counters.Counter
	wbs    *counters.Counter

	// ck/checked arm the continuous single-writer check after every
	// state transition.
	ck      *invariant.Checker
	checked bool

	// faultDropDowngrade is a mutation-test hook (see DESIGN.md
	// Section 10): when set, a read miss that hits a remote Modified
	// line still triggers the writeback but forgets to downgrade the
	// owner — a protocol bug the "dir-single-writer" invariant must
	// catch. Never set outside tests.
	faultDropDowngrade bool
}

// dirSlot is one table slot (24 bytes); sharers == 0 marks it empty.
type dirSlot struct {
	line     uint64
	sharers  uint64 // bitmask of cores with a copy
	owner    int32  // meaningful when modified
	modified bool
}

// dirMinSlots is the table size on first insertion.
const dirMinSlots = 64

// NewDirectory builds an empty directory and registers its counters.
// The table is allocated on first insertion.
func NewDirectory(ctrs *counters.Set) *Directory {
	return &Directory{
		invals: ctrs.Counter(counters.CoherenceInvalidations),
		wbs:    ctrs.Counter(counters.CoherenceWritebacks),
	}
}

// home is line's preferred slot (Fibonacci hashing: line addresses
// are dense runs, which the multiply spreads across the table).
func (d *Directory) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> d.shift)
}

// find probes for line. It returns line's slot and true, or the empty
// slot that ends its probe run and false; i is -1 when the table has
// not been allocated yet.
func (d *Directory) find(line uint64) (i int, ok bool) {
	if len(d.slots) == 0 {
		return -1, false
	}
	mask := len(d.slots) - 1
	for i = d.home(line); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.sharers == 0 {
			return i, false
		}
		if s.line == line {
			return i, true
		}
	}
}

// insertAt claims the empty slot i that find returned for line,
// growing the table first when one more entry would pass half load.
// It returns the slot the entry lives in.
func (d *Directory) insertAt(i int, line uint64) int {
	if 2*(d.n+1) > len(d.slots) {
		d.grow()
		i, _ = d.find(line)
	}
	d.slots[i].line = line
	d.n++
	return i
}

// grow doubles the table (or allocates the first one) and re-inserts
// every entry in slot order.
func (d *Directory) grow() {
	old := d.slots
	size := 2 * len(old)
	if size < dirMinSlots {
		size = dirMinSlots
	}
	d.slots = make([]dirSlot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.sharers == 0 {
			continue
		}
		i := d.home(s.line)
		for d.slots[i].sharers != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = s
	}
}

// deleteAt empties slot i by backward-shift deletion: each later
// entry of the probe run whose home does not lie cyclically in
// (i, j] moves back into the hole, so no lookup ever needs a
// tombstone.
func (d *Directory) deleteAt(i int) {
	mask := len(d.slots) - 1
	for j := (i + 1) & mask; d.slots[j].sharers != 0; j = (j + 1) & mask {
		h := d.home(d.slots[j].line)
		var stays bool
		if i <= j {
			stays = i < h && h <= j
		} else {
			stays = i < h || h <= j
		}
		if !stays {
			d.slots[i] = d.slots[j]
			i = j
		}
	}
	d.slots[i] = dirSlot{}
	d.n--
}

// ReadMiss records core obtaining a shared copy of line. If another
// core held the line modified, that owner is returned with
// needWriteback=true: the caller must charge the ownership-transfer
// latency and clean the owner's private copy.
func (d *Directory) ReadMiss(line uint64, core int) (needWriteback bool, owner int) {
	i, ok := d.find(line)
	if !ok {
		i = d.insertAt(i, line)
	}
	e := &d.slots[i]
	if e.modified && int(e.owner) != core {
		needWriteback = true
		owner = int(e.owner)
		d.wbs.Inc()
		if !d.faultDropDowngrade {
			e.modified = false
		}
	}
	e.sharers |= 1 << uint(core)
	d.checkEntry(e)
	return needWriteback, owner
}

// WriteMiss records core obtaining exclusive ownership of line. It
// returns the set of other cores whose copies must be invalidated and,
// if a different core held the line modified, that owner with
// needWriteback=true.
func (d *Directory) WriteMiss(line uint64, core int) (invalidate []int, needWriteback bool, owner int) {
	i, ok := d.find(line)
	if !ok {
		i = d.insertAt(i, line)
	}
	e := &d.slots[i]
	self := uint64(1) << uint(core)
	if others := e.sharers &^ self; others != 0 {
		invalidate = maskCores(others)
		d.invals.Add(uint64(len(invalidate)))
	}
	if e.modified && int(e.owner) != core {
		needWriteback = true
		owner = int(e.owner)
		d.wbs.Inc()
	}
	e.sharers, e.owner, e.modified = self, int32(core), true
	d.checkEntry(e)
	return invalidate, needWriteback, owner
}

// Evict records that core no longer caches line (private-hierarchy
// eviction). When the last sharer leaves, the entry is dropped.
func (d *Directory) Evict(line uint64, core int) {
	i, ok := d.find(line)
	if !ok {
		return
	}
	e := &d.slots[i]
	e.sharers &^= 1 << uint(core)
	if e.sharers == 0 {
		d.deleteAt(i)
		return
	}
	if e.modified && int(e.owner) == core {
		e.modified = false
	}
	d.checkEntry(e)
}

// Drop removes the directory entry entirely (L3 back-invalidation) and
// returns the cores that held copies so the caller can invalidate
// their private caches.
func (d *Directory) Drop(line uint64) (holders []int) {
	i, ok := d.find(line)
	if !ok {
		return nil
	}
	holders = maskCores(d.slots[i].sharers)
	d.deleteAt(i)
	return holders
}

// maskCores lists the cores of a sharer mask in ascending order.
func maskCores(s uint64) []int {
	out := make([]int, 0, bits.OnesCount64(s))
	for s != 0 {
		tz := bits.TrailingZeros64(s)
		out = append(out, tz)
		s &^= 1 << uint(tz)
	}
	return out
}

// setChecker arms the continuous single-writer check (called via
// System.SetChecker).
func (d *Directory) setChecker(ck *invariant.Checker) {
	d.ck = ck
	d.checked = true
}

// FaultDropDowngrade arms a mutation-test hook: read misses that force
// a remote writeback no longer downgrade the owner to Shared. The
// "dir-single-writer" invariant must catch it.
func (d *Directory) FaultDropDowngrade() { d.faultDropDowngrade = true }

// checkEntry verifies the MESI single-writer/multi-reader rule for one
// line after a state transition: a Modified line has exactly its owner
// as sharer. The directory has no clock, so violations carry cycle 0.
func (d *Directory) checkEntry(e *dirSlot) {
	if !d.checked {
		return
	}
	d.ck.Pass(1)
	if e.modified && e.sharers != 1<<uint(e.owner) {
		d.ck.Failf("dir-single-writer", 0,
			"line %#x modified by core %d but sharer mask is %#b (must be exactly the owner)",
			e.line, e.owner, e.sharers)
	}
}

// ForEach visits every directory entry in slot order (used by the
// quiescent directory-vs-cache coherence walk). fn must not modify
// the directory.
func (d *Directory) ForEach(fn func(line uint64, sharers uint64, owner int, modified bool)) {
	for i := range d.slots {
		if s := &d.slots[i]; s.sharers != 0 {
			fn(s.line, s.sharers, int(s.owner), s.modified)
		}
	}
}

// Sharers reports the cores currently recorded as caching line
// (test aid).
func (d *Directory) Sharers(line uint64) []int {
	i, ok := d.find(line)
	if !ok {
		return nil
	}
	return maskCores(d.slots[i].sharers)
}

// IsModified reports whether line is in Modified state and by whom
// (test aid).
func (d *Directory) IsModified(line uint64) (bool, int) {
	_, owner, mod := d.entry(line)
	return mod, owner
}

// entry reports line's sharer mask (0 when untracked) and, like
// IsModified, its Modified owner, or -1 when the line is not Modified.
func (d *Directory) entry(line uint64) (sharers uint64, owner int, modified bool) {
	i, ok := d.find(line)
	if !ok {
		return 0, -1, false
	}
	s := &d.slots[i]
	if !s.modified {
		return s.sharers, -1, false
	}
	return s.sharers, int(s.owner), true
}

// Entries reports how many lines the directory currently tracks.
func (d *Directory) Entries() int { return d.n }
