package mem

// Cache is a set-associative, LRU, line-addressed cache tag array.
// It tracks only tags and state bits — data values live in the
// workload's own Go memory; the simulator needs timing, not contents.
//
// All methods take line addresses (byte address / line size). A cache
// used as an L3 bank shard receives bank-local line addresses (line /
// banks) so sets spread correctly.
type Cache struct {
	sets int
	ways int
	tick uint64
	arr  []cacheLine // sets*ways, row-major

	// Statistics.
	Hits   uint64
	Misses uint64
	Evicts uint64
}

// cacheLine packs a tag-array entry into 16 bytes: the LRU stamp in
// the high 62 bits of meta, the dirty bit in bit 1 and the valid bit
// in bit 0. Two words instead of three keep the default machine's
// tag arrays a third smaller. Stamps come from the cache's tick, one
// per probe, so 62 bits never wrap.
type cacheLine struct {
	tag  uint64
	meta uint64
}

const (
	lineValid = 1 << 0
	lineDirty = 1 << 1
	lruShift  = 2
)

func packLine(tag uint64, valid, dirty bool, lru uint64) cacheLine {
	meta := lru << lruShift
	if valid {
		meta |= lineValid
	}
	if dirty {
		meta |= lineDirty
	}
	return cacheLine{tag: tag, meta: meta}
}

func (l *cacheLine) valid() bool { return l.meta&lineValid != 0 }
func (l *cacheLine) dirty() bool { return l.meta&lineDirty != 0 }
func (l *cacheLine) lru() uint64 { return l.meta >> lruShift }

// holds reports whether the entry is a valid copy of lineAddr.
func (l *cacheLine) holds(lineAddr uint64) bool {
	return l.valid() && l.tag == lineAddr
}

// touch stamps the entry as most recently used, keeping its state bits.
func (l *cacheLine) touch(tick uint64) {
	l.meta = tick<<lruShift | l.meta&(lineValid|lineDirty)
}

// NewCache builds a cache of the given capacity in bytes with the
// given associativity and line size. Capacity must be an exact
// multiple of ways*lineBytes and the resulting set count a power of
// two.
func NewCache(capacityBytes, ways, lineBytes int) *Cache {
	lines := capacityBytes / lineBytes
	sets := lines / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("mem: cache set count must be a positive power of two")
	}
	return &Cache{
		sets: sets,
		ways: ways,
		arr:  make([]cacheLine, sets*ways),
	}
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways reports the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) set(lineAddr uint64) []cacheLine {
	s := int(lineAddr) & (c.sets - 1)
	return c.arr[s*c.ways : (s+1)*c.ways]
}

// Lookup probes for the line. On a hit it refreshes LRU state, sets
// the dirty bit when markDirty is true, and returns true.
func (c *Cache) Lookup(lineAddr uint64, markDirty bool) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			c.tick++
			set[i].touch(c.tick)
			if markDirty {
				set[i].meta |= lineDirty
			}
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Contains probes for the line without touching LRU or statistics.
func (c *Cache) Contains(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			return true
		}
	}
	return false
}

// Insert places the line (overwriting any stale copy) and reports the
// victim if a valid line had to be evicted.
func (c *Cache) Insert(lineAddr uint64, dirty bool) (victim uint64, victimDirty, evicted bool) {
	set := c.set(lineAddr)
	c.tick++
	// Refresh an existing copy in place.
	for i := range set {
		if set[i].holds(lineAddr) {
			set[i].touch(c.tick)
			if dirty {
				set[i].meta |= lineDirty
			}
			return 0, false, false
		}
	}
	// Prefer an invalid way.
	for i := range set {
		if !set[i].valid() {
			set[i] = packLine(lineAddr, true, dirty, c.tick)
			return 0, false, false
		}
	}
	// Evict the LRU way.
	vi := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru() < set[vi].lru() {
			vi = i
		}
	}
	victim, victimDirty = set[vi].tag, set[vi].dirty()
	set[vi] = packLine(lineAddr, true, dirty, c.tick)
	c.Evicts++
	return victim, victimDirty, true
}

// Invalidate drops the line if present, reporting whether it was
// present and whether it was dirty (the caller owes a writeback for
// dirty invalidations).
func (c *Cache) Invalidate(lineAddr uint64) (present, wasDirty bool) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			present, wasDirty = true, set[i].dirty()
			set[i] = cacheLine{}
			return present, wasDirty
		}
	}
	return false, false
}

// MarkDirty sets the dirty bit of the line if present, without
// touching LRU order or statistics, and reports whether the line was
// present (used for posted writebacks from a private L2 into the L3).
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			set[i].meta |= lineDirty
			return true
		}
	}
	return false
}

// Clean clears the dirty bit of the line if present (used when the
// directory forces a writeback from a remote owner).
func (c *Cache) Clean(lineAddr uint64) {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			set[i].meta &^= lineDirty
			return
		}
	}
}

// Dirty reports whether the line is present with its dirty bit set,
// without touching LRU order or statistics.
func (c *Cache) Dirty(lineAddr uint64) bool {
	set := c.set(lineAddr)
	for i := range set {
		if set[i].holds(lineAddr) {
			return set[i].dirty()
		}
	}
	return false
}

// ForEachLine visits every valid line (used by the quiescent
// coherence walk).
func (c *Cache) ForEachLine(fn func(lineAddr uint64, dirty bool)) {
	for i := range c.arr {
		if c.arr[i].valid() {
			fn(c.arr[i].tag, c.arr[i].dirty())
		}
	}
}

// ValidLines reports how many lines are currently valid (test aid).
func (c *Cache) ValidLines() int {
	n := 0
	for i := range c.arr {
		if c.arr[i].valid() {
			n++
		}
	}
	return n
}

// ResetStats clears hit/miss/evict counters without touching contents.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evicts = 0, 0, 0
}
