package mem

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache(1024, 2, 64) // 16 lines, 8 sets
	if c.Lookup(5, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(5, false)
	if !c.Lookup(5, false) {
		t.Fatal("miss after insert")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache: lines mapping to the same set evict in LRU order.
	c := NewCache(2*64, 2, 64) // 1 set, 2 ways
	c.Insert(10, false)
	c.Insert(20, false)
	c.Lookup(10, false) // 10 is now MRU
	victim, _, evicted := c.Insert(30, false)
	if !evicted || victim != 20 {
		t.Errorf("victim = %d (evicted=%v), want 20", victim, evicted)
	}
	if !c.Contains(10) || !c.Contains(30) || c.Contains(20) {
		t.Error("cache contents wrong after LRU eviction")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache(2*64, 2, 64)
	c.Insert(1, true)
	c.Insert(2, false)
	victim, dirty, evicted := c.Insert(3, false)
	if !evicted || victim != 1 || !dirty {
		t.Errorf("victim=%d dirty=%v evicted=%v, want 1/true/true", victim, dirty, evicted)
	}
}

func TestCacheInsertExistingRefreshes(t *testing.T) {
	c := NewCache(2*64, 2, 64)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Insert(1, false) // refresh, no eviction
	victim, _, evicted := c.Insert(3, false)
	if !evicted || victim != 2 {
		t.Errorf("victim = %d, want 2 (LRU after refresh)", victim)
	}
}

func TestCacheLookupMarkDirty(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Insert(7, false)
	c.Lookup(7, true)
	_, wasDirty := c.Invalidate(7)
	if !wasDirty {
		t.Error("markDirty lookup did not set dirty bit")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Insert(9, true)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(9) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Error("second invalidate reported present")
	}
}

func TestCacheClean(t *testing.T) {
	c := NewCache(1024, 2, 64)
	c.Insert(3, true)
	c.Clean(3)
	_, dirty := c.Invalidate(3)
	if dirty {
		t.Error("Clean did not clear dirty bit")
	}
}

func TestCacheMarkDirty(t *testing.T) {
	c := NewCache(1024, 2, 64)
	if c.MarkDirty(4) {
		t.Error("MarkDirty on absent line reported present")
	}
	c.Insert(4, false)
	if !c.MarkDirty(4) {
		t.Error("MarkDirty on present line reported absent")
	}
	_, dirty := c.Invalidate(4)
	if !dirty {
		t.Error("MarkDirty did not set dirty bit")
	}
}

func TestCacheSetIndexSpreadsLines(t *testing.T) {
	// Sequential lines must land in distinct sets: filling twice the
	// way count of sequential lines in an 8-set cache must not evict.
	c := NewCache(16*64, 2, 64) // 8 sets, 2 ways
	for l := uint64(0); l < 16; l++ {
		if _, _, evicted := c.Insert(l, false); evicted {
			t.Fatalf("evicted while inserting line %d into non-full cache", l)
		}
	}
	if c.ValidLines() != 16 {
		t.Errorf("valid = %d, want 16", c.ValidLines())
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two set count")
		}
	}()
	NewCache(3*64, 1, 64)
}

func TestPropertyCacheNeverExceedsCapacity(t *testing.T) {
	f := func(lines []uint16) bool {
		c := NewCache(8*64, 2, 64)
		for _, l := range lines {
			c.Insert(uint64(l), l%2 == 0)
		}
		return c.ValidLines() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInsertedLineIsPresentUntilEvicted(t *testing.T) {
	// After inserting L, either L is present, or some later insert to
	// L's set evicted it — checked by tracking the victim stream.
	f := func(lines []uint16) bool {
		c := NewCache(8*64, 2, 64)
		present := map[uint64]bool{}
		for _, raw := range lines {
			l := uint64(raw % 64)
			victim, _, evicted := c.Insert(l, false)
			if evicted {
				delete(present, victim)
			}
			present[l] = true
			for want := range present {
				if !c.Contains(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The packed tag-array entry must stay two words and round-trip every
// state-bit combination and the widest LRU stamp through a checkpoint.
func TestCacheLinePackingRoundTrips(t *testing.T) {
	if sz := unsafe.Sizeof(cacheLine{}); sz != 16 {
		t.Errorf("cacheLine is %d bytes, want 16", sz)
	}
	const maxLRU = 1<<(64-lruShift) - 1
	c := NewCache(4*64, 4, 64) // 1 set, 4 ways
	st := CacheState{Tick: maxLRU, Lines: []CacheLineState{
		{Tag: 1, Valid: true, Dirty: true, LRU: maxLRU},
		{Tag: 2, Valid: true, LRU: 7},
		{Tag: 3, Dirty: true, LRU: 1},
		{},
	}}
	c.Restore(st)
	if got := c.State(); !reflect.DeepEqual(got, st) {
		t.Errorf("round trip = %+v, want %+v", got, st)
	}
	if !c.Dirty(1) || c.Dirty(2) || c.Contains(3) {
		t.Error("restored state bits read back wrong")
	}
}
