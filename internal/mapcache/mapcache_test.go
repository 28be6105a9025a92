package mapcache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"geckoftl/internal/flash"
)

const testEntriesPerTP = 512

func newTestCache(capacity int) *Cache { return New(capacity, testEntriesPerTP) }

func TestNewPanicsOnBadArguments(t *testing.T) {
	for _, c := range []struct{ capacity, perTP int }{{0, 1}, {-1, 1}, {1, 0}, {1, -5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.capacity, c.perTP)
				}
			}()
			New(c.capacity, c.perTP)
		}()
	}
}

func TestPutLookup(t *testing.T) {
	c := newTestCache(4)
	c.Put(Entry{Logical: 1, Physical: 100})
	c.Put(Entry{Logical: 2, Physical: 200, Dirty: true})

	e, ok := c.Lookup(1)
	if !ok || e.Physical != 100 || e.Dirty {
		t.Errorf("Lookup(1) = %+v, %v", e, ok)
	}
	e, ok = c.Lookup(2)
	if !ok || e.Physical != 200 || !e.Dirty {
		t.Errorf("Lookup(2) = %+v, %v", e, ok)
	}
	if _, ok := c.Lookup(3); ok {
		t.Error("Lookup(3) hit on missing entry")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestPutUpdatesExistingEntry(t *testing.T) {
	c := newTestCache(2)
	c.Put(Entry{Logical: 5, Physical: 50})
	ev := c.Put(Entry{Logical: 5, Physical: 51, Dirty: true})
	if ev.Valid {
		t.Error("updating an existing entry evicted something")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	e, _ := c.Peek(5)
	if e.Physical != 51 || !e.Dirty {
		t.Errorf("entry not updated: %+v", e)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newTestCache(3)
	c.Put(Entry{Logical: 1})
	c.Put(Entry{Logical: 2})
	c.Put(Entry{Logical: 3})
	// Touch 1 so that 2 becomes the LRU victim.
	c.Lookup(1)
	ev := c.Put(Entry{Logical: 4})
	if !ev.Valid || ev.Entry.Logical != 2 {
		t.Errorf("evicted %+v, want logical 2", ev)
	}
	if c.Contains(2) {
		t.Error("evicted entry still present")
	}
	for _, lpn := range []flash.LPN{1, 3, 4} {
		if !c.Contains(lpn) {
			t.Errorf("entry %d missing", lpn)
		}
	}
}

func TestDirtyEvictionIsReported(t *testing.T) {
	c := newTestCache(1)
	c.Put(Entry{Logical: 1, Dirty: true})
	ev := c.Put(Entry{Logical: 2})
	if !ev.Valid || !ev.Entry.Dirty || ev.Entry.Logical != 1 {
		t.Errorf("eviction = %+v, want dirty entry 1", ev)
	}
	if c.Len() != 1 || c.DirtyCount() != 0 || c.Contains(1) {
		t.Errorf("after evicting dirty entry 1: Len %d, DirtyCount %d, holds 1: %v", c.Len(), c.DirtyCount(), c.Contains(1))
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := newTestCache(2)
	c.Put(Entry{Logical: 1})
	c.Put(Entry{Logical: 2})
	c.Peek(1) // must NOT promote 1
	ev := c.Put(Entry{Logical: 3})
	if !ev.Valid || ev.Entry.Logical != 1 {
		t.Errorf("evicted %+v, want 1 (Peek must not promote)", ev)
	}
}

func TestUpdateFlags(t *testing.T) {
	c := newTestCache(4)
	c.Put(Entry{Logical: 1, Physical: 10, Dirty: true, UIP: true})
	ok := c.Update(1, func(e *Entry) {
		e.Dirty = false
		e.UIP = false
	})
	if !ok {
		t.Fatal("Update reported missing entry")
	}
	e, _ := c.Peek(1)
	if e.Dirty || e.UIP {
		t.Errorf("flags not cleared: %+v", e)
	}
	if c.Update(99, func(*Entry) {}) {
		t.Error("Update on missing entry returned true")
	}
}

func TestTranslationPageIndex(t *testing.T) {
	c := newTestCache(100)
	// Entries 0..511 are on translation page 0, 512..1023 on page 1.
	c.Put(Entry{Logical: 5, Dirty: true})
	c.Put(Entry{Logical: 200, Dirty: false})
	c.Put(Entry{Logical: 511, Dirty: true})
	c.Put(Entry{Logical: 512, Dirty: true})

	if got := c.TranslationPageOf(511); got != 0 {
		t.Errorf("TranslationPageOf(511) = %d, want 0", got)
	}
	if got := c.TranslationPageOf(512); got != 1 {
		t.Errorf("TranslationPageOf(512) = %d, want 1", got)
	}

	page0 := c.entriesOnPage(0)
	if len(page0) != 3 {
		t.Errorf("page 0 entries = %d, want 3", len(page0))
	}
	dirty0 := c.dirtyOnPage(0)
	if len(dirty0) != 2 {
		t.Errorf("page 0 dirty entries = %d, want 2", len(dirty0))
	}
	page1 := c.entriesOnPage(1)
	if len(page1) != 1 || page1[0].Logical != 512 {
		t.Errorf("page 1 entries = %+v", page1)
	}
	if got := c.entriesOnPage(7); got != nil {
		t.Errorf("empty page returned %v", got)
	}
}

func TestDirtyCount(t *testing.T) {
	c := newTestCache(10)
	for i := 0; i < 6; i++ {
		c.Put(Entry{Logical: flash.LPN(i), Dirty: i%2 == 0})
	}
	if got := c.DirtyCount(); got != 3 {
		t.Errorf("DirtyCount = %d, want 3", got)
	}
}

func TestForEachOrderAndEntries(t *testing.T) {
	c := newTestCache(10)
	for i := 0; i < 5; i++ {
		c.Put(Entry{Logical: flash.LPN(i)})
	}
	c.Lookup(0) // 0 becomes MRU
	got := c.entries()
	if len(got) != 5 {
		t.Fatalf("Entries len = %d", len(got))
	}
	if got[0].Logical != 0 {
		t.Errorf("MRU entry = %d, want 0", got[0].Logical)
	}
	// Early stop.
	count := 0
	c.ForEach(func(Entry) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("ForEach visited %d, want 2", count)
	}
}

// TestLeastRecentlyUsed requires the least recently used entry to be the
// one evicted even when a checkpoint symbol sits behind it, and the oldest
// dirty entry to be found past clean ones and the symbol.
func TestLeastRecentlyUsed(t *testing.T) {
	c := newTestCache(3)
	if _, ok := c.OldestDirty(); ok {
		t.Error("OldestDirty of empty cache reported an entry")
	}
	c.checkpointPages()
	c.Put(Entry{Logical: 1})
	c.Put(Entry{Logical: 2, Dirty: true})
	c.Put(Entry{Logical: 3, Dirty: true})
	if e, ok := c.OldestDirty(); !ok || e.Logical != 2 {
		t.Errorf("OldestDirty = %+v, %v, want 2", e, ok)
	}
	if ev := c.Put(Entry{Logical: 4}); !ev.Valid || ev.Entry.Logical != 1 {
		t.Errorf("evicted %+v, want 1", ev)
	}
	if ev := c.Put(Entry{Logical: 5}); !ev.Valid || ev.Entry.Logical != 2 || !ev.Entry.Dirty {
		t.Errorf("evicted %+v, want dirty 2", ev)
	}
	if e, ok := c.OldestDirty(); !ok || e.Logical != 3 {
		t.Errorf("OldestDirty after evicting 2 = %+v, %v, want 3", e, ok)
	}
}

func TestCheckpointSynchronizesLingeringDirtyEntries(t *testing.T) {
	// One entry per translation page: a marked page names its entry.
	c := New(10, 1)
	// Three dirty entries inserted early.
	c.Put(Entry{Logical: 1, Dirty: true})
	c.Put(Entry{Logical: 2, Dirty: true})
	c.Put(Entry{Logical: 3, Dirty: false})

	// First checkpoint: no previous symbol, so the scan covers everything.
	stale := c.checkpointPages()
	if !slices.Equal(stale, []int{1, 2}) {
		t.Fatalf("first checkpoint marked translation pages %v, want [1 2]", stale)
	}
	// The FTL would now synchronize them; emulate by clearing the flags.
	for _, tp := range stale {
		c.Update(flash.LPN(tp), func(en *Entry) { en.Dirty = false })
	}

	// New activity after the checkpoint.
	c.Put(Entry{Logical: 4, Dirty: true})
	c.Lookup(1)

	if c.opsSinceCheckpoint == 0 {
		t.Error("OpsSinceCheckpoint is 0 after a Put following the first checkpoint")
	}

	// Second checkpoint scans only entries older than the previous symbol:
	// entries 2 and 3 (entry 1 was touched, entry 4 is newer than the
	// symbol). None of those is dirty anymore.
	stale = c.checkpointPages()
	if len(stale) != 0 {
		t.Errorf("second checkpoint marked %v, want none", stale)
	}
	if c.opsSinceCheckpoint != 0 {
		t.Errorf("OpsSinceCheckpoint = %d after the second checkpoint, want 0", c.opsSinceCheckpoint)
	}
}

func TestCheckpointBoundsBackwardScan(t *testing.T) {
	// A dirty entry that keeps lingering at the LRU end without being
	// updated must be marked by the next checkpoint, so the recovery scan
	// never needs to look back more than 2C writes (Section 4.3).
	c := New(8, 1)
	c.Put(Entry{Logical: 0, Dirty: true})
	c.checkpointPages()
	for i := 1; i < 5; i++ {
		c.Put(Entry{Logical: flash.LPN(i), Dirty: true})
	}
	if stale := c.checkpointPages(); !slices.Contains(stale, 0) {
		t.Errorf("lingering dirty entry 0 not captured by checkpoint: marked %v", stale)
	}
}

func TestCheckpointDue(t *testing.T) {
	c := newTestCache(3)
	if c.CheckpointDue() {
		t.Error("fresh cache reports checkpoint due")
	}
	c.Put(Entry{Logical: 1})
	c.Put(Entry{Logical: 2})
	c.Put(Entry{Logical: 1}) // update counts too
	if !c.CheckpointDue() {
		t.Error("checkpoint not due after C operations")
	}
	c.checkpointPages()
	if c.CheckpointDue() {
		t.Error("checkpoint still due right after checkpointing")
	}
	if c.opsSinceCheckpoint != 0 {
		t.Errorf("OpsSinceCheckpoint = %d, want 0", c.opsSinceCheckpoint)
	}
}

func TestCheckpointSymbolsDoNotConsumeCapacity(t *testing.T) {
	c := newTestCache(2)
	c.Put(Entry{Logical: 1})
	c.checkpointPages()
	c.Put(Entry{Logical: 2})
	// Capacity 2 with 2 real entries; inserting a third evicts a real entry,
	// not the checkpoint symbol (which would silently lose an entry slot).
	ev := c.Put(Entry{Logical: 3})
	if !ev.Valid {
		t.Fatal("expected an eviction")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestClear(t *testing.T) {
	c := newTestCache(4)
	c.Put(Entry{Logical: 1, Dirty: true})
	c.checkpointPages()
	c.Clear()
	if c.Len() != 0 || c.Contains(1) {
		t.Error("Clear did not drop entries")
	}
	if len(c.entriesOnPage(0)) != 0 {
		t.Error("Clear did not drop the translation-page index")
	}
	// The cache must be fully usable after Clear.
	c.Put(Entry{Logical: 2})
	if !c.Contains(2) {
		t.Error("cache unusable after Clear")
	}
}

func TestRAMBytes(t *testing.T) {
	c := newTestCache(1 << 19)
	if got := c.RAMBytes(8); got != 8<<19 {
		t.Errorf("RAMBytes = %d, want %d", got, 8<<19)
	}
}

// TestNodeWidth pins a slab slot at 40 bytes: the entry and both chains'
// links, with the checkpoint symbol marked by a reserved Logical rather than
// a field of its own. Every slot of every shard's cache is one.
func TestNodeWidth(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 40 {
		t.Errorf("node is %d bytes, want 40", got)
	}
}

func TestUncertainFlagRoundTrip(t *testing.T) {
	c := newTestCache(4)
	c.Put(Entry{Logical: 9, Dirty: true, UIP: true, Uncertain: true})
	e, _ := c.Peek(9)
	if !e.Uncertain {
		t.Error("uncertain flag lost")
	}
	c.Update(9, func(en *Entry) { en.Uncertain = false })
	e, _ = c.Peek(9)
	if e.Uncertain {
		t.Error("uncertain flag not cleared")
	}
}

func TestPutNegativeLogicalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put with negative LPN did not panic")
		}
	}()
	newTestCache(1).Put(Entry{Logical: -3})
}

// Property: the cache never exceeds its capacity and always contains the
// most recently used entries of a random workload.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw)%32 + 1
		c := New(capacity, 64)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			lpn := flash.LPN(rng.Intn(100))
			switch rng.Intn(4) {
			case 0:
				c.Lookup(lpn)
			case 1:
				c.Peek(lpn)
			case 2:
				if c.CheckpointDue() {
					c.checkpointPages()
				}
			default:
				c.Put(Entry{Logical: lpn, Physical: flash.PPN(i), Dirty: rng.Intn(2) == 0})
			}
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the translation-page index is always consistent with the cache
// contents.
func TestQuickTranslationIndexConsistency(t *testing.T) {
	f := func(seed int64) bool {
		c := New(16, 8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			lpn := flash.LPN(rng.Intn(64))
			c.Put(Entry{Logical: lpn, Dirty: rng.Intn(2) == 0})
		}
		// Rebuild the expected index from Entries and compare.
		want := map[int][]flash.LPN{}
		for _, e := range c.entries() {
			tp := c.TranslationPageOf(e.Logical)
			want[tp] = append(want[tp], e.Logical)
		}
		for tp, lpns := range want {
			got := c.entriesOnPage(tp)
			if len(got) != len(lpns) {
				return false
			}
			gotSet := map[flash.LPN]bool{}
			for _, e := range got {
				gotSet[e.Logical] = true
			}
			for _, l := range lpns {
				if !gotSet[l] {
					return false
				}
			}
		}
		// No phantom pages in the index.
		total := 0
		for tp := 0; tp < 8; tp++ {
			total += len(c.entriesOnPage(tp))
		}
		return total == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every dirty entry's translation page is marked by one of two
// consecutive checkpoints or the entry was updated in between, which is the
// invariant behind the 2C bound on the recovery backwards scan. One entry per
// translation page, so a page stands for its one entry.
func TestQuickCheckpointCoverage(t *testing.T) {
	f := func(seed int64) bool {
		c := New(32, 1)
		rng := rand.New(rand.NewSource(seed))
		dirtySince := map[flash.LPN]bool{} // dirty entries never touched again
		for i := 0; i < 32; i++ {
			lpn := flash.LPN(rng.Intn(40))
			c.Put(Entry{Logical: lpn, Dirty: true})
			dirtySince[lpn] = true
		}
		reported := map[flash.LPN]bool{}
		for _, tp := range c.checkpointPages() {
			reported[flash.LPN(tp)] = true
		}
		for _, tp := range c.checkpointPages() {
			reported[flash.LPN(tp)] = true
		}
		for lpn, stillCached := range dirtySince {
			if !stillCached {
				continue
			}
			if c.Contains(lpn) && !reported[lpn] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEntriesSortedHelper(t *testing.T) {
	// AppendDirtyOnTranslationPage lists a page's dirty logical pages in
	// ascending order, whatever order they were put in, after what the
	// caller's slice already holds.
	c := newTestCache(10)
	for _, l := range []flash.LPN{9, 3, 7} {
		c.Put(Entry{Logical: l, Dirty: true})
	}
	if got, want := c.AppendDirtyOnTranslationPage([]flash.LPN{600}, 0), []flash.LPN{600, 3, 7, 9}; !slices.Equal(got, want) {
		t.Fatalf("logical pages = %v, want %v", got, want)
	}
}

func BenchmarkPutLookup(b *testing.B) {
	c := New(1<<16, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lpn := flash.LPN(i & (1<<17 - 1))
		c.Put(Entry{Logical: lpn, Physical: flash.PPN(i), Dirty: true})
		c.Lookup(lpn)
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	c := New(1<<12, 1024)
	for i := 0; i < 1<<12; i++ {
		c.Put(Entry{Logical: flash.LPN(i), Dirty: true})
	}
	tps := c.pageMarks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Checkpoint(tps)
		clear(tps)
	}
}

// BenchmarkMapcachePutEvict times a Put into a full cache: every call evicts
// the least recently used entry, unlinks it from its translation page and
// links the new entry into another, as every steady-state FTL write does.
func BenchmarkMapcachePutEvict(b *testing.B) {
	const capacity = 4096
	c := New(capacity, 1024)
	for i := 0; i < capacity; i++ {
		c.Put(Entry{Logical: flash.LPN(i), Dirty: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride coprime to the page count scatters consecutive puts over
		// the translation pages.
		c.Put(Entry{Logical: flash.LPN((capacity + i) * 7919 % (1 << 20)), Dirty: true})
	}
}

// benchCache is the cache of one shard of the benchmark device: 4096 entries
// spread uniformly over 359 translation pages of 512 logical pages, about 11
// to a page, every other one dirty.
func benchCache() (c *Cache, cached []flash.LPN, logicalPages int) {
	const capacity, perTP, pages = 4096, 512, 359
	c = New(capacity, perTP)
	rng := rand.New(rand.NewSource(1))
	for c.Len() < capacity {
		lpn := flash.LPN(rng.Intn(pages * perTP))
		c.Put(Entry{Logical: lpn, Physical: flash.PPN(lpn), Dirty: lpn%2 == 0})
	}
	for _, e := range c.entries() {
		cached = append(cached, e.Logical)
	}
	return c, cached, pages * perTP
}

// BenchmarkAppendDirtyOnTranslationPage times the range query a
// synchronization operation starts with, on every translation page in turn.
func BenchmarkAppendDirtyOnTranslationPage(b *testing.B) {
	c, _, logicalPages := benchCache()
	pages := logicalPages / 512
	lpns := make([]flash.LPN, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	entries := 0
	for i := 0; i < b.N; i++ {
		lpns = c.AppendDirtyOnTranslationPage(lpns[:0], i%pages)
		entries += len(lpns)
	}
	b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
}

// BenchmarkLookupHit times a Lookup of a cached logical page, promotion
// included, in an order unrelated to the queue's.
func BenchmarkLookupHit(b *testing.B) {
	c, cached, _ := benchCache()
	rand.New(rand.NewSource(2)).Shuffle(len(cached), func(i, j int) { cached[i], cached[j] = cached[j], cached[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(cached[i%len(cached)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLookupMiss times a Lookup of a logical page that is not cached.
func BenchmarkLookupMiss(b *testing.B) {
	c, _, logicalPages := benchCache()
	rng := rand.New(rand.NewSource(2))
	var absent []flash.LPN
	for len(absent) < 4096 {
		if lpn := flash.LPN(rng.Intn(logicalPages)); !c.Contains(lpn) {
			absent = append(absent, lpn)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(absent[i%len(absent)]); ok {
			b.Fatal("hit")
		}
	}
}
