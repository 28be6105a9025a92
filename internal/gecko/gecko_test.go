package gecko

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// testHarness bundles a small device, a block store over its last blocks, and
// a Logarithmic Gecko indexing its first blocks.
type testHarness struct {
	dev   *flash.Device
	store *metastore.BlockStore
	g     *Gecko
	cfg   Config
}

// newHarness builds a harness indexing the given number of user blocks.
// metaBlocks blocks at the top of the device hold the Gecko runs.
func newHarness(t testing.TB, userBlocks, pagesPerBlock, pageSize, metaBlocks int, mutate func(*Config)) *testHarness {
	t.Helper()
	devCfg := flash.ScaledConfig(userBlocks + metaBlocks)
	devCfg.PagesPerBlock = pagesPerBlock
	devCfg.PageSize = pageSize
	dev, err := flash.NewDevice(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []flash.BlockID
	for i := userBlocks; i < userBlocks+metaBlocks; i++ {
		blocks = append(blocks, flash.BlockID(i))
	}
	store, err := metastore.NewBlockStore(dev, blocks, flash.BlockGecko, flash.PurposePageValidity)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(userBlocks, pagesPerBlock, pageSize)
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	return &testHarness{dev: dev, store: store, g: g, cfg: cfg}
}

// model is a reference implementation: a full in-RAM PVB per block.
type model struct {
	pagesPerBlock int
	invalid       map[flash.BlockID]*bitmap.Bitmap
}

func newModel(pagesPerBlock int) *model {
	return &model{pagesPerBlock: pagesPerBlock, invalid: make(map[flash.BlockID]*bitmap.Bitmap)}
}

func (m *model) update(addr flash.Addr) {
	bm, ok := m.invalid[addr.Block]
	if !ok {
		bm = bitmap.New(m.pagesPerBlock)
		m.invalid[addr.Block] = bm
	}
	bm.Set(addr.Offset)
}

func (m *model) erase(block flash.BlockID) {
	m.invalid[block] = bitmap.New(m.pagesPerBlock)
}

func (m *model) query(block flash.BlockID) *bitmap.Bitmap {
	if bm, ok := m.invalid[block]; ok {
		return bm.Clone()
	}
	return bitmap.New(m.pagesPerBlock)
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(16, 128, 4096)
	if _, err := New(cfg, nil); err == nil {
		t.Error("nil store accepted")
	}
	cfg.SizeRatio = 1
	h := newHarness(t, 16, 128, 4096, 4, nil)
	if _, err := New(cfg, h.store); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestUpdateAndQuerySmall(t *testing.T) {
	h := newHarness(t, 64, 16, 512, 8, nil)
	// Invalidate three pages of block 5 and one of block 9.
	for _, a := range []flash.Addr{{Block: 5, Offset: 0}, {Block: 5, Offset: 7}, {Block: 5, Offset: 15}, {Block: 9, Offset: 3}} {
		if err := h.g.Update(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := h.g.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(setBits(got)) != 3 || !got.Get(0) || !got.Get(7) || !got.Get(15) {
		t.Errorf("query(5) = %v", setBits(got))
	}
	got, err = h.g.Query(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(setBits(got)) != 1 || !got.Get(3) {
		t.Errorf("query(9) = %v", setBits(got))
	}
	// A block never touched is fully valid.
	got, err = h.g.Query(33)
	if err != nil {
		t.Fatal(err)
	}
	if len(setBits(got)) != 0 {
		t.Errorf("query(33) = %v, want empty", setBits(got))
	}
}

func TestUpdateValidation(t *testing.T) {
	h := newHarness(t, 8, 16, 512, 2, nil)
	if err := h.g.Update(flash.Addr{Block: 8, Offset: 0}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := h.g.Update(flash.Addr{Block: 0, Offset: 16}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if err := h.g.RecordErase(9); err == nil {
		t.Error("out-of-range erase accepted")
	}
	if _, err := h.g.Query(-1); err == nil {
		t.Error("out-of-range query accepted")
	}
}

func TestEraseFlagStopsQueries(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 16, nil)
	// Fill enough updates to force several flushes so block 3's old
	// invalidations end up in flash runs.
	for off := 0; off < 16; off++ {
		if err := h.g.Update(flash.Addr{Block: 3, Offset: off}); err != nil {
			t.Fatal(err)
		}
	}
	for b := 10; b < 40; b++ {
		for off := 0; off < 8; off++ {
			if err := h.g.Update(flash.Addr{Block: flash.BlockID(b), Offset: off}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if h.g.RunCount() == 0 {
		t.Fatal("test setup: expected at least one flush")
	}
	// Erase block 3: all earlier invalidations become obsolete.
	if err := h.g.RecordErase(3); err != nil {
		t.Fatal(err)
	}
	got, err := h.g.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(setBits(got)) != 0 {
		t.Errorf("query after erase = %v, want empty", setBits(got))
	}
	// New invalidations after the erase are visible again.
	if err := h.g.Update(flash.Addr{Block: 3, Offset: 5}); err != nil {
		t.Fatal(err)
	}
	got, _ = h.g.Query(3)
	if len(setBits(got)) != 1 || !got.Get(5) {
		t.Errorf("query after re-invalidate = %v", setBits(got))
	}
}

func TestBufferFlushHappensAtV(t *testing.T) {
	h := newHarness(t, 256, 16, 256, 16, func(c *Config) { c.PartitionFactor = 1 })
	v := h.cfg.EntriesPerPage()
	// V-1 distinct blocks: no flush yet.
	for b := 0; b < v-1; b++ {
		if err := h.g.Update(flash.Addr{Block: flash.BlockID(b), Offset: 0}); err != nil {
			t.Fatal(err)
		}
	}
	if h.g.Stats().Flushes != 0 {
		t.Fatalf("premature flush after %d distinct entries (V=%d)", v-1, v)
	}
	if h.g.BufferLen() != v-1 {
		t.Fatalf("buffer len = %d, want %d", h.g.BufferLen(), v-1)
	}
	// The V-th distinct block triggers the flush.
	if err := h.g.Update(flash.Addr{Block: flash.BlockID(v - 1), Offset: 0}); err != nil {
		t.Fatal(err)
	}
	if h.g.Stats().Flushes != 1 {
		t.Errorf("flushes = %d, want 1", h.g.Stats().Flushes)
	}
	if h.g.BufferLen() != 0 {
		t.Errorf("buffer not drained after flush: %d", h.g.BufferLen())
	}
	// Exactly one page-validity flash write for V updates.
	c := h.dev.Counters()
	if got := c.Count(flash.OpPageWrite, flash.PurposePageValidity); got != 1 {
		t.Errorf("flash writes for first flush = %d, want 1", got)
	}
}

func TestUpdatesToSameBlockAreAbsorbed(t *testing.T) {
	h := newHarness(t, 256, 16, 256, 16, func(c *Config) { c.PartitionFactor = 1 })
	// Many updates to the same block create only one buffered entry.
	for off := 0; off < 16; off++ {
		if err := h.g.Update(flash.Addr{Block: 7, Offset: off}); err != nil {
			t.Fatal(err)
		}
	}
	if h.g.BufferLen() != 1 {
		t.Errorf("buffer len = %d, want 1 (absorption)", h.g.BufferLen())
	}
	if h.g.Stats().Flushes != 0 {
		t.Errorf("flushes = %d, want 0", h.g.Stats().Flushes)
	}
}

func TestPartitionedUpdatesCreateSubEntries(t *testing.T) {
	h := newHarness(t, 256, 128, 4096, 16, nil) // S = 4, 32-bit chunks
	// Two updates in different quarters of the block create two sub-entries.
	h.g.Update(flash.Addr{Block: 1, Offset: 0})
	h.g.Update(flash.Addr{Block: 1, Offset: 100})
	if h.g.BufferLen() != 2 {
		t.Errorf("buffer len = %d, want 2 sub-entries", h.g.BufferLen())
	}
	// Two updates in the same quarter are absorbed into one sub-entry.
	h.g.Update(flash.Addr{Block: 2, Offset: 10})
	h.g.Update(flash.Addr{Block: 2, Offset: 20})
	if h.g.BufferLen() != 3 {
		t.Errorf("buffer len = %d, want 3", h.g.BufferLen())
	}
	got, err := h.g.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Get(0) || !got.Get(100) || len(setBits(got)) != 2 {
		t.Errorf("query(1) = %v", setBits(got))
	}
}

func TestMergeMaintainsOneRunPerLevel(t *testing.T) {
	h := newHarness(t, 512, 16, 256, 64, func(c *Config) { c.PartitionFactor = 1 })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		addr := flash.Addr{Block: flash.BlockID(rng.Intn(512)), Offset: rng.Intn(16)}
		if err := h.g.Update(addr); err != nil {
			t.Fatal(err)
		}
	}
	// After every operation completes, no level may hold two runs.
	for level, runs := range h.g.levels {
		if len(runs) > 1 {
			t.Errorf("level %d holds %d runs", level, len(runs))
		}
	}
	if h.g.Stats().Merges == 0 {
		t.Error("expected at least one merge")
	}
}

func TestGCQueryReadsAtMostOnePagePerRunPlusStraddles(t *testing.T) {
	h := newHarness(t, 512, 16, 256, 64, func(c *Config) { c.PartitionFactor = 1 })
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		h.g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(512)), Offset: rng.Intn(16)})
	}
	runs := h.g.RunCount()
	before := h.g.Stats().QueryPageReads
	if _, err := h.g.Query(100); err != nil {
		t.Fatal(err)
	}
	reads := h.g.Stats().QueryPageReads - before
	// Without partitioning a block's entries never straddle pages, so the
	// query reads at most one page per run.
	if reads > int64(runs) {
		t.Errorf("query read %d pages with only %d runs", reads, runs)
	}
}

func TestAgainstModelUniformRandom(t *testing.T) {
	h := newHarness(t, 256, 16, 256, 64, nil)
	m := newModel(16)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		switch rng.Intn(10) {
		case 0:
			block := flash.BlockID(rng.Intn(256))
			if err := h.g.RecordErase(block); err != nil {
				t.Fatal(err)
			}
			m.erase(block)
		default:
			addr := flash.Addr{Block: flash.BlockID(rng.Intn(256)), Offset: rng.Intn(16)}
			if err := h.g.Update(addr); err != nil {
				t.Fatal(err)
			}
			m.update(addr)
		}
	}
	for b := 0; b < 256; b++ {
		got, err := h.g.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		want := m.query(flash.BlockID(b))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: gecko=%v model=%v", b, setBits(got), setBits(want))
		}
	}
}

func TestAgainstModelWithUnpartitionedEntries(t *testing.T) {
	h := newHarness(t, 128, 32, 512, 32, func(c *Config) { c.PartitionFactor = 1 })
	m := newModel(32)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		if rng.Intn(12) == 0 {
			block := flash.BlockID(rng.Intn(128))
			if err := h.g.RecordErase(block); err != nil {
				t.Fatal(err)
			}
			m.erase(block)
			continue
		}
		addr := flash.Addr{Block: flash.BlockID(rng.Intn(128)), Offset: rng.Intn(32)}
		if err := h.g.Update(addr); err != nil {
			t.Fatal(err)
		}
		m.update(addr)
	}
	for b := 0; b < 128; b++ {
		got, _ := h.g.Query(flash.BlockID(b))
		want := m.query(flash.BlockID(b))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d mismatch: gecko=%v model=%v", b, setBits(got), setBits(want))
		}
	}
}

func TestMultiWayMergeProducesSameAnswers(t *testing.T) {
	twoWay := newHarness(t, 128, 16, 256, 32, func(c *Config) { c.MultiWayMerge = false })
	multi := newHarness(t, 128, 16, 256, 32, func(c *Config) { c.MultiWayMerge = true })
	m := newModel(16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8000; i++ {
		if rng.Intn(15) == 0 {
			block := flash.BlockID(rng.Intn(128))
			twoWay.g.RecordErase(block)
			multi.g.RecordErase(block)
			m.erase(block)
			continue
		}
		addr := flash.Addr{Block: flash.BlockID(rng.Intn(128)), Offset: rng.Intn(16)}
		if err := twoWay.g.Update(addr); err != nil {
			t.Fatal(err)
		}
		if err := multi.g.Update(addr); err != nil {
			t.Fatal(err)
		}
		m.update(addr)
	}
	for b := 0; b < 128; b++ {
		w1, _ := twoWay.g.Query(flash.BlockID(b))
		w2, _ := multi.g.Query(flash.BlockID(b))
		want := m.query(flash.BlockID(b))
		if !reflect.DeepEqual(w1, want) || !reflect.DeepEqual(w2, want) {
			t.Fatalf("block %d: two-way=%v multi=%v model=%v", b, setBits(w1), setBits(w2), setBits(want))
		}
	}
	// The multi-way policy must not do more page writes than the two-way
	// policy under the same workload (that is its entire purpose).
	c1 := twoWay.dev.Counters()
	c2 := multi.dev.Counters()
	if c2.Count(flash.OpPageWrite, flash.PurposePageValidity) > c1.Count(flash.OpPageWrite, flash.PurposePageValidity) {
		t.Errorf("multi-way merging wrote more pages (%d) than two-way (%d)",
			c2.Count(flash.OpPageWrite, flash.PurposePageValidity),
			c1.Count(flash.OpPageWrite, flash.PurposePageValidity))
	}
}

func TestSpaceAmplificationStaysBounded(t *testing.T) {
	h := newHarness(t, 256, 16, 256, 128, func(c *Config) { c.PartitionFactor = 1 })
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 30000; i++ {
		h.g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(256)), Offset: rng.Intn(16)})
	}
	// Live flash pages must stay within ~2x the fully-merged size of one
	// entry per (block, sub-key) plus the current unmerged tail (one page
	// per level as slack).
	v := int64(h.cfg.EntriesPerPage())
	merged := int((h.cfg.MaxEntries() + v - 1) / v)
	bound := 2*merged + h.cfg.Levels()
	if got := h.g.FlashPages(); got > bound {
		t.Errorf("gecko occupies %d pages, bound %d", got, bound)
	}
}

// A run that holds an erase entry and a chunk entry for every key of every
// block is as large as a run gets: merging it must write LargestRunPages.
func TestLargestRunHoldsEveryKey(t *testing.T) {
	h := newHarness(t, 256, 64, 256, 64, nil)
	if h.cfg.PartitionFactor < 2 {
		t.Fatalf("partition factor %d: want sub-keys to partition", h.cfg.PartitionFactor)
	}
	for b := range flash.BlockID(256) {
		if err := h.g.RecordErase(b); err != nil {
			t.Fatal(err)
		}
		for sub := range h.cfg.PartitionFactor {
			if err := h.g.Update(flash.Addr{Block: b, Offset: sub * h.cfg.BitsPerEntry()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	var inputs []*run
	for level := range h.g.levels {
		inputs = append(inputs, h.g.levels[level]...)
		h.g.emptyLevel(level)
	}
	merged, err := h.g.mergeRuns(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.entryCount(), h.cfg.distinctKeys(); got != want {
		t.Fatalf("merged run holds %d entries, want one per key, %d", got, want)
	}
	if got, want := len(merged.pages), h.cfg.LargestRunPages(); got != want {
		t.Errorf("merged run has %d pages, LargestRunPages says %d", got, want)
	}
}

func TestEraseFlagAvoidsFlashIOPerErase(t *testing.T) {
	// Handling an erase must cost one buffer insertion, not O(L) flash IO.
	h := newHarness(t, 256, 16, 256, 32, nil)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(256)), Offset: rng.Intn(16)})
	}
	before := h.dev.Counters()
	if err := h.g.RecordErase(10); err != nil {
		t.Fatal(err)
	}
	delta := h.dev.Counters().Sub(before)
	// The only IO permitted is a buffer flush if the insert happened to
	// fill the buffer; with a fresh buffer slot that is at most one write.
	if delta.TotalOp(flash.OpPageRead) > 0 && h.g.Stats().Merges == 0 {
		t.Errorf("erase performed %d reads without a merge", delta.TotalOp(flash.OpPageRead))
	}
}

func TestFlushForcesBufferOut(t *testing.T) {
	h := newHarness(t, 64, 16, 512, 8, nil)
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.g.Stats().Flushes != 0 {
		t.Error("flushing an empty buffer should be a no-op")
	}
	h.g.Update(flash.Addr{Block: 1, Offset: 1})
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.g.Stats().Flushes != 1 || h.g.BufferLen() != 0 {
		t.Errorf("flush did not drain the buffer: %+v", h.g.Stats())
	}
	got, _ := h.g.Query(1)
	if !got.Get(1) {
		t.Error("flushed entry not found by query")
	}
}

func TestBufferLimitForcesEarlyFlush(t *testing.T) {
	h := newHarness(t, 256, 16, 4096, 16, func(c *Config) { c.BufferLimit = 10 })
	for i := 0; i < 10; i++ {
		// All updates hit the same block, so only 1 distinct entry exists;
		// the limit still forces a flush after 10 absorbed inserts.
		if err := h.g.Update(flash.Addr{Block: 3, Offset: i % 16}); err != nil {
			t.Fatal(err)
		}
	}
	if h.g.Stats().Flushes != 1 {
		t.Errorf("flushes = %d, want 1 (buffer limit)", h.g.Stats().Flushes)
	}
}

func TestRAMBytesAccounting(t *testing.T) {
	h := newHarness(t, 256, 16, 256, 64, nil)
	base := h.g.RAMBytes()
	if base < int64(h.cfg.PageSize) {
		t.Errorf("RAMBytes = %d, want at least one page for the buffer", base)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		h.g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(256)), Offset: rng.Intn(16)})
	}
	if h.g.RAMBytes() <= base {
		t.Error("run directories did not grow RAM usage")
	}
	multi := newHarness(t, 256, 16, 256, 64, func(c *Config) { c.MultiWayMerge = true })
	if multi.g.RAMBytes() <= base {
		t.Error("multi-way merge buffers not charged to RAM")
	}
}

func TestStatsProgression(t *testing.T) {
	h := newHarness(t, 64, 16, 512, 8, nil)
	h.g.Update(flash.Addr{Block: 1, Offset: 1})
	h.g.RecordErase(2)
	h.g.Query(1)
	st := h.g.Stats()
	if st.Updates != 1 || st.Erases != 1 || st.Queries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// Property: for random workloads, a query never reports a page invalid that
// the model says is valid (no false invalidations -- the property that
// protects live data), and never misses an invalid page (the property that
// protects against migrating stale data).
func TestQuickModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		devCfg := flash.ScaledConfig(64 + 32)
		devCfg.PagesPerBlock = 8
		devCfg.PageSize = 128
		dev, err := flash.NewDevice(devCfg)
		if err != nil {
			return false
		}
		var blocks []flash.BlockID
		for i := 64; i < 96; i++ {
			blocks = append(blocks, flash.BlockID(i))
		}
		store, err := metastore.NewBlockStore(dev, blocks, flash.BlockGecko, flash.PurposePageValidity)
		if err != nil {
			return false
		}
		cfg := DefaultConfig(64, 8, 128)
		g, err := New(cfg, store)
		if err != nil {
			return false
		}
		m := newModel(8)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if rng.Intn(8) == 0 {
				b := flash.BlockID(rng.Intn(64))
				if err := g.RecordErase(b); err != nil {
					return false
				}
				m.erase(b)
				continue
			}
			a := flash.Addr{Block: flash.BlockID(rng.Intn(64)), Offset: rng.Intn(8)}
			if err := g.Update(a); err != nil {
				return false
			}
			m.update(a)
		}
		for b := 0; b < 64; b++ {
			got, err := g.Query(flash.BlockID(b))
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, m.query(flash.BlockID(b))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestMergeOutputStaysOnItsInputsLevel pins mergeIfNeeded's floor: when erase
// entries leave a merge fewer pages than its inputs' level admits, the output
// still goes to the largest level the merge consumed, so that no newer run
// sits on a larger level than an older one. The floor is read before the
// merge, which hands its inputs on for reuse.
func TestMergeOutputStaysOnItsInputsLevel(t *testing.T) {
	h := newHarness(t, 64, 16, 512, 8, nil)
	// Two one-page runs, each lifted onto level 1 as if a larger merge had
	// shrunk to it.
	for b := flash.BlockID(0); b < 2; b++ {
		if err := h.g.Update(flash.Addr{Block: b, Offset: 1}); err != nil {
			t.Fatal(err)
		}
		if err := h.g.Flush(); err != nil {
			t.Fatal(err)
		}
		r := h.g.levels[0][0]
		h.g.emptyLevel(0)
		r.level = 1
		h.g.levels[1] = append(h.g.levels[1], r)
	}
	if err := h.g.mergeIfNeeded(); err != nil {
		t.Fatal(err)
	}
	if len(h.g.levels[0]) != 0 || len(h.g.levels[1]) != 1 || h.g.levels[1][0].level != 1 {
		t.Fatalf("after the merge, level 0 holds %v and level 1 %v; want the one output on level 1", h.g.levels[0], h.g.levels[1])
	}
	for b := flash.BlockID(0); b < 2; b++ {
		got, err := h.g.Query(b)
		if err != nil {
			t.Fatal(err)
		}
		if setBits(got)[0] != 1 || len(setBits(got)) != 1 {
			t.Fatalf("block %d answers %v, want [1]", b, setBits(got))
		}
	}
}

// setBits lists b's set bits in ascending order.
func setBits(b *bitmap.Bitmap) []int {
	out := []int{}
	for i := range b.Len() {
		if b.Get(i) {
			out = append(out, i)
		}
	}
	return out
}
