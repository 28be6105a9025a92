package pvl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

func newHarness(t *testing.T, blocks, pagesPerBlock, pageSize, metaBlocks, maxEntries int) (*flash.Device, *Log) {
	t.Helper()
	devCfg := flash.ScaledConfig(blocks + metaBlocks)
	devCfg.PagesPerBlock = pagesPerBlock
	devCfg.PageSize = pageSize
	dev, err := flash.NewDevice(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	var metaIDs []flash.BlockID
	for i := blocks; i < blocks+metaBlocks; i++ {
		metaIDs = append(metaIDs, flash.BlockID(i))
	}
	store, err := metastore.NewBlockStore(dev, metaIDs, flash.BlockGecko, flash.PurposePageValidity)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(Config{Blocks: blocks, PagesPerBlock: pagesPerBlock, PageSize: pageSize, MaxEntries: maxEntries}, store)
	if err != nil {
		t.Fatal(err)
	}
	return dev, l
}

func TestConfigValidation(t *testing.T) {
	good := Config{Blocks: 16, PagesPerBlock: 8, PageSize: 512}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Blocks: 0, PagesPerBlock: 8, PageSize: 512},
		{Blocks: 16, PagesPerBlock: 0, PageSize: 512},
		{Blocks: 16, PagesPerBlock: 8, PageSize: 0},
		{Blocks: 16, PagesPerBlock: 8, PageSize: 4},
		{Blocks: 16, PagesPerBlock: 8, PageSize: 512, MaxEntries: -1},
		{Blocks: 16, PagesPerBlock: maxPagesPerBlock + 1, PageSize: 512},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(good, nil); err == nil {
		t.Error("nil store accepted")
	}
}

func TestDefaultBoundIsTwiceOverProvisionedSpace(t *testing.T) {
	_, l := newHarness(t, 100, 10, 512, 16, 0)
	physical := 100 * 10
	d := physical - int(0.7*float64(physical))
	if got := l.max; got != 2*d {
		t.Errorf("default bound = %d, want %d", got, 2*d)
	}
}

func TestUpdateAndQuery(t *testing.T) {
	_, l := newHarness(t, 32, 8, 512, 16, 0)
	for _, a := range []flash.Addr{{Block: 2, Offset: 0}, {Block: 2, Offset: 7}, {Block: 5, Offset: 3}} {
		if err := l.Update(a); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.Query(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(setBits(got)) != 2 || !got.Get(0) || !got.Get(7) {
		t.Errorf("query(2) = %v", setBits(got))
	}
	got, _ = l.Query(5)
	if len(setBits(got)) != 1 || !got.Get(3) {
		t.Errorf("query(5) = %v", setBits(got))
	}
	got, _ = l.Query(9)
	if len(setBits(got)) != 0 {
		t.Errorf("untouched block = %v", setBits(got))
	}
}

func TestOutOfRange(t *testing.T) {
	_, l := newHarness(t, 8, 8, 512, 4, 0)
	if err := l.Update(flash.Addr{Block: 8, Offset: 0}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := l.Update(flash.Addr{Block: 0, Offset: 8}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if err := l.RecordErase(-1); err == nil {
		t.Error("negative erase accepted")
	}
	if _, err := l.Query(8); err == nil {
		t.Error("out-of-range query accepted")
	}
}

func TestEraseHidesOlderEntries(t *testing.T) {
	_, l := newHarness(t, 32, 8, 512, 16, 0)
	l.Update(flash.Addr{Block: 4, Offset: 1})
	l.Update(flash.Addr{Block: 4, Offset: 2})
	if err := l.RecordErase(4); err != nil {
		t.Fatal(err)
	}
	got, _ := l.Query(4)
	if len(setBits(got)) != 0 {
		t.Errorf("query after erase = %v", setBits(got))
	}
	// New invalidations after the erase are visible.
	l.Update(flash.Addr{Block: 4, Offset: 6})
	got, _ = l.Query(4)
	if len(setBits(got)) != 1 || !got.Get(6) {
		t.Errorf("query after re-update = %v", setBits(got))
	}
}

func TestBufferedUpdatesFlushAsOnePageWrite(t *testing.T) {
	dev, l := newHarness(t, 64, 8, 512, 16, 0)
	per := l.cfg.EntriesPerPage()
	for i := 0; i < per-1; i++ {
		if err := l.Update(flash.Addr{Block: flash.BlockID(i % 64), Offset: i % 8}); err != nil {
			t.Fatal(err)
		}
	}
	c := dev.Counters()
	if c.TotalOp(flash.OpPageWrite) != 0 {
		t.Fatalf("premature flush: %d writes", c.TotalOp(flash.OpPageWrite))
	}
	if err := l.Update(flash.Addr{Block: 63, Offset: 7}); err != nil {
		t.Fatal(err)
	}
	c = dev.Counters()
	if c.Count(flash.OpPageWrite, flash.PurposePageValidity) != 1 {
		t.Errorf("writes after %d updates = %d, want 1", per, c.TotalOp(flash.OpPageWrite))
	}
}

func TestCleaningBoundsLogSize(t *testing.T) {
	// Default bound: twice the over-provisioned space (2*D).
	dev, l := newHarness(t, 32, 8, 256, 64, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if rng.Intn(6) == 0 {
			if err := l.RecordErase(flash.BlockID(rng.Intn(32))); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := l.Update(flash.Addr{Block: flash.BlockID(rng.Intn(32)), Offset: rng.Intn(8)}); err != nil {
			t.Fatal(err)
		}
	}
	// The cleaning keeps the live entry count near the bound, discarding
	// obsolete entries; reinsertion and undiscardable pages can exceed it
	// only by a modest factor.
	if got := l.Entries(); got > 2*l.max {
		t.Errorf("log holds %d entries, bound %d", got, l.max)
	}
	// Nothing queried: every page read is a cleaning pass reading a log page.
	if io := dev.Counters(); io.TotalOp(flash.OpPageRead) == 0 {
		t.Error("expected cleanings to have run")
	}
}

func TestCleaningPreservesAnswers(t *testing.T) {
	_, l := newHarness(t, 16, 8, 256, 64, 30)
	reference := make(map[flash.BlockID]*bitmap.Bitmap)
	query := func(b flash.BlockID) *bitmap.Bitmap {
		if bm, ok := reference[b]; ok {
			return bm
		}
		bm := bitmap.New(8)
		reference[b] = bm
		return bm
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		if rng.Intn(5) == 0 {
			b := flash.BlockID(rng.Intn(16))
			if err := l.RecordErase(b); err != nil {
				t.Fatal(err)
			}
			query(b).Reset()
			continue
		}
		a := flash.Addr{Block: flash.BlockID(rng.Intn(16)), Offset: rng.Intn(8)}
		if err := l.Update(a); err != nil {
			t.Fatal(err)
		}
		query(a.Block).Set(a.Offset)
	}
	for b := 0; b < 16; b++ {
		got, err := l.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, query(flash.BlockID(b))) {
			t.Fatalf("block %d: log=%v reference=%v", b, setBits(got), setBits(query(flash.BlockID(b))))
		}
	}
}

// TestLogEntryWidth pins the host image of a log entry: EntryBytes' fields
// at their widths, padded to 24 bytes.
func TestLogEntryWidth(t *testing.T) {
	if got := unsafe.Sizeof(logEntry{}); got != 24 {
		t.Errorf("a log entry takes %d bytes, want 24", got)
	}
}

// TestUndiscardableLogGrows drives the log past its ring with a bound of one
// page and no erases, so that no cleaning pass can discard anything: the log
// degrades to a larger one, and every entry and answer survives the ring's
// doubling.
func TestUndiscardableLogGrows(t *testing.T) {
	dev, l := newHarness(t, 16, 8, 256, 64, 11)
	ring := len(l.ring)
	ref := make([]*bitmap.Bitmap, 16)
	for i := range ref {
		ref[i] = bitmap.New(8)
	}
	rng := rand.New(rand.NewSource(3))
	const updates = 200
	for range updates {
		a := flash.Addr{Block: flash.BlockID(rng.Intn(16)), Offset: rng.Intn(8)}
		if err := l.Update(a); err != nil {
			t.Fatal(err)
		}
		ref[a.Block].Set(a.Offset)
	}
	// Nothing queried yet: every page read is a cleaning pass. The entry
	// count below shows none discarded anything.
	if io := dev.Counters(); io.TotalOp(flash.OpPageRead) == 0 {
		t.Fatal("no cleaning pass ran")
	}
	if l.Entries() != updates || len(l.ring) < updates || ring >= updates {
		t.Fatalf("%d entries in a ring of %d, grown from %d; want %d entries", l.Entries(), len(l.ring), ring, updates)
	}
	for b := range ref {
		got, err := l.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref[b]) {
			t.Errorf("block %d: log=%v reference=%v", b, setBits(got), setBits(ref[b]))
		}
	}
}

func TestRAMBytesGrowsWithBlocks(t *testing.T) {
	_, small := newHarness(t, 16, 8, 512, 8, 0)
	_, large := newHarness(t, 256, 8, 512, 8, 0)
	if small.RAMBytes() >= large.RAMBytes() {
		t.Errorf("RAM footprint does not grow with block count: %d vs %d", small.RAMBytes(), large.RAMBytes())
	}
}

func TestFlushForcesBufferedEntriesOut(t *testing.T) {
	dev, l := newHarness(t, 16, 8, 512, 8, 0)
	l.Update(flash.Addr{Block: 1, Offset: 1})
	if err := l.flush(); err != nil {
		t.Fatal(err)
	}
	c := dev.Counters()
	if c.TotalOp(flash.OpPageWrite) != 1 {
		t.Errorf("writes after explicit flush = %d, want 1", c.TotalOp(flash.OpPageWrite))
	}
	// Flushing an empty buffer is a no-op.
	if err := l.flush(); err != nil {
		t.Fatal(err)
	}
	c = dev.Counters()
	if c.TotalOp(flash.OpPageWrite) != 1 {
		t.Error("empty flush wrote a page")
	}
}

// Property: the log agrees with a straightforward in-RAM reference under
// random workloads, including cleanings.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64, boundRaw uint8) bool {
		bound := int(boundRaw)%64 + 16
		devCfg := flash.ScaledConfig(16 + 64)
		devCfg.PagesPerBlock = 8
		devCfg.PageSize = 256
		dev, err := flash.NewDevice(devCfg)
		if err != nil {
			return false
		}
		var metaIDs []flash.BlockID
		for i := 16; i < 80; i++ {
			metaIDs = append(metaIDs, flash.BlockID(i))
		}
		store, err := metastore.NewBlockStore(dev, metaIDs, flash.BlockGecko, flash.PurposePageValidity)
		if err != nil {
			return false
		}
		l, err := New(Config{Blocks: 16, PagesPerBlock: 8, PageSize: 256, MaxEntries: bound}, store)
		if err != nil {
			return false
		}
		ref := make([]*bitmap.Bitmap, 16)
		for i := range ref {
			ref[i] = bitmap.New(8)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			if rng.Intn(6) == 0 {
				b := rng.Intn(16)
				if l.RecordErase(flash.BlockID(b)) != nil {
					return false
				}
				ref[b].Reset()
				continue
			}
			blk, off := rng.Intn(16), rng.Intn(8)
			if l.Update(flash.Addr{Block: flash.BlockID(blk), Offset: off}) != nil {
				return false
			}
			ref[blk].Set(off)
		}
		for b := 0; b < 16; b++ {
			got, err := l.Query(flash.BlockID(b))
			if err != nil || !reflect.DeepEqual(got, ref[b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
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
