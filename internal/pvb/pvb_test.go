package pvb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

func newFlashHarness(t *testing.T, blocks, pagesPerBlock, pageSize, metaBlocks int) (*flash.Device, *FlashPVB) {
	t.Helper()
	cfg := flash.ScaledConfig(blocks + metaBlocks)
	cfg.PagesPerBlock = pagesPerBlock
	cfg.PageSize = pageSize
	dev, err := flash.NewDevice(cfg)
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
	p, err := NewFlashPVB(blocks, pagesPerBlock, pageSize, store)
	if err != nil {
		t.Fatal(err)
	}
	return dev, p
}

func TestRAMPVBValidation(t *testing.T) {
	if _, err := NewRAMPVB(0, 8); err == nil {
		t.Error("zero blocks accepted")
	}
	if _, err := NewRAMPVB(8, 0); err == nil {
		t.Error("zero pages per block accepted")
	}
	p, err := NewRAMPVB(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(flash.Addr{Block: 8, Offset: 0}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := p.Update(flash.Addr{Block: 0, Offset: 16}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if err := p.RecordErase(-1); err == nil {
		t.Error("negative block erase accepted")
	}
	if _, err := p.Query(99); err == nil {
		t.Error("out-of-range query accepted")
	}
}

func TestRAMPVBUpdateQueryErase(t *testing.T) {
	p, _ := NewRAMPVB(16, 8)
	p.Update(flash.Addr{Block: 3, Offset: 1})
	p.Update(flash.Addr{Block: 3, Offset: 5})
	got, err := p.Query(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(setBits(got)) != 2 || !got.Get(1) || !got.Get(5) {
		t.Errorf("query = %v", setBits(got))
	}
	p.RecordErase(3)
	got, _ = p.Query(3)
	if len(setBits(got)) != 0 {
		t.Errorf("query after erase = %v", setBits(got))
	}
	// Query must return a copy, not expose internal state.
	got.Set(0)
	again, _ := p.Query(3)
	if len(setBits(again)) != 0 {
		t.Error("Query exposed internal bitmap")
	}
}

func TestRAMPVBRAMBytesMatchesPaperFormula(t *testing.T) {
	// B*K/8 bytes: the paper's 2 TB example (K=2^22, B=2^7) needs 64 MB.
	p, _ := NewRAMPVB(1<<22, 1<<7)
	if got := p.RAMBytes(); got != 64<<20 {
		t.Errorf("RAMBytes = %d, want %d", got, 64<<20)
	}
}

func TestRAMPVBCrash(t *testing.T) {
	p, _ := NewRAMPVB(4, 8)
	p.Update(flash.Addr{Block: 1, Offset: 1})
	p.CrashRAM()
	got, _ := p.Query(1)
	if len(setBits(got)) != 0 {
		t.Error("bitmap survived CrashRAM")
	}
}

func TestFlashPVBValidation(t *testing.T) {
	dev, _ := newFlashHarness(t, 16, 8, 512, 4)
	_ = dev
	if _, err := NewFlashPVB(0, 8, 512, nil); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := NewFlashPVB(16, 8, 512, nil); err == nil {
		t.Error("nil store accepted")
	}
	// A page too small to hold one block's bitmap must be rejected.
	cfg := flash.ScaledConfig(2)
	d2, _ := flash.NewDevice(cfg)
	store, _ := metastore.NewBlockStore(d2, []flash.BlockID{0}, flash.BlockGecko, flash.PurposePageValidity)
	if _, err := NewFlashPVB(16, 1<<20, 4096, store); err == nil {
		t.Error("oversized block bitmap accepted")
	}
}

func TestFlashPVBUpdateCostsOneReadOneWrite(t *testing.T) {
	dev, p := newFlashHarness(t, 64, 16, 512, 8)
	// First update: no prior version, so just one write.
	if err := p.Update(flash.Addr{Block: 0, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	c := dev.Counters()
	if c.Count(flash.OpPageWrite, flash.PurposePageValidity) != 1 {
		t.Errorf("writes after first update = %d, want 1", c.Count(flash.OpPageWrite, flash.PurposePageValidity))
	}
	// Subsequent update to the same PVB page: one read + one write.
	before := dev.Counters()
	if err := p.Update(flash.Addr{Block: 0, Offset: 2}); err != nil {
		t.Fatal(err)
	}
	delta := dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposePageValidity) != 1 ||
		delta.Count(flash.OpPageWrite, flash.PurposePageValidity) != 1 {
		t.Errorf("update cost = %v, want 1 read + 1 write", delta)
	}
}

func TestFlashPVBQueryCostsOneRead(t *testing.T) {
	dev, p := newFlashHarness(t, 64, 16, 512, 8)
	p.Update(flash.Addr{Block: 5, Offset: 3})
	before := dev.Counters()
	got, err := p.Query(5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Get(3) || len(setBits(got)) != 1 {
		t.Errorf("query = %v", setBits(got))
	}
	delta := dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposePageValidity) != 1 || delta.TotalOp(flash.OpPageWrite) != 0 {
		t.Errorf("query cost = %v, want exactly 1 read", delta)
	}
	// Querying a block whose covering PVB page was never written costs
	// nothing (fresh device, no updates yet).
	dev2, p2 := newFlashHarness(t, 64, 16, 512, 8)
	before = dev2.Counters()
	got, _ = p2.Query(60)
	if len(setBits(got)) != 0 {
		t.Error("untouched block reported invalid pages")
	}
	delta = dev2.Counters().Sub(before)
	if delta.TotalOp(flash.OpPageRead) != 0 {
		t.Error("query of never-written PVB page cost a read")
	}
}

func TestFlashPVBEraseClearsBits(t *testing.T) {
	_, p := newFlashHarness(t, 64, 16, 512, 8)
	p.Update(flash.Addr{Block: 7, Offset: 1})
	p.Update(flash.Addr{Block: 7, Offset: 9})
	if err := p.RecordErase(7); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Query(7)
	if n := len(setBits(got)); n != 0 {
		t.Errorf("query after erase = %v, %d invalid pages", setBits(got), n)
	}
}

func TestFlashPVBPagesAndRAM(t *testing.T) {
	_, p := newFlashHarness(t, 256, 16, 512, 8)
	// 16-page blocks need 2 bytes of bitmap; 512-byte pages hold 256 blocks.
	if got := len(p.location); got != 1 {
		t.Errorf("%d PVB pages, want 1", got)
	}
	if got := p.RAMBytes(); got != 8 {
		t.Errorf("RAMBytes = %d, want 8", got)
	}
	// The flash-resident PVB must need far less RAM than the RAM-resident
	// one for the same geometry.
	ram, _ := NewRAMPVB(256, 16)
	if p.RAMBytes()*10 > ram.RAMBytes() {
		t.Errorf("flash PVB RAM %d not far below RAM PVB %d", p.RAMBytes(), ram.RAMBytes())
	}
}

func TestFlashPVBOutOfRange(t *testing.T) {
	_, p := newFlashHarness(t, 16, 8, 512, 4)
	if err := p.Update(flash.Addr{Block: 16, Offset: 0}); err == nil {
		t.Error("out-of-range block accepted")
	}
	if err := p.Update(flash.Addr{Block: 0, Offset: 8}); err == nil {
		t.Error("out-of-range offset accepted")
	}
	if err := p.RecordErase(-1); err == nil {
		t.Error("negative erase accepted")
	}
	if _, err := p.Query(16); err == nil {
		t.Error("out-of-range query accepted")
	}
}

// Property: RAM-resident and flash-resident PVB agree with each other under
// arbitrary workloads (they implement the same abstract state machine with
// different IO cost profiles).
func TestQuickVariantsAgree(t *testing.T) {
	f := func(seed int64) bool {
		const blocks, b = 32, 8
		devCfg := flash.ScaledConfig(blocks + 32)
		devCfg.PagesPerBlock = b
		devCfg.PageSize = 256
		dev, err := flash.NewDevice(devCfg)
		if err != nil {
			return false
		}
		var metaIDs []flash.BlockID
		for i := blocks; i < blocks+32; i++ {
			metaIDs = append(metaIDs, flash.BlockID(i))
		}
		store, err := metastore.NewBlockStore(dev, metaIDs, flash.BlockGecko, flash.PurposePageValidity)
		if err != nil {
			return false
		}
		fp, err := NewFlashPVB(blocks, b, 256, store)
		if err != nil {
			return false
		}
		rp, _ := NewRAMPVB(blocks, b)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if rng.Intn(10) == 0 {
				blk := flash.BlockID(rng.Intn(blocks))
				if fp.RecordErase(blk) != nil || rp.RecordErase(blk) != nil {
					return false
				}
				continue
			}
			a := flash.Addr{Block: flash.BlockID(rng.Intn(blocks)), Offset: rng.Intn(b)}
			if fp.Update(a) != nil || rp.Update(a) != nil {
				return false
			}
		}
		for blk := 0; blk < blocks; blk++ {
			x, err1 := fp.Query(flash.BlockID(blk))
			y, err2 := rp.Query(flash.BlockID(blk))
			if err1 != nil || err2 != nil || !reflect.DeepEqual(x, y) {
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
