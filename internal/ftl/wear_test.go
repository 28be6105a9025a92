package ftl

import (
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// newWearFTL builds a GeckoFTL with wear-leveling enabled on a small device.
func newWearFTL(t *testing.T, threshold int) *FTL {
	t.Helper()
	dev := newTestDevice(t, 64, 16, 512)
	opts := GeckoFTLOptions(256)
	opts.WearLeveling = true
	opts.WearThreshold = threshold
	f, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestWearOptionsValidation(t *testing.T) {
	dev := newTestDevice(t, 32, 16, 512)
	opts := GeckoFTLOptions(64)
	opts.WearLeveling = true
	opts.WearThreshold = -1
	if _, err := New(dev, opts); err == nil {
		t.Error("negative wear threshold accepted")
	}
	// Default threshold applies when zero.
	w := newWearLeveler(true, 0)
	if w.threshold != 8 {
		t.Errorf("default threshold = %d, want 8", w.threshold)
	}
}

func TestWearLevelerDisabledCostsNothing(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128) // wear-leveling off by default
	gen := workload.MustNewUniform(f.LogicalPages(), 61)
	runWorkload(t, f, gen, 1000)
	c := f.dev.Counters()
	if got := c.Count(flash.OpSpareRead, flash.PurposeWearLeveling); got != 0 {
		t.Errorf("disabled wear-leveler read %d spare areas", got)
	}
	if f.wear.RAMBytes() != 0 {
		t.Error("disabled wear-leveler charges RAM")
	}
}

func TestWearScanCostsOneSpareReadPerWrite(t *testing.T) {
	f := newWearFTL(t, 1000) // huge threshold: scan but never migrate
	gen := workload.MustNewUniform(f.LogicalPages(), 62)
	const writes = 2000
	runWorkload(t, f, gen, writes)
	c := f.dev.Counters()
	if got := c.Count(flash.OpSpareRead, flash.PurposeWearLeveling); got != writes {
		t.Errorf("wear-leveling spare reads = %d, want %d (one per write)", got, writes)
	}
	if got, want := f.wear.cursor, flash.BlockID(writes%64); got != want {
		t.Errorf("scan cursor at block %d after %d writes, want %d", got, writes, want)
	}
	if f.wear.RAMBytes() != 40 {
		t.Errorf("wear-leveler RAM = %d, want 40 bytes of global statistics", f.wear.RAMBytes())
	}
}

func TestWearLevelingRecyclesStaticBlocks(t *testing.T) {
	// A workload with a large static region: most pages are written once and
	// never updated, so their blocks never get erased unless the
	// wear-leveler recycles them.
	f := newWearFTL(t, 2)
	logical := f.LogicalPages()
	for lpn := int64(0); lpn < logical; lpn++ {
		if err := f.Write(flash.LPN(lpn)); err != nil {
			t.Fatal(err)
		}
	}
	// Update only the first 10% of pages, repeatedly.
	hot := workload.MustNewUniform(logical/10, 63)
	runWorkload(t, f, hot, 15000)

	// Consistency must be preserved despite wear migrations.
	checkConsistency(t, f, true)

	// Without wear-leveling, the blocks holding the static 90% of the data
	// are never erased again and stay essentially unworn; with wear-leveling
	// those blocks are recycled, so far fewer blocks end the run with at
	// most one erase.
	g := testFTL(t, model.GeckoFTL, 64, 256)
	for lpn := int64(0); lpn < g.LogicalPages(); lpn++ {
		if err := g.Write(flash.LPN(lpn)); err != nil {
			t.Fatal(err)
		}
	}
	hot2 := workload.MustNewUniform(g.LogicalPages()/10, 63)
	runWorkload(t, g, hot2, 15000)
	unworn := func(f *FTL) int {
		n := 0
		for b := 0; b < f.cfg.Blocks; b++ {
			ec, err := f.dev.EraseCount(flash.BlockID(b))
			if err != nil {
				t.Fatal(err)
			}
			if ec <= 1 {
				n++
			}
		}
		return n
	}
	unwornWith, unwornWithout := unworn(f), unworn(g)
	if unwornWith >= unwornWithout {
		t.Errorf("wear-leveling left %d essentially-unworn blocks, plain GeckoFTL left %d", unwornWith, unwornWithout)
	}
}
