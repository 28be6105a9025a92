package sim

import (
	"testing"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/workload"
)

func TestRunIsolatedValidation(t *testing.T) {
	if _, err := RunIsolated(IsolatedOptions{}); err == nil {
		t.Error("empty isolated options accepted")
	}
	if _, err := RunIsolated(IsolatedOptions{UserBlocks: 16, MetaBlocks: 8, PagesPerBlock: 8, PageSize: 256, Scheme: GeckoScheme(2, 0)}); err == nil {
		t.Error("zero measure writes accepted")
	}
}

func TestIsolatedGeckoBeatsFlashPVB(t *testing.T) {
	scale := QuickScale()
	run := func(s SchemeBuilder) IsolatedResult {
		res, err := RunIsolated(IsolatedOptions{
			UserBlocks:    scale.Device.Blocks,
			MetaBlocks:    scale.Device.Blocks / 2,
			PagesPerBlock: scale.Device.PagesPerBlock,
			PageSize:      scale.Device.PageSize,
			OverProvision: 0.7,
			Scheme:        s,
			MeasureWrites: scale.MeasureWrites,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gecko := run(GeckoScheme(2, 0))
	pvb := run(FlashPVBScheme())
	if gecko.WA >= pvb.WA {
		t.Errorf("gecko WA %.4f not below flash PVB %.4f", gecko.WA, pvb.WA)
	}
	// The flash PVB does roughly one write per update; Logarithmic Gecko
	// does a small fraction of that.
	if gecko.FlashWrites*5 > pvb.FlashWrites {
		t.Errorf("gecko writes %d not well below PVB writes %d", gecko.FlashWrites, pvb.FlashWrites)
	}
	if gecko.RAMBytes <= 0 || pvb.RAMBytes <= 0 {
		t.Error("missing RAM accounting")
	}
}

// noScheme is a page-validity structure that records nothing: the isolated
// driver's block bookkeeping does not depend on the structure it feeds.
type noScheme struct{}

func (noScheme) Update(flash.Addr) error                       { return nil }
func (noScheme) RecordErase(flash.BlockID) error               { return nil }
func (noScheme) QueryInto(flash.BlockID, *bitmap.Bitmap) error { return nil }
func (noScheme) RAMBytes() int64                               { return 0 }
func (noScheme) CrashRAM()                                     {}

// TestIsolatedDriverCountsFreeBlocks runs the isolated driver through a
// quick-scale warm-up and window and requires its free-block counter to
// equal a recount of the unwritten blocks other than the active one.
func TestIsolatedDriverCountsFreeBlocks(t *testing.T) {
	opts := QuickScale().isolated(FlashPVBScheme())
	logicalPages := int64(opts.OverProvision * float64(opts.UserBlocks*opts.PagesPerBlock))
	d := newIsolatedDriver(noScheme{}, opts.UserBlocks, opts.PagesPerBlock, logicalPages)
	gen := workload.MustNewUniform(logicalPages, opts.Seed+1)
	for i := int64(0); i < 2*logicalPages+opts.MeasureWrites; i++ {
		if err := d.write(gen.Next().Page); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	recount := 0
	for b := 0; b < d.blocks; b++ {
		if b != d.active && d.writePtr[b] == 0 {
			recount++
		}
	}
	if d.gcOps == 0 {
		t.Fatal("the run never collected a block")
	}
	if d.free != recount {
		t.Errorf("free-block counter %d, recount %d", d.free, recount)
	}
}

func TestScales(t *testing.T) {
	if QuickScale().MeasureWrites >= FullScale().MeasureWrites {
		t.Error("quick scale not smaller than full scale")
	}
	if err := FullScale().Device.Config().Validate(); err != nil {
		t.Errorf("full-scale device invalid: %v", err)
	}
	if _, err := flash.NewDevice(DefaultDeviceSpec().Config()); err != nil {
		t.Errorf("default device spec invalid: %v", err)
	}
}
