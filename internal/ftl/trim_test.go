package ftl

import (
	"context"
	"errors"
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// TestTrimUnmapsAcrossFTLs exercises the trim path of all five FTLs: after a
// trim the page reads as unmapped, the trim is counted, and the end-state
// invariants (including the page-validity store's view of the dropped
// before-images) hold after a flush.
func TestTrimUnmapsAcrossFTLs(t *testing.T) {
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 128)
			gen := workload.MustNewUniform(f.LogicalPages(), 51)
			runWorkload(t, f, gen, 3000)

			for lpn := flash.LPN(0); lpn < 40; lpn++ {
				if err := f.Trim(lpn); err != nil {
					t.Fatalf("trim %d: %v", lpn, err)
				}
			}
			if got := f.Stats().LogicalTrims; got != 40 {
				t.Errorf("LogicalTrims = %d, want 40", got)
			}
			for lpn := flash.LPN(0); lpn < 40; lpn++ {
				mapped, err := f.Mapped(lpn)
				if err != nil {
					t.Fatal(err)
				}
				if mapped {
					t.Fatalf("logical page %d still mapped after trim", lpn)
				}
				// Reading a trimmed page behaves like reading a never-written
				// page: it succeeds and returns zeroes.
				if err := f.Read(lpn); err != nil {
					t.Fatalf("read of trimmed page %d: %v", lpn, err)
				}
			}

			// Normal operation continues; trimmed pages can be rewritten.
			runWorkload(t, f, gen, 1000)
			checkConsistency(t, f, false)
		})
	}
}

// TestTrimCountsInvalidations verifies the eager identification paths credit
// TrimmedPages and the device's invalidation counter, and that GeckoFTL's
// lazy path catches up by the time everything is synchronized.
func TestTrimCountsInvalidations(t *testing.T) {
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 128)
			// Write each target once so every trim has a before-image.
			for lpn := flash.LPN(0); lpn < 64; lpn++ {
				if err := f.Write(lpn); err != nil {
					t.Fatal(err)
				}
			}
			for lpn := flash.LPN(0); lpn < 64; lpn++ {
				if err := f.Trim(lpn); err != nil {
					t.Fatal(err)
				}
			}
			// Flush forces the pending synchronizations, which is where
			// GeckoFTL's lazy path identifies the before-images.
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			stats := f.Stats()
			if stats.TrimmedPages != 64 {
				t.Errorf("TrimmedPages = %d, want 64", stats.TrimmedPages)
			}
			counters := f.dev.Counters()
			if got := counters.TotalOp(flash.OpTrim); got != stats.TrimmedPages {
				t.Errorf("device OpTrim count %d != TrimmedPages %d", got, stats.TrimmedPages)
			}
		})
	}
}

// TestTrimOfUnmappedPage verifies trims of never-written and double-trimmed
// pages are accepted and invalidate nothing.
func TestTrimOfUnmappedPage(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().LogicalTrims; got != 3 {
		t.Errorf("LogicalTrims = %d, want 3", got)
	}
	if got := f.Stats().TrimmedPages; got != 1 {
		t.Errorf("TrimmedPages = %d, want 1 (only the written page had a before-image)", got)
	}
}

// TestTrimOutOfRange pins the typed error contract.
func TestTrimOutOfRange(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	if err := f.Trim(flash.LPN(f.LogicalPages())); !errors.Is(err, flash.ErrOutOfRange) {
		t.Errorf("Trim out of range returned %v, want errors.Is(..., flash.ErrOutOfRange)", err)
	}
	if _, err := f.Mapped(-1); !errors.Is(err, flash.ErrOutOfRange) {
		t.Errorf("Mapped out of range returned %v, want errors.Is(..., flash.ErrOutOfRange)", err)
	}
	if err := f.Write(flash.LPN(f.LogicalPages())); !errors.Is(err, flash.ErrOutOfRange) {
		t.Errorf("Write out of range returned %v, want errors.Is(..., flash.ErrOutOfRange)", err)
	}
	if err := f.Read(-1); !errors.Is(err, flash.ErrOutOfRange) {
		t.Errorf("Read out of range returned %v, want errors.Is(..., flash.ErrOutOfRange)", err)
	}
}

// TestTrimSurvivesRecovery is the FTL-level trim-durability contract: a
// synchronized (flushed) trim stays absent across a power failure and
// recovery, even though the trimmed page's stale before-image is still
// physically present for the backwards scan to stumble over.
func TestTrimSurvivesRecovery(t *testing.T) {
	for _, kind := range []model.FTLKind{model.GeckoFTL, model.LazyFTL, model.IBFTL} {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 128)
			gen := workload.MustNewUniform(f.LogicalPages(), 52)
			runWorkload(t, f, gen, 3000)

			for lpn := flash.LPN(10); lpn < 42; lpn++ {
				if err := f.Trim(lpn); err != nil {
					t.Fatal(err)
				}
			}
			// Make the trims durable, then crash mid-stream shortly after.
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				op := gen.Next()
				if op.Page >= 10 && op.Page < 42 {
					continue // keep the trimmed range quiet until after recovery
				}
				if err := f.Write(op.Page); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Recover(); err != nil {
				t.Fatal(err)
			}

			for lpn := flash.LPN(10); lpn < 42; lpn++ {
				mapped, err := f.Mapped(lpn)
				if err != nil {
					t.Fatal(err)
				}
				if mapped {
					t.Fatalf("trimmed page %d resurrected by recovery", lpn)
				}
			}
			runWorkload(t, f, gen, 1000)
			checkConsistency(t, f, false)
		})
	}
}

// TestEngineTrimBatch drives trims through the sharded engine and checks
// routing, statistics and the trim latency histogram.
func TestEngineTrimBatch(t *testing.T) {
	dev := engineTestDevice(t, 256, 4)
	eng, err := NewEngine(dev, GeckoFTLOptions(256), 0)
	if err != nil {
		t.Fatal(err)
	}
	lp := eng.LogicalPages()
	var lpns []flash.LPN
	for i := int64(0); i < lp; i++ {
		lpns = append(lpns, flash.LPN(i))
	}
	if err := eng.WriteBatch(context.Background(), lpns); err != nil {
		t.Fatal(err)
	}
	trims := lpns[:len(lpns)/2]
	if err := eng.TrimBatch(context.Background(), trims); err != nil {
		t.Fatal(err)
	}
	for _, lpn := range trims {
		mapped, err := eng.Mapped(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if mapped {
			t.Fatalf("page %d still mapped after TrimBatch", lpn)
		}
	}
	for _, lpn := range lpns[len(lpns)/2:] {
		mapped, err := eng.Mapped(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if !mapped {
			t.Fatalf("untrimmed page %d reads as unmapped", lpn)
		}
	}
	if got := eng.Stats().LogicalTrims; got != int64(len(trims)) {
		t.Errorf("engine LogicalTrims = %d, want %d", got, len(trims))
	}
	es := eng.LatencyStats()
	if es.Trims.Count != int64(len(trims)) {
		t.Errorf("trim latency count = %d, want %d", es.Trims.Count, len(trims))
	}
	if err := eng.Do(flash.HostTrim, flash.LPN(eng.LogicalPages())); !errors.Is(err, flash.ErrOutOfRange) {
		t.Errorf("engine Trim out of range returned %v, want flash.ErrOutOfRange", err)
	}
	if err := eng.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestTrimmedBeforeImageOutlivesGC pins the durability of an unsynchronized
// GeckoFTL trim of a cached before-image P: the trim exists only in RAM, so
// the durable translation entry still names P, and the garbage collector
// must not erase P before the trim is on flash. The test empties P's block
// of every other valid page, trims P's logical page, then writes elsewhere
// until the block is erased, and crashes. Reported at the trim, P would be
// the last invalid page of an empty block and go with its erase; recovery
// would then map the page to an erased page. Left valid, P keeps the block
// from being an empty victim, and the trim is synchronized before the erase
// (by a runtime checkpoint here, or by migrateValidPage, which
// TestFixedDurabilityBugs pins), so the page recovers unmapped.
func TestTrimmedBeforeImageOutlivesGC(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 4096) // the cache holds every page: no eviction syncs
	pages := f.LogicalPages()
	for lpn := flash.LPN(0); int64(lpn) < pages; lpn++ {
		if err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	const x = flash.LPN(100)
	ppb := f.cfg.PagesPerBlock
	block := flash.BlockOf(f.mappedPPN(x), ppb)
	for lpn := flash.LPN(0); int64(lpn) < pages; lpn++ {
		if lpn != x && flash.BlockOf(f.mappedPPN(lpn), ppb) == block {
			if err := f.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Trim(x); err != nil {
		t.Fatal(err)
	}
	erases, err := f.dev.EraseCount(block)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite pages far from x's translation page, so that nothing but the
	// collector synchronizes the trim.
	for i := 0; ; i++ {
		if i == 20*int(pages) {
			t.Fatalf("block %d was never collected", block)
		}
		if err := f.Write(flash.LPN(int64(pages)/2 + int64(i)%(int64(pages)/2))); err != nil {
			t.Fatal(err)
		}
		if n, err := f.dev.EraseCount(block); err != nil {
			t.Fatal(err)
		} else if n > erases {
			break
		}
	}
	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if mapped, err := f.Mapped(x); err != nil || mapped {
		t.Fatalf("trimmed page %d mapped=%v err=%v after recovery; its trim was synchronized before the erase", x, mapped, err)
	}
}
