package ftl

import (
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// newIncrementalGecko builds a GeckoFTL with the incremental GC scheduler.
func newIncrementalGecko(t *testing.T, dev *flash.Partition, cacheEntries, pagesPerWrite int) *FTL {
	t.Helper()
	opts := GeckoFTLOptions(cacheEntries)
	opts.GCMode = GCIncremental
	opts.GCPagesPerWrite = pagesPerWrite
	f, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGCModeStrings pins the GC-mode and victim-policy names and their parse
// round-trips; geckobench routes its flags through the Parse functions.
func TestGCModeStrings(t *testing.T) {
	for _, m := range []GCMode{GCInline, GCIncremental} {
		got, err := ParseGCMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseGCMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseGCMode("bogus"); err == nil {
		t.Error("ParseGCMode accepted a bogus name")
	}
	for _, p := range []VictimPolicy{VictimGreedy, VictimMetadataAware} {
		got, err := ParseVictimPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseVictimPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseVictimPolicy("bogus"); err == nil {
		t.Error("ParseVictimPolicy accepted a bogus name")
	}
}

// TestOptionsValidateGC covers the new options' validation and defaulting.
func TestOptionsValidateGC(t *testing.T) {
	dev := newTestDevice(t, 96, 16, 512)
	opts := GeckoFTLOptions(64)
	opts.GCMode = GCIncremental
	f, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Options().GCPagesPerWrite; got != DefaultGCPagesPerWrite {
		t.Fatalf("zero GCPagesPerWrite defaulted to %d, want %d", got, DefaultGCPagesPerWrite)
	}
	opts.GCPagesPerWrite = -1
	if _, err := New(newTestDevice(t, 96, 16, 512), opts); err == nil {
		t.Fatal("negative GCPagesPerWrite accepted")
	}
	opts.GCPagesPerWrite = 0
	opts.GCMode = GCMode(99)
	if _, err := New(newTestDevice(t, 96, 16, 512), opts); err == nil {
		t.Fatal("unknown GC mode accepted")
	}
}

// TestIncrementalGCStallBounded drives a standalone incremental-GC FTL to
// steady state and asserts, write by write, that the per-write GC stall
// respects the step budget and the analytic bound, without ever falling back
// to inline reclaim — and that the translation state stays consistent.
func TestIncrementalGCStallBounded(t *testing.T) {
	dev := newTestDevice(t, 96, 16, 512)
	k := 4
	f := newIncrementalGecko(t, dev, 128, k)
	bound := model.IncrementalGCStallBound(dev.Config().Latency, k)
	gen := workload.MustNewUniform(f.LogicalPages(), 7)

	writes := int(3 * f.LogicalPages())
	for i := 0; i < writes; i++ {
		if err := f.Write(gen.Next().Page); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		stall, steps := f.LastWriteGCStall()
		if steps > k {
			t.Fatalf("write %d took %d GC steps, budget %d", i, steps, k)
		}
		if stall > bound {
			t.Fatalf("write %d stalled %v, bound %v", i, stall, bound)
		}
	}
	st := f.Stats()
	if st.GCFallbacks != 0 {
		t.Fatalf("incremental GC fell back to inline %d times", st.GCFallbacks)
	}
	if st.GCOperations == 0 || st.GCMigrations == 0 {
		t.Fatalf("steady state reached without garbage collection: %+v", st)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	// strictStale=false: a mid-drain victim may hold stale pages whose UIP
	// flag was already cleared in anticipation of the victim's erase.
	checkConsistency(t, f, false)
}

// TestIncrementalGCMatchesInlineState runs the same workload under both GC
// modes and checks that they agree on the logical outcome (consistent
// translation state) and do comparable amounts of reclaim work.
func TestIncrementalGCMatchesInlineState(t *testing.T) {
	run := func(mode GCMode) (*FTL, Stats) {
		dev := newTestDevice(t, 96, 16, 512)
		opts := GeckoFTLOptions(128)
		opts.GCMode = mode
		f, err := New(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		gen := workload.MustNewUniform(f.LogicalPages(), 3)
		runWorkload(t, f, gen, int(3*f.LogicalPages()))
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
		checkConsistency(t, f, mode == GCInline)
		return f, f.Stats()
	}
	_, inline := run(GCInline)
	_, incremental := run(GCIncremental)
	if incremental.LogicalWrites != inline.LogicalWrites {
		t.Fatalf("write counts diverged: %d vs %d", incremental.LogicalWrites, inline.LogicalWrites)
	}
	// Same device, same workload: reclaim volume should be in the same
	// ballpark (scheduling changes timing, not the amount of garbage).
	lo, hi := inline.GCMigrations*8/10, inline.GCMigrations*13/10
	if incremental.GCMigrations < lo || incremental.GCMigrations > hi {
		t.Fatalf("incremental migrations %d outside [%d,%d] of inline %d",
			incremental.GCMigrations, lo, hi, inline.GCMigrations)
	}
}

// TestIncrementalGCSurvivesCrash power-fails an incremental-GC FTL mid-drain
// and verifies recovery resets the scheduler state and normal operation
// (including further bounded GC) resumes cleanly.
func TestIncrementalGCSurvivesCrash(t *testing.T) {
	dev := newTestDevice(t, 96, 16, 512)
	f := newIncrementalGecko(t, dev, 128, 2)
	gen := workload.MustNewUniform(f.LogicalPages(), 11)
	runWorkload(t, f, gen, int(2*f.LogicalPages()))

	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if f.gc.active() {
		t.Fatal("incremental GC state survived the power failure")
	}
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	runWorkload(t, f, gen, int(f.LogicalPages()))
	if f.Stats().GCFallbacks != 0 {
		t.Fatalf("incremental GC fell back %d times after recovery", f.Stats().GCFallbacks)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, f, false)
}

// TestIncrementalGCWithWearLeveling guards the interaction between the
// wear-leveler and the incremental collector: a wear-leveling recycle must
// never target the in-flight GC victim (it would be erased under the
// drain's feet and the drain would erase its successor a second time).
func TestIncrementalGCWithWearLeveling(t *testing.T) {
	run := func(threshold int) *FTL {
		dev := newTestDevice(t, 96, 16, 512)
		opts := GeckoFTLOptions(128)
		opts.GCMode = GCIncremental
		opts.WearLeveling = true
		opts.WearThreshold = threshold
		f, err := New(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewHotCold(f.LogicalPages(), 0.2, 0.9, 13)
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, f, gen, int(8*f.LogicalPages()))
		return f
	}
	f := run(1)
	// A twin whose threshold no discrepancy reaches never recycles; the
	// same counters mean this run never did either.
	if twin := run(1 << 30); f.Stats() == twin.Stats() {
		t.Fatal("workload never triggered a wear-leveling recycle; the guard went unexercised")
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	checkConsistency(t, f, false)
}

// TestIncrementalGCAllSchemes smoke-tests the incremental scheduler under
// every page-validity scheme and both victim policies: the drain logic must
// be correct for user, translation and metadata victims alike.
func TestIncrementalGCAllSchemes(t *testing.T) {
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			opts := OptionsFor(kind, 128)
			opts.GCMode = GCIncremental
			f, err := New(newTestDevice(t, 96, 16, 512), opts)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.MustNewUniform(f.LogicalPages(), 5)
			runWorkload(t, f, gen, int(3*f.LogicalPages()))
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
			checkConsistency(t, f, false)
		})
	}
}
