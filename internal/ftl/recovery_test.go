package ftl

import (
	"slices"
	"testing"
	"time"

	"geckoftl/internal/flash"
	"geckoftl/internal/mapcache"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// crashAndRecover drives a workload, power-fails the device mid-stream, and
// runs recovery, returning the report.
func crashAndRecover(t *testing.T, f *FTL, ops int, seed int64) *RecoveryReport {
	t.Helper()
	gen := workload.MustNewUniform(f.LogicalPages(), seed)
	runWorkload(t, f, gen, ops)
	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	report, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return &report
}

func TestRecoverRequiresPowerFail(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	if _, err := f.Recover(); err == nil {
		t.Error("Recover without PowerFail accepted")
	}
}

func TestPowerFailDropsRAMState(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	gen := workload.MustNewUniform(f.LogicalPages(), 21)
	runWorkload(t, f, gen, 2000)
	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if f.cache.Len() != 0 {
		t.Error("cache survived power failure")
	}
	if f.cache.DirtyCount() != 0 {
		t.Error("dirty counter survived power failure")
	}
	if f.dev.Powered() {
		t.Error("device still powered")
	}
	// Operations must fail until recovery.
	if err := f.Write(1); err == nil {
		t.Error("write succeeded while powered off")
	}
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
}

func TestGeckoFTLRecoveryRestoresConsistency(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	report := crashAndRecover(t, f, 6000, 22)
	if report.UsedBattery {
		t.Error("GeckoFTL reported battery use")
	}
	if report.SynchronizedBeforeResume {
		t.Error("GeckoFTL synchronized recovered entries before resuming")
	}
	if report.RecoveredMappingEntries == 0 {
		t.Error("no mapping entries recovered")
	}
	if report.Duration <= 0 {
		t.Error("recovery consumed no simulated time")
	}
	// Normal operation must continue correctly after recovery: run more
	// writes, then verify the end-state invariants.
	gen := workload.MustNewUniform(f.LogicalPages(), 23)
	runWorkload(t, f, gen, 4000)
	checkConsistency(t, f, false)
}

func TestAllFTLsSurvivePowerFailure(t *testing.T) {
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 128)
			crashAndRecover(t, f, 4000, 24)
			gen := workload.MustNewUniform(f.LogicalPages(), 25)
			runWorkload(t, f, gen, 3000)
			checkConsistency(t, f, false)
		})
	}
}

func TestRepeatedCrashes(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	for round := 0; round < 3; round++ {
		crashAndRecover(t, f, 2500, int64(30+round))
	}
	gen := workload.MustNewUniform(f.LogicalPages(), 40)
	runWorkload(t, f, gen, 2000)
	checkConsistency(t, f, false)
}

func TestBatteryFTLsSkipDirtyEntryRecovery(t *testing.T) {
	f := testFTL(t, model.DFTL, 96, 128)
	report := crashAndRecover(t, f, 3000, 26)
	if !report.UsedBattery {
		t.Error("DFTL did not report battery use")
	}
	if report.RecoveredMappingEntries != 0 {
		t.Errorf("battery FTL recovered %d entries via scanning", report.RecoveredMappingEntries)
	}
}

func TestBoundedDirtyFTLsSynchronizeBeforeResume(t *testing.T) {
	f := testFTL(t, model.LazyFTL, 96, 128)
	report := crashAndRecover(t, f, 3000, 27)
	if report.UsedBattery {
		t.Error("LazyFTL reported battery use")
	}
	if !report.SynchronizedBeforeResume {
		t.Error("LazyFTL did not synchronize recovered entries before resuming")
	}
}

func TestRecoveryBackwardsScanIsBounded(t *testing.T) {
	// The checkpointed backwards scan must stay within 2*C spare reads of
	// user blocks plus the per-block and translation/metadata scans.
	cacheEntries := 64
	f := testFTL(t, model.GeckoFTL, 96, cacheEntries)
	gen := workload.MustNewUniform(f.LogicalPages(), 28)
	runWorkload(t, f, gen, 5000)
	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	report, err := f.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// Upper bound on spare reads: one per block (step 1) + one per written
	// translation/metadata page (steps 2-3) + 2C (step 6) + V (buffer
	// recovery checks). Use a generous envelope and verify we stay inside.
	cfg := f.cfg
	metaPages := 0
	for _, g := range []Group{GroupTranslation, GroupMeta} {
		for b := range f.bm.BlocksInGroup(g) {
			metaPages += f.bm.WritePointer(b)
		}
	}
	bound := int64(cfg.Blocks + metaPages + 2*cacheEntries + 4096)
	if report.SpareReads > bound {
		t.Errorf("recovery spare reads %d exceed bound %d", report.SpareReads, bound)
	}
	if report.RecoveredMappingEntries > cacheEntries {
		t.Errorf("recovered %d entries with cache capacity %d", report.RecoveredMappingEntries, cacheEntries)
	}
}

func TestGeckoFTLRecoveryCheaperThanBoundedDirtyFTLs(t *testing.T) {
	// The headline recovery claim, in simulation: GeckoFTL's recovery does
	// not pay the synchronize-before-resume page writes that LazyFTL and
	// IB-FTL pay.
	gecko := testFTL(t, model.GeckoFTL, 96, 256)
	geckoReport := crashAndRecover(t, gecko, 6000, 29)
	lazy := testFTL(t, model.LazyFTL, 96, 256)
	lazyReport := crashAndRecover(t, lazy, 6000, 29)
	if geckoReport.PageWrites > lazyReport.PageWrites {
		t.Errorf("GeckoFTL recovery wrote %d pages, LazyFTL %d", geckoReport.PageWrites, lazyReport.PageWrites)
	}
}

func TestUncertainEntriesAreCorrectedLazily(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	crashAndRecover(t, f, 4000, 31)
	// Immediately after recovery some cached entries are marked uncertain.
	uncertain := 0
	f.cache.ForEach(func(e mapcache.Entry) bool {
		if e.Uncertain {
			uncertain++
		}
		return true
	})
	if uncertain == 0 {
		t.Fatal("no uncertain entries after recovery")
	}
	// After a full flush (which synchronizes everything), none remain and
	// the state is consistent.
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	remaining := 0
	f.cache.ForEach(func(e mapcache.Entry) bool {
		if e.Uncertain {
			remaining++
		}
		return true
	})
	if remaining != 0 {
		t.Errorf("%d uncertain entries remain after flush", remaining)
	}
	checkConsistency(t, f, false)
}

func TestRecoveryReportIOBreakdown(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	report := crashAndRecover(t, f, 3000, 32)
	if report.SpareReads == 0 {
		t.Error("recovery issued no spare reads")
	}
	if report.Duration < f.cfg.Latency.SpareRead*time.Duration(report.SpareReads) {
		t.Error("recovery duration below the cost of its spare reads")
	}
}

// TestRecoveredTranslationBVCMatchesGMD pins rebuildBVC's one pass over the
// GMD against the naive recount it replaced: after a crash, a translation
// block's valid count is the number of its written pages some GMD entry
// points to.
func TestRecoveredTranslationBVCMatchesGMD(t *testing.T) {
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 128)
			crashAndRecover(t, f, 6000, 33)
			blocks := slices.Collect(f.bm.BlocksInGroup(GroupTranslation))
			if len(blocks) < 2 {
				t.Fatalf("%d translation blocks, want several", len(blocks))
			}
			for _, block := range blocks {
				want := 0
				for offset := 0; offset < f.bm.WritePointer(block); offset++ {
					ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
					for tp := 0; tp < f.table.Pages(); tp++ {
						if f.table.GMDLocation(tp) == ppn {
							want++
							break
						}
					}
				}
				if got := f.bm.blocks[block].valid; got != want {
					t.Errorf("translation block %d: BVC %d, GMD recount %d", block, got, want)
				}
			}
		})
	}
}
