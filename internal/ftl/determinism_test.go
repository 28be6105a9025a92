package ftl

import (
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/workload"
)

// deterministicRun drives one seeded FTL through writes and crash/recover
// cycles and returns everything an identical twin must reproduce: every
// block's erase count, the logical counters and the device's simulated time.
func deterministicRun(t *testing.T, opts Options) ([]int, Stats, int64) {
	t.Helper()
	cfg := flash.ScaledConfig(128)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.OverProvision = 0.7
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(wholeDevice(t, dev), opts)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewZipfian(f.LogicalPages(), 1.2, 7)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4000; i++ {
			if err := f.Write(gen.Next().Page); err != nil {
				t.Fatal(err)
			}
		}
		// Crash/recover between rounds: recovery replays invalidations into
		// the page-validity structures, historically in map-iteration order
		// (UpdatedSinceProtection), which could flush different Gecko buffer
		// contents on different runs of the same seed.
		if err := f.PowerFail(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Recover(); err != nil {
			t.Fatal(err)
		}
	}
	erases := make([]int, cfg.Blocks)
	for b := range erases {
		if erases[b], err = f.dev.EraseCount(flash.BlockID(b)); err != nil {
			t.Fatal(err)
		}
	}
	return erases, f.Stats(), int64(dev.SimulatedTime())
}

// TestVictimSequenceDeterministic pins simulation reproducibility: two
// identically-seeded devices must erase every block as often and end with
// identical counters and simulated time, for every victim policy and for the
// hot/cold + wear-aware configuration. A victim picked out of order erases a
// different block. Cost-benefit selection scores tie easily (any two
// fully-invalid blocks of equal age), so this also locks in the
// lowest-block-ID tie-break.
func TestVictimSequenceDeterministic(t *testing.T) {
	configs := map[string]Options{}
	for _, policy := range []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit} {
		opts := GeckoFTLOptions(256)
		opts.VictimPolicy = policy
		configs["policy-"+policy.String()] = opts
	}
	sep := GeckoFTLOptions(256)
	sep.VictimPolicy = VictimCostBenefit
	sep.HotColdSeparation = true
	sep.WearAwareAllocation = true
	configs["hotcold-wear"] = sep
	incr := GeckoFTLOptions(256)
	incr.GCMode = GCIncremental
	configs["incremental"] = incr

	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			e1, s1, t1 := deterministicRun(t, opts)
			e2, s2, t2 := deterministicRun(t, opts)
			if s1.GCOperations == 0 {
				t.Fatal("workload never triggered garbage collection; the test is vacuous")
			}
			for b := range e1 {
				if e1[b] != e2[b] {
					t.Fatalf("block %d erased %d vs %d times", b, e1[b], e2[b])
				}
			}
			if s1 != s2 {
				t.Errorf("stats differ across identically-seeded runs:\n%+v\n%+v", s1, s2)
			}
			if t1 != t2 {
				t.Errorf("simulated time differs across identically-seeded runs: %d vs %d", t1, t2)
			}
		})
	}
}

// TestPickVictimTieBreaksByLowestBlockID pins the explicit tie-break rule on
// a hand-built tie: two equally good victims must resolve to the lower block
// ID under every policy, regardless of allocation order.
func TestPickVictimTieBreaksByLowestBlockID(t *testing.T) {
	cfg := flash.ScaledConfig(16)
	cfg.PagesPerBlock = 4
	cfg.PageSize = 512
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockManager(wholeDevice(t, dev), 2, false, false)
	// Fill three user blocks; invalidate every page of the second and third
	// so they tie perfectly (same valid count, same score); then open a
	// fresh active block so none of the candidates is a frontier.
	var blocks []flash.BlockID
	for b := 0; b < 3; b++ {
		for p := 0; p < cfg.PagesPerBlock; p++ {
			ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: flash.LPN(b*cfg.PagesPerBlock + p)}, flash.PurposeUserWrite)
			if err != nil {
				t.Fatal(err)
			}
			if p == 0 {
				blocks = append(blocks, flash.BlockOf(ppn, cfg.PagesPerBlock))
			}
		}
	}
	if _, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: 99}, flash.PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[1:] {
		for p := 0; p < cfg.PagesPerBlock; p++ {
			if err := bm.InvalidatePage(flash.PPNOf(b, p, cfg.PagesPerBlock)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Equalize the age anchors so the cost-benefit scores tie exactly.
	bm.blocks[blocks[1]].lastProgram = bm.blocks[blocks[2]].lastProgram
	want := blocks[1]
	if blocks[2] < want {
		want = blocks[2]
	}
	for _, policy := range []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit} {
		got, ok := bm.PickVictim(policy)
		if !ok {
			t.Fatalf("%v: no victim found", policy)
		}
		if got != want {
			t.Errorf("%v: tie resolved to block %d, want lowest ID %d", policy, got, want)
		}
	}
}
