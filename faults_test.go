package geckoftl_test

import (
	"context"
	"errors"
	"testing"

	"geckoftl"
)

// TestFaultPlanThroughOpen drives the public fault API end to end: under a
// plan with a program-failure rate and a scripted erase failure every write
// still succeeds, the retries and the retired block show in the Snapshot, and
// the mapping stays consistent — also across a crash and recovery.
func TestFaultPlanThroughOpen(t *testing.T) {
	ctx := context.Background()
	dev := open(t,
		geckoftl.WithGeometry(128, 16, 512),
		geckoftl.WithCacheEntries(256),
		geckoftl.WithFaultPlan(geckoftl.FaultPlan{
			Seed:            7,
			ProgramFailRate: 0.01,
			Schedule:        []geckoftl.FaultEvent{{Op: geckoftl.OpErase, AtCount: 3}},
		}),
	)
	lp := dev.LogicalPages()
	gen, err := geckoftl.NewUniform(lp, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3*lp; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			t.Fatalf("write %d under the fault plan: %v", i, err)
		}
	}
	snap := dev.Snapshot()
	if snap.ProgramRetries == 0 {
		t.Error("ProgramRetries = 0 under a 1% program-failure rate")
	}
	if snap.BadBlocks < 1 {
		t.Errorf("BadBlocks = %d after a scripted erase failure, want >= 1", snap.BadBlocks)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Recover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if got := dev.Snapshot().BadBlocks; got != snap.BadBlocks {
		t.Errorf("BadBlocks = %d after recovery, want the %d retired before the crash", got, snap.BadBlocks)
	}

	for _, plan := range []geckoftl.FaultPlan{
		{ProgramFailRate: 1.5},
		{Schedule: []geckoftl.FaultEvent{{Op: geckoftl.OpErase, AtCount: 0}}},
	} {
		if _, err := geckoftl.Open(geckoftl.WithFaultPlan(plan)); !errors.Is(err, geckoftl.ErrInvalidConfig) {
			t.Errorf("Open with plan %+v returned %v, want ErrInvalidConfig", plan, err)
		}
	}
}
