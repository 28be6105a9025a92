package ftl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"geckoftl/internal/flash"
)

// hammerDevice builds a single-channel device for fault campaigns and
// returns a partition spanning it.
// maxErase > 0 bounds every block's erase budget.
func hammerDevice(t *testing.T, blocks, maxErase int, plan flash.FaultPlan) *flash.Partition {
	t.Helper()
	cfg := flash.ScaledConfig(blocks)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.MaxEraseCount = maxErase
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	return wholeDevice(t, dev)
}

// auditFaultInvariants checks every consistency and wear invariant the FTL
// promises to hold no matter what faults the device injected, returning an
// error (rather than failing t) so campaigns can shrink a failure to its
// smallest reproducing prefix.
func auditFaultInvariants(f *FTL) error {
	bm := f.bm
	// Conservation: every successful erase returns exactly one block to the
	// free pool; retirement touches neither counter.
	if bm.erases != bm.frees {
		return fmt.Errorf("erases %d != blocks freed %d", bm.erases, bm.frees)
	}
	freeSet := make(map[flash.BlockID]bool, len(bm.free))
	for _, b := range bm.free {
		freeSet[b] = true
	}
	for i := range bm.blocks {
		info := &bm.blocks[i]
		block := flash.BlockID(i)
		if info.valid < 0 {
			return fmt.Errorf("block %d: negative BVC %d", i, info.valid)
		}
		if info.valid > info.writePointer {
			return fmt.Errorf("block %d: BVC %d exceeds write pointer %d", i, info.valid, info.writePointer)
		}
		if info.writePointer > f.cfg.PagesPerBlock {
			return fmt.Errorf("block %d: write pointer %d exceeds block size", i, info.writePointer)
		}
		ec, err := f.dev.EraseCount(block)
		if err != nil {
			return err
		}
		if info.eraseCount != ec {
			return fmt.Errorf("block %d: RAM erase-count mirror %d != device %d", i, info.eraseCount, ec)
		}
		bad, err := f.dev.BadBlock(block)
		if err != nil {
			return err
		}
		if bad != info.retired {
			return fmt.Errorf("block %d: device bad-block=%v but manager retired=%v", i, bad, info.retired)
		}
		if info.retired {
			if info.allocated {
				return fmt.Errorf("block %d: retired but still allocated", i)
			}
			if freeSet[block] {
				return fmt.Errorf("block %d: retired but in the free pool", i)
			}
		}
		if freeSet[block] && info.allocated {
			return fmt.Errorf("block %d: in the free pool but allocated", i)
		}
	}
	// The full-block index that finds victims and dead blocks must follow
	// every state change, fault paths and recovery included.
	if err := bm.checkIndex(); err != nil {
		return fmt.Errorf("full-block index: %w", err)
	}
	if got := int64(bm.BadBlocks()); got != f.Stats().BadBlocks {
		return fmt.Errorf("Stats().BadBlocks = %d, manager counts %d", f.Stats().BadBlocks, got)
	}
	// Mapping round-trips: every mapped logical page points at a programmed
	// page whose spare names it, with no double-mapping.
	return f.CheckConsistency()
}

// faultCampaign is one randomized fault-injection run: a device fault plan, an
// FTL configuration, and a seeded workload mix.
type faultCampaign struct {
	name     string
	plan     flash.FaultPlan
	maxErase int
	opts     Options
	seed     int64
	ops      int
}

// deviceDead reports errors that mean the device ran out of usable space —
// the legitimate end of life under heavy fault injection, not a bug.
func deviceDead(err error) bool { return errors.Is(err, ErrNoSpace) }

// runCampaign replays a campaign for at most maxOps operations, auditing
// every auditEvery operations and at the end. It returns the final statistics
// and the first audit (or unexpected operation) error together with the
// operation count at which it surfaced.
func runCampaign(t *testing.T, c faultCampaign, maxOps, auditEvery int) (Stats, int, error) {
	t.Helper()
	dev := hammerDevice(t, 64, c.maxErase, c.plan)
	f, err := New(dev, c.opts)
	if err != nil {
		t.Fatal(err)
	}
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(c.seed))
	for op := 1; op <= maxOps; op++ {
		var lpn flash.LPN
		if rng.Intn(4) == 0 {
			// Skewed quarter of the traffic: hammer a small hot set so some
			// blocks absorb disproportionate reads and erases.
			lpn = flash.LPN(rng.Int63n(lp / 8))
		} else {
			lpn = flash.LPN(rng.Int63n(lp))
		}
		switch rng.Intn(10) {
		case 0, 1, 2:
			err = f.Read(lpn)
		case 3:
			err = f.Trim(lpn)
		default:
			err = f.Write(lpn)
		}
		if deviceDead(err) {
			break // capacity exhausted by retirement: a legitimate end
		}
		if err != nil {
			return f.Stats(), op, fmt.Errorf("op %d: %w", op, err)
		}
		if op%auditEvery == 0 {
			if err := auditFaultInvariants(f); err != nil {
				return f.Stats(), op, err
			}
		}
	}
	if err := auditFaultInvariants(f); err != nil {
		return f.Stats(), maxOps, err
	}
	return f.Stats(), maxOps, nil
}

// shrinkCampaign bisects the smallest operation-count prefix of a failing
// campaign that still fails, so the test log carries a minimal, replayable
// schedule instead of a 4000-operation haystack.
func shrinkCampaign(t *testing.T, c faultCampaign, failedAt int, auditEvery int) int {
	t.Helper()
	lo, hi := 1, failedAt
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, _, err := runCampaign(t, c, mid, auditEvery); err != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestFaultHammer runs randomized fault campaigns — fault mixes crossed with
// FTL policies, each at several seeds — and audits every consistency and
// wear invariant between bursts. A failure shrinks to the smallest failing
// prefix and logs a replay line (plan + seed + op count) that reproduces it
// deterministically. Run it under -race: the flash device below is the same
// concurrent code the engine hammers.
func TestFaultHammer(t *testing.T) {
	gecko := GeckoFTLOptions(192)
	gecko.WearAwareAllocation = true
	geckoScrub := gecko
	geckoScrub.ScrubReadThreshold = 48
	dftl := DFTLOptions(192)
	lazy := LazyFTLOptions(192)

	plans := []struct {
		name     string
		plan     flash.FaultPlan
		maxErase int
	}{
		{"program-faults", flash.FaultPlan{ProgramFailRate: 0.02}, 0},
		{"erase-faults", flash.FaultPlan{EraseFailRate: 0.01}, 0},
		{"wearout", flash.FaultPlan{}, 24},
		{"mixed", flash.FaultPlan{ProgramFailRate: 0.01, EraseFailRate: 0.005}, 48},
		{"scripted", flash.FaultPlan{Schedule: []flash.FaultEvent{
			{Op: flash.OpPageWrite, AtCount: 1},
			{Op: flash.OpPageWrite, AtCount: 97},
			{Op: flash.OpErase, AtCount: 2},
			{Op: flash.OpErase, AtCount: 11},
		}}, 0},
	}
	policies := []struct {
		name string
		opts Options
	}{
		{"geckoftl-wear-aware", gecko},
		{"geckoftl-scrub", geckoScrub},
		{"dftl-greedy", dftl},
		{"lazyftl", lazy},
	}

	const ops, auditEvery = 3000, 500
	for _, pl := range plans {
		for _, po := range policies {
			pl, po := pl, po
			t.Run(pl.name+"/"+po.name, func(t *testing.T) {
				for _, seed := range []int64{1, 2, 3} {
					c := faultCampaign{
						name:     pl.name + "/" + po.name,
						plan:     pl.plan,
						maxErase: pl.maxErase,
						opts:     po.opts,
						seed:     seed,
						ops:      ops,
					}
					c.plan.Seed = seed
					st, failedAt, err := runCampaign(t, c, ops, auditEvery)
					if err != nil {
						minOps := shrinkCampaign(t, c, failedAt, auditEvery)
						t.Fatalf("campaign failed: %v\nreplay: plan=%+v maxErase=%d ftl=%s seed=%d ops=%d (shrunk from %d)",
							err, c.plan, c.maxErase, c.opts.FTL, seed, minOps, failedAt)
					}
					// The hammer must actually hammer: campaigns whose fault
					// plan makes failures statistically certain have to show
					// fault activity, or the injection layer silently rotted.
					if c.plan.ProgramFailRate >= 0.02 && st.ProgramRetries == 0 {
						t.Fatalf("seed %d: no program retries at %.0f%% fault rate", seed, c.plan.ProgramFailRate*100)
					}
					if len(c.plan.Schedule) > 0 && (st.ProgramRetries < 2 || st.BadBlocks < 2) {
						t.Fatalf("seed %d: scripted schedule underfired: retries=%d bad=%d", seed, st.ProgramRetries, st.BadBlocks)
					}
				}
			})
		}
	}
}

// TestFaultHammerConcurrentEngine hammers a sharded engine with concurrent
// batches while the device injects program and erase faults, then quiesces
// and audits every shard. Under -race this exercises the fault paths'
// concurrency (per-die fault decisions, shared bad-block state).
func TestFaultHammerConcurrentEngine(t *testing.T) {
	cfg := flash.ScaledConfig(128)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.Channels = 2
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetFaultPlan(flash.FaultPlan{Seed: 7, ProgramFailRate: 0.01, EraseFailRate: 0.002}); err != nil {
		t.Fatal(err)
	}
	opts := GeckoFTLOptions(256)
	opts.WearAwareAllocation = true
	e, err := NewEngine(dev, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	lp := e.LogicalPages()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			batch := make([]flash.LPN, 32)
			for round := 0; round < 40; round++ {
				for i := range batch {
					batch[i] = flash.LPN(rng.Int63n(lp))
				}
				var err error
				if g%2 == 0 {
					err = e.WriteBatch(context.Background(), batch)
				} else {
					if err = e.WriteBatch(context.Background(), batch); err == nil {
						err = e.ReadBatch(context.Background(), batch)
					}
				}
				if err != nil && !deviceDead(err) {
					t.Errorf("goroutine %d round %d: %v", g, round, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for s := 0; s < e.Shards(); s++ {
		if err := auditFaultInvariants(e.Shard(s)); err != nil {
			t.Errorf("shard %d: %v", s, err)
		}
	}
	if e.Stats().ProgramRetries == 0 {
		t.Error("hammer with 1% program fault rate recorded no retries")
	}
}

// TestWornOutBlockRetired is the regression test for the garbage-collection
// wedge: before bad-block retirement, blockManager.Erase propagated
// ErrWornOut, the drained victim stayed allocated with zero valid pages, and
// the next write re-picked it as victim forever. The FTL must instead retire
// the block and keep serving until capacity genuinely runs out.
func TestWornOutBlockRetired(t *testing.T) {
	dev := hammerDevice(t, 48, 6, flash.FaultPlan{})
	opts := GeckoFTLOptions(128)
	f, err := New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	lp := f.LogicalPages()
	rng := rand.New(rand.NewSource(11))
	var last error
	for op := 0; op < 60000; op++ {
		if err := f.Write(flash.LPN(rng.Int63n(lp))); err != nil {
			last = err
			break
		}
	}
	// Worn-out erases must never surface to the host: blocks are retired and
	// the device keeps serving until it truly runs out of space.
	if errors.Is(last, flash.ErrWornOut) {
		t.Fatalf("Write surfaced ErrWornOut instead of retiring the block: %v", last)
	}
	if last != nil && !deviceDead(last) {
		t.Fatalf("Write failed with %v, want device-capacity exhaustion or success", last)
	}
	if f.Stats().BadBlocks == 0 {
		t.Fatal("no blocks retired despite a 6-erase budget; wear-out never hit")
	}
	if err := auditFaultInvariants(f); err != nil {
		t.Fatalf("invariants after wear-out campaign: %v", err)
	}
}

// TestBlockManagerEraseRetiresOnFailure unit-tests the two retirement paths
// of blockManager.Erase: a worn-out budget check and an injected erase
// fault. Both must swallow the error, retire the block, and leave the
// erase/free conservation counters untouched.
func TestBlockManagerEraseRetiresOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxErase int
		plan     flash.FaultPlan
	}{
		{"worn out", 1, flash.FaultPlan{}},
		{"erase fault", 0, flash.FaultPlan{Schedule: []flash.FaultEvent{{Op: flash.OpErase, AtCount: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := hammerDevice(t, 8, tc.maxErase, tc.plan)
			bm := newBlockManager(dev, 2, false, false)
			// Allocate a block and roll the frontier off it so it is erasable.
			ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: 1}, flash.PurposeUserWrite)
			if err != nil {
				t.Fatal(err)
			}
			block := flash.BlockOf(ppn, dev.Config().PagesPerBlock)
			bm.active[frontierFor(GroupUser, TempCold)] = flash.InvalidBlock
			if tc.maxErase == 1 {
				// Burn the budget: one successful erase brings the block to
				// its limit, so the next attempt hits the worn-out check.
				if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
					t.Fatal(err)
				}
				if _, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: 1}, flash.PurposeUserWrite); err != nil {
					t.Fatal(err)
				}
				bm.active[frontierFor(GroupUser, TempCold)] = flash.InvalidBlock
			}
			erases, frees := bm.erases, bm.frees
			if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
				t.Fatalf("Erase returned %v, want nil (retired)", err)
			}
			if !bm.blocks[block].retired {
				t.Error("block not retired")
			}
			if g, _ := bm.GroupOf(block); g == GroupUser && bm.blocks[block].allocated {
				t.Error("retired block still allocated")
			}
			if bm.erases != erases || bm.frees != frees {
				t.Errorf("conservation counters moved: erases %d->%d, frees %d->%d", erases, bm.erases, frees, bm.frees)
			}
			for _, fb := range bm.free {
				if fb == block {
					t.Error("retired block re-entered the free pool")
				}
			}
			if bad, _ := dev.BadBlock(block); !bad {
				t.Error("device does not report the block bad")
			}
		})
	}
}
