package ftl

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"geckoftl/internal/flash"
)

// wearSnapshot reads every block's erase count from the device (the ground
// truth the FTL's RAM mirrors and statistics must agree with).
func wearSnapshot(t *testing.T, f *FTL) []int {
	t.Helper()
	out := make([]int, f.cfg.Blocks)
	for b := 0; b < f.cfg.Blocks; b++ {
		ec, err := f.dev.EraseCount(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		out[b] = ec
	}
	return out
}

// checkWearInvariants asserts the shard-level conservation laws: every erase
// returns exactly one block to the free pool (erases == frees), the
// device-truth erase counts sum to the manager's erase counter, and the RAM
// mirror used by wear-aware allocation agrees with the device per block.
func checkWearInvariants(t *testing.T, f *FTL, shard int) {
	t.Helper()
	if f.bm.erases != f.bm.frees {
		t.Errorf("shard %d: erases %d != blocks freed %d", shard, f.bm.erases, f.bm.frees)
	}
	var deviceTotal int64
	for b, ec := range wearSnapshot(t, f) {
		deviceTotal += int64(ec)
		if mirror := f.bm.blocks[flash.BlockID(b)].eraseCount; mirror != ec {
			t.Errorf("shard %d block %d: RAM erase-count mirror %d != device %d", shard, b, mirror, ec)
		}
	}
	if deviceTotal != f.bm.erases {
		t.Errorf("shard %d: device erase counts sum to %d, block manager counted %d", shard, deviceTotal, f.bm.erases)
	}
}

// TestWearInvariantsUnderHammer drives a sharded engine with concurrent
// batches (run it under -race) across the hot/cold + wear-aware
// configuration and checks, between rounds and at the end, that erase
// accounting is conserved and every block's erase count is monotonically
// non-decreasing.
func TestWearInvariantsUnderHammer(t *testing.T) {
	dev := engineTestDevice(t, 256, 4)
	opts := GeckoFTLOptions(256)
	opts.HotColdSeparation = true
	opts.WearAwareAllocation = true
	opts.VictimPolicy = VictimCostBenefit
	e, err := NewEngine(dev, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	lp := e.LogicalPages()

	warm := rand.New(rand.NewSource(3))
	batch := make([]flash.LPN, 64)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(warm.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}

	prev := make([][]int, e.Shards())
	for s := 0; s < e.Shards(); s++ {
		prev[s] = wearSnapshot(t, e.Shard(s))
	}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				lpns := make([]flash.LPN, 48)
				for r := 0; r < 8; r++ {
					for i := range lpns {
						lpns[i] = flash.LPN(rng.Int63n(lp))
					}
					if err := e.WriteBatch(context.Background(), lpns); err != nil {
						t.Error(err)
						return
					}
				}
			}(int64(round*100 + g))
		}
		wg.Wait()
		// Quiesced between rounds: check conservation and monotonicity.
		for s := 0; s < e.Shards(); s++ {
			f := e.Shard(s)
			checkWearInvariants(t, f, s)
			now := wearSnapshot(t, f)
			for b := range now {
				if now[b] < prev[s][b] {
					t.Errorf("round %d shard %d block %d: erase count went backwards (%d -> %d)",
						round, s, b, prev[s][b], now[b])
				}
			}
			prev[s] = now
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestEraseCountsRebasedAfterRecovery pins the recovery re-base of the block
// manager's wear state: the RAM erase-count mirror is lost at power failure
// and must come back equal to the device's per-block truth, so post-recovery
// wear-aware allocation decisions do not start from zeroed counters.
func TestEraseCountsRebasedAfterRecovery(t *testing.T) {
	cfg := flash.ScaledConfig(128)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := GeckoFTLOptions(256)
	opts.WearAwareAllocation = true
	f, err := New(wholeDevice(t, dev), opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 3*f.LogicalPages(); i++ {
		if err := f.Write(flash.LPN(rng.Int63n(f.LogicalPages()))); err != nil {
			t.Fatal(err)
		}
	}
	if f.bm.erases == 0 {
		t.Fatal("workload produced no erases; the test is vacuous")
	}
	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < f.cfg.Blocks; b++ {
		ec, err := f.dev.EraseCount(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if mirror := f.bm.blocks[flash.BlockID(b)].eraseCount; mirror != ec {
			t.Fatalf("block %d: post-recovery mirror %d != device %d", b, mirror, ec)
		}
	}
}
