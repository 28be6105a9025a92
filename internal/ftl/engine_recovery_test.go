package ftl

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"geckoftl/internal/flash"
)

// TestFTLShardsRecoverInEitherOrder is the regression test for the
// shared-power-state bug: before partitions became independent power
// domains, the first shard's Recover powered the whole device back on, which
// made every other shard's Recover fail its Powered() precondition.
func TestFTLShardsRecoverInEitherOrder(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		dev := engineTestDevice(t, 128, 2)
		shards := make([]*FTL, 2)
		for i := range shards {
			part, err := dev.Partition(flash.BlockID(i*64), 64)
			if err != nil {
				t.Fatal(err)
			}
			f, err := New(part, GeckoFTLOptions(128))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(50 + i)))
			for w := 0; w < 3000; w++ {
				if err := f.Write(flash.LPN(rng.Int63n(f.LogicalPages()))); err != nil {
					t.Fatal(err)
				}
			}
			shards[i] = f
		}
		for _, f := range shards {
			if err := f.PowerFail(); err != nil {
				t.Fatal(err)
			}
		}
		for _, i := range order {
			if _, err := shards[i].Recover(); err != nil {
				t.Fatalf("recover order %v: shard %d: %v", order, i, err)
			}
		}
		for i, f := range shards {
			if err := f.CheckConsistency(); err != nil {
				t.Fatalf("recover order %v: shard %d inconsistent: %v", order, i, err)
			}
		}
	}
}

// TestEnginePowerFailMidBatchRecovers is the engine-wide crash-consistency
// hammer: concurrent goroutines batter the engine with batches, the power
// fails abruptly mid-WriteBatch (in-flight operations observe
// flash.ErrPowerFailed), and after Recover every shard's translation map
// must be consistent with flash and normal operation must continue. Run with
// -race.
func TestEnginePowerFailMidBatchRecovers(t *testing.T) {
	dev := engineTestDevice(t, 256, 4)
	e, err := NewEngine(dev, GeckoFTLOptions(256), 4)
	if err != nil {
		t.Fatal(err)
	}
	lp := e.LogicalPages()

	// Fill past capacity so the crash interrupts steady-state GC, not a
	// fresh device.
	warm := rand.New(rand.NewSource(17))
	batch := make([]flash.LPN, 64)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(warm.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 6
	var sawPowerFail atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lpns := make([]flash.LPN, 48)
			<-start
			for {
				for i := range lpns {
					lpns[i] = flash.LPN(rng.Int63n(lp))
				}
				if err := e.WriteBatch(context.Background(), lpns); err != nil {
					if !errors.Is(err, flash.ErrPowerFailed) {
						t.Errorf("mid-batch error other than power failure: %v", err)
					}
					sawPowerFail.Add(1)
					return
				}
			}
		}(int64(g + 1))
	}
	close(start)
	// Let the hammer run briefly, then pull the plug mid-flight.
	spin := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		_ = e.Read(flash.LPN(spin.Int63n(lp)))
	}
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if sawPowerFail.Load() == 0 {
		t.Fatal("no goroutine observed the power failure")
	}

	report, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Shards) != e.Shards() {
		t.Fatalf("report covers %d shards, engine has %d", len(report.Shards), e.Shards())
	}
	if report.SpareReads == 0 {
		t.Error("engine recovery issued no spare reads")
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("engine inconsistent after crash recovery: %v", err)
	}

	// Normal operation resumes: more concurrent batches, then a final audit.
	post := rand.New(rand.NewSource(23))
	for r := 0; r < 20; r++ {
		for i := range batch {
			batch[i] = flash.LPN(post.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("engine inconsistent after post-recovery writes: %v", err)
	}
}

func TestEngineRecoverWithoutPowerFailRejected(t *testing.T) {
	dev := engineTestDevice(t, 128, 2)
	e, err := NewEngine(dev, GeckoFTLOptions(128), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err == nil {
		t.Fatal("Recover without PowerFail accepted")
	}
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if err := e.PowerFail(); err == nil {
		t.Fatal("second PowerFail accepted while already failed")
	}
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err == nil {
		t.Fatal("double Recover accepted")
	}
}

// TestEngineRecoveryScalesWithChannels pins the acceptance criterion: on an
// 8-channel device the engine recovers all shards in parallel, so the
// reported wall-clock is measurably below the summed serial per-shard time,
// and the report identifies the critical-path shard.
func TestEngineRecoveryScalesWithChannels(t *testing.T) {
	dev := engineTestDevice(t, 256, 8)
	e, err := NewEngine(dev, GeckoFTLOptions(256), 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", e.Shards())
	}
	lp := e.LogicalPages()
	rng := rand.New(rand.NewSource(5))
	batch := make([]flash.LPN, 128)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(rng.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	report, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if report.WallClock <= 0 || report.SerialTime <= 0 {
		t.Fatalf("degenerate recovery times: wall %v serial %v", report.WallClock, report.SerialTime)
	}
	// 8 equally-sized shards recover concurrently; even with imbalance the
	// critical path must be well under half the serial scan.
	if 2*report.WallClock >= report.SerialTime {
		t.Errorf("wall-clock %v not measurably below serial %v (speedup %.2fx)",
			report.WallClock, report.SerialTime, report.Speedup())
	}
	if got := report.Shards[report.SlowestShard].Duration; got != report.WallClock {
		t.Errorf("slowest shard %d took %v, wall-clock says %v", report.SlowestShard, got, report.WallClock)
	}
	var spare int64
	for _, s := range report.Shards {
		spare += s.SpareReads
	}
	if spare != report.SpareReads {
		t.Errorf("per-shard spare reads sum to %d, total says %d", spare, report.SpareReads)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineBatteryPowerFailFlushesBeforeRail verifies the battery path:
// DFTL shards synchronize dirty entries before the rail drops, so recovery
// recreates nothing by scanning.
func TestEngineBatteryPowerFailFlushesBeforeRail(t *testing.T) {
	dev := engineTestDevice(t, 128, 2)
	e, err := NewEngine(dev, DFTLOptions(128), 2)
	if err != nil {
		t.Fatal(err)
	}
	lp := e.LogicalPages()
	rng := rand.New(rand.NewSource(9))
	batch := make([]flash.LPN, 64)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(rng.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	report, err := e.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !report.UsedBattery {
		t.Error("DFTL engine did not report battery use")
	}
	if report.RecoveredMappingEntries != 0 {
		t.Errorf("battery engine recovered %d entries via scanning", report.RecoveredMappingEntries)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineShardsDieAligned pins the alignment rule that keeps per-shard
// recovery accounting exact: when the block count divides evenly over dies,
// no two shards may share a die, even for shard counts that do not divide
// the device evenly (the engine rounds each shard down to whole dies).
func TestEngineShardsDieAligned(t *testing.T) {
	cfg := flash.ScaledConfig(256) // 8 dies x 32 blocks
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.Channels = 8
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(dev, GeckoFTLOptions(192), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Partitions that share a die share its latch.
	owner := map[*sync.Mutex]int{}
	for i := 0; i < e.Shards(); i++ {
		latch := e.Shard(i).Device().Latch()
		if prev, taken := owner[latch]; taken {
			t.Fatalf("shards %d and %d share a die", prev, i)
		}
		owner[latch] = i
	}
}
