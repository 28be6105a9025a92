// Power-failure recovery walkthrough, in two acts, driven entirely through
// the public geckoftl device API.
//
// Act 1 runs GeckoFTL, LazyFTL and DFTL through the same single-shard
// workload, pulls the plug, and compares what recovery has to do
// (Section 4.3 and Appendix C of the paper).
//
// Act 2 crashes a production-shaped deployment: an 8-channel device,
// power-failed abruptly in the middle of concurrent write batches — with a
// durably trimmed range that must stay absent — then recovered with
// per-shard GeckoRec, one shard after another on the caller; the simulated
// recoveries overlap, because each shard runs on its own channel's dies. The
// report shows the wall-clock win over a single serialized recovery scan.
//
// Run with:
//
//	go run ./examples/powerfail_recovery
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"geckoftl"
)

func main() {
	for _, name := range []string{"geckoftl", "lazyftl", "dftl"} {
		if err := crashAndRecover(name); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
	if err := crashAndRecoverEngine(); err != nil {
		log.Fatalf("engine: %v", err)
	}
}

func crashAndRecover(name string) error {
	ctx := context.Background()
	dev, err := geckoftl.Open(
		geckoftl.WithGeometry(256, 32, 1024),
		geckoftl.WithFTL(name),
		geckoftl.WithCacheEntries(2048),
	)
	if err != nil {
		return err
	}

	// Run a random update workload long enough to fill the device and leave
	// plenty of dirty mapping entries in the cache.
	gen, err := geckoftl.NewUniform(dev.LogicalPages(), 99)
	if err != nil {
		return err
	}
	const writes = 25000
	for i := 0; i < writes; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			return err
		}
	}
	snap := dev.Snapshot()
	fmt.Printf("%s: %d writes issued, %d checkpoints taken\n",
		dev.Geometry().FTL, snap.Ops.Writes, snap.Checkpoints)

	// Pull the plug. All integrated RAM is lost; flash survives.
	if err := dev.PowerFail(); err != nil {
		return err
	}
	report, err := dev.Recover(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("  recovery took %s of simulated device time\n", report.WallClock.Round(time.Microsecond))
	fmt.Printf("    spare-area reads: %d, page reads: %d, page writes: %d\n",
		report.SpareReads, report.PageReads, report.PageWrites)
	if report.UsedBattery {
		fmt.Println("    dirty mapping entries were synchronized on battery power before shutdown")
	} else {
		fmt.Printf("    mapping entries recreated by the backwards scan: %d\n", report.RecoveredMappingEntries)
	}

	// Normal operation continues: a few more updates after recovery.
	for i := 0; i < 1000; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			return err
		}
	}
	fmt.Printf("  post-recovery writes succeeded\n\n")
	return dev.Close(ctx)
}

// crashAndRecoverEngine crashes a sharded 8-channel device in the middle of
// concurrent write batches — after durably trimming a range — and recovers
// every shard; the shards' simulated recoveries overlap on their own dies.
func crashAndRecoverEngine() error {
	ctx := context.Background()
	dev, err := geckoftl.Open(
		geckoftl.WithGeometry(512, 32, 1024),
		geckoftl.WithChannels(8, 1),
		geckoftl.WithCacheEntries(4096),
	)
	if err != nil {
		return err
	}
	lp := dev.LogicalPages()
	g := dev.Geometry()
	gen, err := geckoftl.NewUniform(lp, 7)
	if err != nil {
		return err
	}
	fmt.Printf("engine: %s sharded over %d channels, %d logical pages\n", g.FTL, g.Channels, lp)

	// Fill the device past capacity so garbage collection is live.
	batch := func() []geckoftl.LPN {
		lpns := make([]geckoftl.LPN, 256)
		for i := range lpns {
			lpns[i] = gen.Next().Page
		}
		return lpns
	}
	for done := int64(0); done < 2*lp; done += 256 {
		if err := dev.WriteBatch(ctx, batch()); err != nil {
			return err
		}
	}

	// The host discards a range and flushes, making the trim durable: these
	// pages must stay absent across the crash (as long as nothing rewrites
	// them, so the crash-window writer steers around the range).
	const trimStart, trimCount = 1000, 500
	if err := dev.Trim(ctx, trimStart, trimCount); err != nil {
		return err
	}
	if err := dev.Flush(ctx); err != nil {
		return err
	}
	fmt.Printf("  trimmed and flushed pages [%d,%d)\n", trimStart, trimStart+trimCount)
	outsideTrim := func() []geckoftl.LPN {
		lpns := batch()
		for i := range lpns {
			for lpns[i] >= trimStart && lpns[i] < trimStart+trimCount {
				lpns[i] = gen.Next().Page
			}
		}
		return lpns
	}

	// Keep batches flowing from a writer goroutine while the plug is pulled.
	writerDone := make(chan error, 1)
	go func() {
		for {
			if err := dev.WriteBatch(ctx, outsideTrim()); err != nil {
				writerDone <- err
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond) // let batches get in flight
	if err := dev.PowerFail(); err != nil {
		return err
	}
	if err := <-writerDone; !errors.Is(err, geckoftl.ErrPowerFailed) {
		return fmt.Errorf("writer stopped with unexpected error: %w", err)
	}
	fmt.Println("  power failed mid-batch; in-flight writes aborted with geckoftl.ErrPowerFailed")

	report, err := dev.Recover(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("  engine recovery wall-clock %s (parallel across %d channels), serial scan would take %s — %.1fx faster\n",
		report.WallClock.Round(time.Microsecond), g.Channels,
		report.SerialTime.Round(time.Microsecond), report.Speedup())
	fmt.Printf("  recovery IO: %d spare reads, %d page reads, %d page writes, %d mapping entries recreated\n",
		report.SpareReads, report.PageReads, report.PageWrites, report.RecoveredMappingEntries)
	for _, s := range report.Shards {
		marker := " "
		if s.Shard == report.SlowestShard {
			marker = "*" // critical path
		}
		fmt.Printf("   %s shard %d: %10s, %6d spare reads, %4d entries recreated\n",
			marker, s.Shard, s.Duration.Round(time.Microsecond), s.SpareReads, s.RecoveredMappingEntries)
	}

	// The durably trimmed range stayed absent.
	for lpn := geckoftl.LPN(trimStart); lpn < trimStart+trimCount; lpn++ {
		mapped, err := dev.Mapped(lpn)
		if err != nil {
			return err
		}
		if mapped {
			return fmt.Errorf("trimmed page %d resurrected by recovery", lpn)
		}
	}
	fmt.Println("  durably trimmed range verified absent after recovery")

	if err := dev.CheckConsistency(); err != nil {
		return fmt.Errorf("post-recovery consistency audit: %w", err)
	}
	for i := 0; i < 20; i++ {
		if err := dev.WriteBatch(ctx, batch()); err != nil {
			return err
		}
	}
	fmt.Println("  consistency audit passed; batched writes resumed on every channel")
	return dev.Close(ctx)
}
