package geckoftl_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"geckoftl"
	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/stats"
)

// steadyDevice opens the benchmark's device (4096 blocks x 64 pages x 4 KiB,
// 4096 cached mapping entries in all) and brings it to steady state: every
// logical page written once in order, then as many uniform overwrites again,
// so that the cache is full of dirty entries, garbage collection runs on
// every few writes and Logarithmic Gecko has runs on every level. It returns
// the device and the seeded source the caller draws further pages from.
func steadyDevice(tb testing.TB, ftlName string, channels int) (*geckoftl.Device, *rand.Rand) {
	tb.Helper()
	dev, err := geckoftl.Open(
		geckoftl.WithGeometry(4096, 64, 4096),
		geckoftl.WithChannels(channels, 1),
		geckoftl.WithFTL(ftlName),
		geckoftl.WithCacheEntries(4096/channels),
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dev.Close(context.Background()) })
	return dev, fillAndOverwrite(tb, dev)
}

// fillAndOverwrite writes every logical page of dev once in order, then as
// many uniformly drawn pages again, and returns the seeded source it drew
// them from.
func fillAndOverwrite(tb testing.TB, dev *geckoftl.Device) *rand.Rand {
	tb.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	pages := dev.LogicalPages()
	for i := int64(0); i < 2*pages; i++ {
		lpn := geckoftl.LPN(i)
		if i >= pages {
			lpn = geckoftl.LPN(rng.Int63n(pages))
		}
		if err := dev.Write(ctx, lpn); err != nil {
			tb.Fatal(err)
		}
	}
	return rng
}

// TestHostAllocBudget pins the host-side allocation cost of the public paths
// in steady state. Writes are uniform overwrites, every one a cache miss that
// evicts a dirty entry and runs a translation-page synchronization, with
// garbage collection and (on GeckoFTL) buffer flushes and merges amortized
// in. A GC victim's validity query answers into the collector's own bitmap,
// and a Gecko flush or merge takes its slab and its run directory from the
// runs it supersedes, so such a write allocates nothing: DFTL not once in
// the 50000 writes, GeckoFTL once: a level's slice, the first time a merge
// places a run there.
// Reads and trims of a cached page, and recording a latency, allocate
// nothing beneath the plumbing that carries them, and an asynchronous write
// costs its share of a ticket slab and no more.
func TestHostAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	ctx := context.Background()
	for _, tc := range []struct {
		ftl    string
		budget float64
		// bytes bounds what a write allocates; zero leaves it open. On
		// GeckoFTL the objects are few enough to pass the budget above
		// whatever their size, and were large: a slab per Gecko flush and
		// merge, a page image per protected translation page, 232 bytes a
		// write. With the slabs recycled and the images an undo log, a
		// run's directory and a GC query's bitmap were left, 3 to 6 bytes;
		// with those reused too, one 8-byte object: 0.00016 bytes a write,
		// and the budget is half as much again.
		bytes float64
	}{{"geckoftl", 0.05, 0.00024}, {"dftl", 0, 0}} {
		t.Run(tc.ftl, func(t *testing.T) {
			dev, rng := steadyDevice(t, tc.ftl, 1)
			pages := dev.LogicalPages()
			const writes = 50000
			lpns := make([]geckoftl.LPN, writes)
			for i := range lpns {
				lpns[i] = geckoftl.LPN(rng.Int63n(pages))
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, lpn := range lpns {
				if err := dev.Write(ctx, lpn); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perWrite := float64(after.Mallocs-before.Mallocs) / writes
			bytesPerWrite := float64(after.TotalAlloc-before.TotalAlloc) / writes
			t.Logf("%s: %.5f allocs and %.5f bytes per Device.Write", tc.ftl, perWrite, bytesPerWrite)
			if perWrite > tc.budget {
				t.Errorf("%s: %.5f allocs per steady-state Device.Write, budget %g", tc.ftl, perWrite, tc.budget)
			}
			if tc.bytes > 0 && bytesPerWrite > tc.bytes {
				t.Errorf("%s: %.5f bytes per steady-state Device.Write, budget %g", tc.ftl, bytesPerWrite, tc.bytes)
			}

			// A read of a page whose mapping entry is cached.
			hot := lpns[writes-1]
			if perRead := testing.AllocsPerRun(1000, func() {
				if err := dev.Read(ctx, hot); err != nil {
					t.Fatal(err)
				}
			}); perRead != 0 {
				t.Errorf("%s: %.0f allocs per cached Device.Read, want 0", tc.ftl, perRead)
			}

			// A trim of the same page. Device.Trim takes the batch path: a
			// short range's page list lives on the stack, the batch's own
			// scratch is recycled, the caller drains the one bucket and the
			// trim beneath adds nothing (see engine-trim below).
			if perTrim := testing.AllocsPerRun(1000, func() {
				if err := dev.Trim(ctx, hot, 1); err != nil {
					t.Fatal(err)
				}
			}); perTrim != 0 {
				t.Errorf("%s: %.0f allocs per cached one-page Device.Trim, want 0", tc.ftl, perTrim)
			}
		})
	}

	t.Run("engine-trim", func(t *testing.T) {
		flashDev, err := flash.NewDevice(flash.ScaledConfig(256))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := ftl.NewEngine(flashDev, ftl.GeckoFTLOptions(64), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Write(7); err != nil {
			t.Fatal(err)
		}
		if perTrim := testing.AllocsPerRun(1000, func() {
			if err := eng.Do(flash.HostTrim, 7); err != nil {
				t.Fatal(err)
			}
		}); perTrim != 0 {
			t.Errorf("%.0f allocs per Engine.Do trim of a cached entry, want 0", perTrim)
		}
	})

	t.Run("histogram", func(t *testing.T) {
		h := stats.NewHistogram()
		if perRecord := testing.AllocsPerRun(1000, func() { h.Record(1234567) }); perRecord != 0 {
			t.Errorf("%.0f allocs per Histogram.Record, want 0", perRecord)
		}
	})

	// Asynchronous writes, rounds of 64 as perfbench's async-write-8ch
	// submits them. The ticket handed back is 16 bytes, carved from a
	// per-shard slab of 255 that is one allocation, and a successful one
	// points at the engine's one shared outcome: a submission costs 1/255 of
	// an object and 16.06 bytes, the FTL's amortized flushes and merges a
	// little more. A ticket allocated on its own costs one object per
	// submission and fails the object budget twenty times over; a ticket that
	// carries its own error again is 32 bytes and fails the bytes budget.
	t.Run("submit-wait", func(t *testing.T) {
		dev, rng := steadyDevice(t, "geckoftl", 8)
		pages := dev.LogicalPages()
		const depth, rounds = 64, 300
		lpns := make([]geckoftl.LPN, depth*rounds)
		for i := range lpns {
			lpns[i] = geckoftl.LPN(rng.Int63n(pages))
		}
		tickets := make([]*geckoftl.Ticket, depth)
		round := func(batch []geckoftl.LPN) {
			for i, lpn := range batch {
				tk, err := dev.SubmitWrite(ctx, lpn)
				if err != nil {
					t.Fatal(err)
				}
				tickets[i] = tk
			}
			for _, tk := range tickets {
				if err := tk.Wait(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		round(lpns[:depth]) // warms the shards' first slabs
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := depth; i < len(lpns); i += depth {
			round(lpns[i : i+depth])
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.Mallocs-before.Mallocs) / float64(len(lpns)-depth)
		bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(lpns)-depth)
		t.Logf("%.4f allocs and %.2f bytes per SubmitWrite+Wait", perOp, bytesPerOp)
		if perOp > 0.05 {
			t.Errorf("%.3f allocs per SubmitWrite+Wait, budget 0.05", perOp)
		}
		if bytesPerOp > 16.2 {
			t.Errorf("%.2f bytes per SubmitWrite+Wait, budget 16.2", bytesPerOp)
		}
	})

	// Batches: what a batch costs around the operations it carries. A batch
	// runs every bucket on its caller's goroutine over pooled scratch, so it
	// allocates nothing however many shards it spans. The writes are of cached pages; the rare object a
	// Gecko merge makes among them (see above) is fewer than one per run,
	// which AllocsPerRun's integer average drops.
	t.Run("batches", func(t *testing.T) {
		dev, _ := steadyDevice(t, "geckoftl", 8)
		const shards = 8
		spread := make([]geckoftl.LPN, 256)
		oneShard := make([]geckoftl.LPN, 32)
		for i := range spread {
			spread[i] = geckoftl.LPN(i)
		}
		for i := range oneShard {
			oneShard[i] = geckoftl.LPN(i * shards)
		}
		for _, op := range []struct {
			name string
			run  func(context.Context, []geckoftl.LPN) error
		}{{"WriteBatch", dev.WriteBatch}, {"ReadBatch", dev.ReadBatch}, {"TrimBatch", dev.TrimBatch}} {
			for _, tc := range []struct {
				name string
				lpns []geckoftl.LPN
			}{{"256 pages on 8 shards", spread}, {"32 pages on one shard", oneShard}} {
				if err := dev.WriteBatch(ctx, tc.lpns); err != nil { // cache the pages' entries
					t.Fatal(err)
				}
				perBatch := testing.AllocsPerRun(200, func() {
					if err := op.run(ctx, tc.lpns); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%.0f allocs per %s of %s", perBatch, op.name, tc.name)
				if perBatch != 0 {
					t.Errorf("%.0f allocs per %s of %s, want 0", perBatch, op.name, tc.name)
				}
			}
		}
	})
}

// TestHostBytesPerPage pins what a device holds on the host for each
// physical page it simulates: the live heap of a device filled and
// overwritten once, at 4096 blocks less at 1024 (64 pages each, one channel,
// 1024 cache entries in both), over the pages added. The cache and the
// FTL's fixed structures cancel out; what is left grows with the device —
// the flash image (12 bytes a page: a 4-byte logical page and a stamp
// packing the write sequence with the block type; metadata pages' tags in
// per-block rows), the dense per-LPN and per-block indexes, and the validity
// store, which is where the FTLs differ: Logarithmic Gecko's runs for
// GeckoFTL, a page-validity log beside a RAM bitmap for IB-FTL. Each budget
// is the reading when this was written times 1.10: 26.1, 21.9, 23.3, 24.0
// and 37.3 bytes in the order below. A 17-byte flash image (an 8-byte
// logical page, the sequence and the type each in their own field) reads
// 31.1, 26.9, 28.3, 29.0 and 42.3, over every budget.
func TestHostBytesPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	liveHeap := func(ftlName string, blocks int) uint64 {
		dev, err := geckoftl.Open(
			geckoftl.WithGeometry(blocks, 64, 4096),
			geckoftl.WithChannels(1, 1),
			geckoftl.WithFTL(ftlName),
			geckoftl.WithCacheEntries(1024),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close(context.Background())
		fillAndOverwrite(t, dev)
		// Collect twice: a sync.Pool keeps its items through one collection,
		// and the engine's batch pool holds items bound to their engine, so
		// after one an earlier test's closed device can still be live and
		// count against the reading.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(dev)
		return ms.HeapAlloc
	}
	for _, tc := range []struct {
		ftl    string
		budget float64
	}{{"geckoftl", 28.7}, {"dftl", 24.1}, {"lazyftl", 25.6}, {"uftl", 26.4}, {"ibftl", 41.0}} {
		t.Run(tc.ftl, func(t *testing.T) {
			small := liveHeap(tc.ftl, 1024)
			large := liveHeap(tc.ftl, 4096)
			perPage := (float64(large) - float64(small)) / float64((4096-1024)*64)
			t.Logf("%s: %.1f MB at 1024 blocks, %.1f MB at 4096: %.1f bytes per physical page",
				tc.ftl, float64(small)/(1<<20), float64(large)/(1<<20), perPage)
			if perPage > tc.budget {
				t.Errorf("%s: %.1f host bytes per simulated page, budget %.1f", tc.ftl, perPage, tc.budget)
			}
		})
	}
}

// TestHostBytesPerShard pins what a device holds on the host for each shard
// it runs: the live heap of TestHostBytesPerPage's 4096-block device on 8
// channels less on 1, after four logical fills, over the 7 shards added.
// The device's pages are the same on both, so the per-page structures cancel
// out; what is left is each shard's own — the cache's slab of 1024 entries,
// the engine's and the FTL's fixed structures, and their scratch. The budget
// is the reading when this was written, 117 KB, times 1.10. When a
// synchronization and a checkpoint copied the cache's entries into four
// scratch buffers, each grown to a translation page of 1024 entries, it read
// 226 KB.
func TestHostBytesPerShard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const blocks, budget = 4096, 129 << 10
	liveHeap := func(channels int) uint64 {
		dev, err := geckoftl.Open(
			geckoftl.WithGeometry(blocks, 64, 4096),
			geckoftl.WithChannels(channels, 1),
			geckoftl.WithCacheEntries(1024),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close(context.Background())
		rng := fillAndOverwrite(t, dev)
		for range 2 * dev.LogicalPages() {
			if err := dev.Write(context.Background(), geckoftl.LPN(rng.Int63n(dev.LogicalPages()))); err != nil {
				t.Fatal(err)
			}
		}
		// Collected twice, as in TestHostBytesPerPage.
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(dev)
		return ms.HeapAlloc
	}
	one, eight := liveHeap(1), liveHeap(8)
	perShard := (float64(eight) - float64(one)) / 7
	t.Logf("%.2f MB on 1 channel, %.2f MB on 8: %.0f KB per shard", float64(one)/(1<<20), float64(eight)/(1<<20), perShard/(1<<10))
	if perShard > budget {
		t.Errorf("%.0f host KB per shard, budget %d", perShard/(1<<10), budget>>10)
	}
}

// TestRecoveryAllocBudget pins GeckoRec's host allocations to a count that
// does not grow with the device. Recovery's indexes are arrays the shard
// keeps, and a crash leaves Logarithmic Gecko's run structs, level slices
// and a largest run's worth of its page pool in place for the recovered
// directories and the runs written next, the translation table's undo log
// with its storage, and recovery's scratch (the directory scan, the validity
// rows, the per-block and per-translation-page arrays) for the next recovery
// to overwrite. The first crash of a device allocates that scratch; the test
// measures the second, PowerFail+Recover and the 5000 writes after it, on
// one GeckoFTL shard after the same seeded overwrite stream: at most 10
// objects at 1024 blocks and at 4096, 5 and 0 when this was written (run
// pages once the kept pool runs dry). Per-run slabs on a free list that a
// crash dropped read 15 and 20, most of them the slabs of the runs the
// writes flush; an
// undo log released by the recovery and regrown by doubling in the writes,
// and scratch allocated afresh by each recovery, read 38 and 43; a map or a
// bitmap per block in internal/ftl/recovery.go or gecko.ScanValidity makes
// two objects per block, thousands more.
func TestRecoveryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const budget = 10
	recoverAllocs := func(blocks int) uint64 {
		cfg := flash.ScaledConfig(blocks)
		cfg.PagesPerBlock = 64
		part, err := flash.MustNewDevice(cfg).Partition(0, blocks)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ftl.New(part, ftl.GeckoFTLOptions(1024))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		pages := f.LogicalPages()
		write := func(lpn flash.LPN) {
			if err := f.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
		overwrite := func(n int64) {
			for range n {
				write(flash.LPN(rng.Int63n(pages)))
			}
		}
		for lpn := range flash.LPN(pages) {
			write(lpn)
		}
		overwrite(pages)
		var before, after runtime.MemStats
		for range 2 {
			runtime.ReadMemStats(&before)
			if err := f.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Recover(); err != nil {
				t.Fatal(err)
			}
			overwrite(5000)
			runtime.ReadMemStats(&after)
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		n := after.Mallocs - before.Mallocs
		t.Logf("%d blocks: %d allocations and %d bytes in the second PowerFail+Recover and the 5000 writes after it", blocks, n, after.TotalAlloc-before.TotalAlloc)
		return n
	}
	for _, blocks := range []int{1024, 4096} {
		if n := recoverAllocs(blocks); n > budget {
			t.Errorf("PowerFail+Recover and 5000 writes make %d allocations at %d blocks, budget %d", n, blocks, budget)
		}
	}

	// The engine around the shards adds only its report: a warm 4-shard
	// engine's second PowerFail+Recover allocates the EngineRecoveryReport
	// and its Shards slice, 2 objects. A goroutine per shard after the first
	// read 5 to 8; that and recovery scratch regrown to a new high-water
	// mark (the UIP reconciliation's stale list, the buffer replay's page
	// list) read 12 to 15.
	t.Run("engine", func(t *testing.T) {
		const reportAllocs = 2
		cfg := flash.ScaledConfig(1024)
		cfg.PagesPerBlock = 64
		cfg.Channels, cfg.DiesPerChannel = 4, 1
		e, err := ftl.NewEngine(flash.MustNewDevice(cfg), ftl.GeckoFTLOptions(1024), 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		pages := e.LogicalPages()
		write := func(lpn flash.LPN) {
			if err := e.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
		for lpn := range flash.LPN(pages) {
			write(lpn)
		}
		var before, after runtime.MemStats
		for range 2 {
			for range pages {
				write(flash.LPN(rng.Int63n(pages)))
			}
			runtime.ReadMemStats(&before)
			if err := e.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Recover(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
		}
		if err := e.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		n := after.Mallocs - before.Mallocs
		t.Logf("4 shards: %d allocations and %d bytes in the second PowerFail+Recover", n, after.TotalAlloc-before.TotalAlloc)
		if n > reportAllocs {
			t.Errorf("a 4-shard engine's PowerFail+Recover makes %d allocations, want at most %d (the report)", n, reportAllocs)
		}
	})
}

// BenchmarkDeviceSubmitWait times one steady-state asynchronous write in
// rounds of 64 on 8 channels: SubmitWrite for a round, then Wait on each
// ticket, the loop of perfbench's async-write-8ch.
func BenchmarkDeviceSubmitWait(b *testing.B) {
	b.Run("8ch", func(b *testing.B) {
		ctx := context.Background()
		dev, rng := steadyDevice(b, "geckoftl", 8)
		pages := dev.LogicalPages()
		tickets := make([]*geckoftl.Ticket, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += len(tickets) {
			window := tickets[:min(len(tickets), b.N-done)]
			for i := range window {
				tk, err := dev.SubmitWrite(ctx, geckoftl.LPN(rng.Int63n(pages)))
				if err != nil {
					b.Fatal(err)
				}
				window[i] = tk
			}
			for _, tk := range window {
				if err := tk.Wait(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkDeviceParallelCallers times steady-state writes from G callers at
// once, G in {1, 2, GOMAXPROCS} up to the device's 8 shards, each caller on
// shards no other caller touches: Write one page at a time, and SubmitWrite
// in rounds of 64 that the caller then waits on, as BenchmarkDeviceSubmitWait
// does. ns/op is wall time per write over all callers, so callers that share
// no shard latch should divide it by up to G; a lock or an atomic every
// caller writes on the hot path shows as less. Nothing gates on it.
func BenchmarkDeviceParallelCallers(b *testing.B) {
	const shards, depth = 8, 64
	ctx := context.Background()
	callers := []int{1, 2}
	if g := min(runtime.GOMAXPROCS(0), shards); g > 2 {
		callers = append(callers, g)
	}
	for _, path := range []string{"Write", "SubmitWrite"} {
		for _, g := range callers {
			b.Run(fmt.Sprintf("%s/G%d", path, g), func(b *testing.B) {
				dev, _ := steadyDevice(b, "geckoftl", shards)
				perShard := dev.LogicalPages() / shards
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := range g {
					wg.Add(1)
					go func() {
						defer wg.Done()
						// Caller c owns shards c, c+g, c+2g, ...: page
						// local*shards + shard lies on shard.
						rng := rand.New(rand.NewSource(int64(c + 2)))
						owned := (shards - c + g - 1) / g
						page := func() geckoftl.LPN {
							shard := c + g*rng.Intn(owned)
							return geckoftl.LPN(rng.Int63n(perShard)*shards + int64(shard))
						}
						n := b.N / g
						if c < b.N%g {
							n++
						}
						if path == "Write" {
							for range n {
								if err := dev.Write(ctx, page()); err != nil {
									b.Error(err)
									return
								}
							}
							return
						}
						tickets := make([]*geckoftl.Ticket, depth)
						for done := 0; done < n; done += depth {
							window := tickets[:min(depth, n-done)]
							for i := range window {
								tk, err := dev.SubmitWrite(ctx, page())
								if err != nil {
									b.Error(err)
									return
								}
								window[i] = tk
							}
							for _, tk := range window {
								if err := tk.Wait(ctx); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkDeviceWriteBatch times steady-state writes issued 256 at a time
// through WriteBatch on 8 channels, per page written.
func BenchmarkDeviceWriteBatch(b *testing.B) {
	b.Run("8ch", func(b *testing.B) {
		ctx := context.Background()
		dev, rng := steadyDevice(b, "geckoftl", 8)
		pages := dev.LogicalPages()
		lpns := make([]geckoftl.LPN, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += len(lpns) {
			batch := lpns[:min(len(lpns), b.N-done)]
			for i := range batch {
				batch[i] = geckoftl.LPN(rng.Int63n(pages))
			}
			if err := dev.WriteBatch(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDeviceWrite times one steady-state Device.Write of a uniformly
// drawn page: the public path of the perfbench write workloads, as a
// `go test -bench` entry.
func BenchmarkDeviceWrite(b *testing.B) {
	ctx := context.Background()
	for _, ftlName := range []string{"geckoftl", "dftl"} {
		for _, channels := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/%dch", ftlName, channels), func(b *testing.B) {
				dev, rng := steadyDevice(b, ftlName, channels)
				pages := dev.LogicalPages()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := dev.Write(ctx, geckoftl.LPN(rng.Int63n(pages))); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// crashPointDevice opens perfbench's crash-recover-4ch geometry: 4096 blocks
// x 64 pages x 4 KiB on 4 channels, 1024 cached mapping entries a shard, a
// checkpoint file; and brings it to steady state (fillAndOverwrite).
func crashPointDevice(tb testing.TB) (*geckoftl.Device, *rand.Rand) {
	tb.Helper()
	dev, err := geckoftl.Open(
		geckoftl.WithGeometry(4096, 64, 4096),
		geckoftl.WithChannels(4, 1),
		geckoftl.WithCacheEntries(1024),
		geckoftl.WithCheckpointPath(filepath.Join(tb.TempDir(), "checkpoint")),
	)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { dev.Close(context.Background()) })
	return dev, fillAndOverwrite(tb, dev)
}

// TestRestartAllocBudget pins the host memory of a warm restart to the
// checkpoint it moves. The export encodes every shard straight into the
// buffer the device keeps for its checkpoints, the file is written from that
// buffer and read back into it, it is decoded into a checkpoint.File the
// device keeps too, and each shard decodes into the RAM it already owns, so
// the second Restart on BenchmarkCrashPoint's geometry allocates at most
// 0.05x its CheckpointBytes: what is left is the file system's. The device
// is flushed first, so the figure leaves out what the flush's Gecko merges
// allocate, which depends on the writes since the last flush, not on the
// restart. The second restart of the device read 0.01x of a 196 KB
// checkpoint when this was written; 1.01x while each restart encoded into a
// buffer of its own, and 5.55x with a buffer per section, a copy to write
// the file, a new buffer to read it, fresh per-shard slices to decode into
// and a copy of each mapping cache. The run directories go through storage
// the shards keep, out of the export and into spare Gecko runs on the
// import, and the shutdown flush keeps the undo log's storage, so the second
// Restart and the 5000 writes after it make at most 60 objects, most of them
// the file system's and the slabs of the runs the writes flush: 44 when this
// was written (18 of them the Restart's), 95 while the flush released the
// undo log and each export re-made its runs' page lists.
func TestRestartAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the program's behalf")
	}
	const budget, objectBudget = 0.05, 60
	ctx := context.Background()
	dev, rng := crashPointDevice(t)
	pages := dev.LogicalPages()
	var before, restarted, after runtime.MemStats
	var rep *geckoftl.RestartReport
	for range 2 {
		if err := dev.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		var err error
		rep, err = dev.Restart(ctx)
		runtime.ReadMemStats(&restarted)
		if err != nil || !rep.Warm {
			t.Fatalf("restart: warm %v, error %v", rep != nil && rep.Warm, err)
		}
		for range 5000 {
			if err := dev.Write(ctx, geckoftl.LPN(rng.Int63n(pages))); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
	}
	bytes := restarted.TotalAlloc - before.TotalAlloc
	ratio := float64(bytes) / float64(rep.CheckpointBytes)
	objects := after.Mallocs - before.Mallocs
	t.Logf("the second Restart allocated %d objects and %d bytes for a %d-byte checkpoint (%.3fx), and %d objects with the 5000 writes after it",
		restarted.Mallocs-before.Mallocs, bytes, rep.CheckpointBytes, ratio, objects)
	if ratio > budget {
		t.Errorf("Restart allocates %.3fx its checkpoint's bytes, budget %.2fx", ratio, budget)
	}
	if objects > objectBudget {
		t.Errorf("Restart and 5000 writes make %d objects, budget %d", objects, objectBudget)
	}
}

// BenchmarkCrashPoint times one crash point of perfbench's crash-recover-4ch
// on its geometry (crashPointDevice). Each iteration writes 5000 uniformly
// drawn pages, untimed, and then times either PowerFail+Recover (a cold
// GeckoRec, "recover") or Restart (flush, checkpoint, warm restore,
// "restart"): ns/op is host time per crash point.
func BenchmarkCrashPoint(b *testing.B) {
	ctx := context.Background()
	for _, mode := range []string{"recover", "restart"} {
		b.Run(mode, func(b *testing.B) {
			dev, rng := crashPointDevice(b)
			pages := dev.LogicalPages()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for range 5000 {
					if err := dev.Write(ctx, geckoftl.LPN(rng.Int63n(pages))); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if mode == "recover" {
					if err := dev.PowerFail(); err != nil {
						b.Fatal(err)
					}
					if _, err := dev.Recover(ctx); err != nil {
						b.Fatal(err)
					}
				} else if rep, err := dev.Restart(ctx); err != nil || !rep.Warm {
					b.Fatalf("restart: warm %v, error %v", rep != nil && rep.Warm, err)
				}
			}
		})
	}
}
