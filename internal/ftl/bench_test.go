package ftl

import (
	"context"
	"math/rand"
	"testing"

	"geckoftl/internal/flash"
)

// BenchmarkPickVictim times one victim choice on the block table of a
// steady-state GeckoFTL shard of the benchmark device: 4096 blocks of 64
// pages written through once and overwritten uniformly once more, so the
// valid counts, the three active frontiers, the dead metadata blocks and the
// protected set are what the garbage collector really meets. Greedy and
// metadata-aware read the full-block index; cost-benefit scores every full
// user block. Before the index every policy made a pass over the block table
// per victim, which on this table read 9.3 µs (greedy), 10.0 µs
// (metadata-aware) and 13.1 µs (cost-benefit).
func BenchmarkPickVictim(b *testing.B) {
	f := steadyStateFTL(b, 4096, GeckoFTLOptions)
	for _, policy := range []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := f.bm.PickVictim(policy); !ok {
					b.Fatal("no victim")
				}
			}
		})
	}
}

// steadyStateFTL builds an FTL over a whole-device partition of the given
// number of 64-page blocks, written through once and overwritten uniformly
// once more.
func steadyStateFTL(b *testing.B, blocks int, options func(int) Options) *FTL {
	f, err := New(newTestDevice(b, blocks, 64, 4096), options(1024))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pages := f.LogicalPages()
	for i := int64(0); i < 2*pages; i++ {
		lpn := flash.LPN(i)
		if i >= pages {
			lpn = flash.LPN(rng.Int63n(pages))
		}
		if err := f.Write(lpn); err != nil {
			b.Fatal(err)
		}
	}
	return f
}

// benchmarkFTLWrite times one steady-state FTL.Write below the engine: a
// 1024-block partition written through once and overwritten uniformly once more
// before the timer starts.
func benchmarkFTLWrite(b *testing.B, options func(int) Options) {
	f := steadyStateFTL(b, 1024, options)
	rng := rand.New(rand.NewSource(2))
	pages := f.LogicalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(flash.LPN(rng.Int63n(pages))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTLWriteGecko(b *testing.B) { benchmarkFTLWrite(b, GeckoFTLOptions) }
func BenchmarkFTLWriteDFTL(b *testing.B)  { benchmarkFTLWrite(b, DFTLOptions) }

// BenchmarkSynchronizeFirstTouch times the synchronization that opens a
// protection window on a translation page: one dirty entry written to a
// 1024-entry page, every entry of which is mapped, whose previous version
// buffer recovery must be able to diff against. Every page is protected once
// and then the window ends, as a Gecko buffer flush ends it, and dead
// translation blocks are erased when free ones run short.
func BenchmarkSynchronizeFirstTouch(b *testing.B) {
	dev := newTestDevice(b, 1024, 64, 4096)
	bm := newBlockManager(dev, 2, false, false)
	table := newTranslationTable(bm, int64(dev.Config().LogicalPages()), dev.Config().PageSize, true)
	per := int64(table.EntriesPerPage())
	span := func(tp int) int64 { return min(per, table.logicalPages-int64(tp)*per) }
	updates := make([]dirtyUpdate, 0, per)
	for tp := 0; tp < table.Pages(); tp++ {
		updates = updates[:0]
		for i := int64(0); i < span(tp); i++ {
			lpn := flash.LPN(int64(tp)*per + i)
			updates = append(updates, dirtyUpdate{Logical: lpn, Physical: flash.PPN(lpn)})
		}
		if err := synchronizeTable(table, tp, updates); err != nil {
			b.Fatal(err)
		}
	}
	table.ClearProtected()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := i % table.Pages()
		updates = append(updates[:0], dirtyUpdate{Logical: flash.LPN(int64(tp)*per + int64(i)%span(tp)), Physical: flash.PPN(i)})
		if err := synchronizeTable(table, tp, updates); err != nil {
			b.Fatal(err)
		}
		if tp < table.Pages()-1 {
			continue
		}
		table.ClearProtected()
		if bm.FreeBlocks() <= 2 {
			for _, block := range bm.FullyInvalidBlocks(GroupTranslation) {
				if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkEngineReadBatch times one ReadBatch of 256 pages whose mapping
// entries are cached, spread evenly over 8 shards: the reads beneath are as
// cheap as an operation gets, so what is left is the batch's own cost —
// bucketing, the arrival stamp, a lock per shard.
func BenchmarkEngineReadBatch(b *testing.B) {
	cfg := flash.ScaledConfig(1024)
	cfg.Channels = 8
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(dev, GeckoFTLOptions(64), 0)
	if err != nil {
		b.Fatal(err)
	}
	lpns := make([]flash.LPN, 256)
	for i := range lpns {
		lpns[i] = flash.LPN(i)
	}
	ctx := context.Background()
	if err := eng.WriteBatch(ctx, lpns); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ReadBatch(ctx, lpns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTLRecover times one GeckoRec of a steady-state GeckoFTL shard of
// 1024 64-page blocks: PowerFail and Recover, after 1000 uniform writes,
// untimed, that leave the mapping cache dirty and Gecko's buffer part full.
// A crash refills the RAM structures the shard already owns, so the objects
// a recovery makes do not grow with the shard (TestRecoveryAllocBudget).
func BenchmarkFTLRecover(b *testing.B) {
	f := steadyStateFTL(b, 1024, GeckoFTLOptions)
	rng := rand.New(rand.NewSource(2))
	pages := f.LogicalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for range 1000 {
			if err := f.Write(flash.LPN(rng.Int63n(pages))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := f.PowerFail(); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}
