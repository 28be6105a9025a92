package ftl

import (
	"context"
	"math/rand"
	"testing"

	"geckoftl/internal/flash"
)

// BenchmarkPickVictim times one victim scan over 4096 full user blocks with
// random valid counts, three full active frontiers and 32 protected blocks:
// the table a steady-state GeckoFTL shard of the benchmark device hands its
// garbage collector.
func BenchmarkPickVictim(b *testing.B) {
	const blocks, pagesPerBlock = 4096, 64
	rng := rand.New(rand.NewSource(1))
	bm := newBlockManager(newTestDevice(b, blocks, pagesPerBlock, 4096), 2, false, false)
	bm.free = bm.free[:0]
	bm.programs = 1 << 20
	for i := range bm.blocks {
		bm.blocks[i] = blockInfo{
			allocated: true, writePointer: pagesPerBlock, valid: 16 + rng.Intn(pagesPerBlock-16),
			lastProgram: uint64(rng.Intn(1 << 20)),
		}
	}
	excluded := map[flash.BlockID]bool{}
	for range 32 {
		excluded[flash.BlockID(rng.Intn(blocks))] = true
	}
	for fr := range numGroups {
		bm.active[fr] = flash.BlockID(rng.Intn(blocks))
	}
	for _, policy := range []VictimPolicy{VictimMetadataAware, VictimCostBenefit} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := bm.PickVictim(policy, excluded); !ok {
					b.Fatal("no victim")
				}
			}
		})
	}
}

// benchmarkFTLWrite times one steady-state FTL.Write below the engine: a
// 1024-block plane written through once and overwritten uniformly once more
// before the timer starts.
func benchmarkFTLWrite(b *testing.B, build func(flash.Plane, int) (*FTL, error)) {
	f, err := build(newTestDevice(b, 1024, 64, 4096), 1024)
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Write(flash.LPN(rng.Int63n(pages))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTLWriteGecko(b *testing.B) { benchmarkFTLWrite(b, NewGeckoFTL) }
func BenchmarkFTLWriteDFTL(b *testing.B)  { benchmarkFTLWrite(b, NewDFTL) }

// BenchmarkEngineFanOut times one ReadBatch of 256 pages whose mapping entries
// are cached, spread evenly over 8 shards: the reads beneath are as cheap as
// an operation gets, so what is left is the fan-out itself — bucketing, the
// goroutines, the join.
func BenchmarkEngineFanOut(b *testing.B) {
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
