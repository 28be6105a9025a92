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
	f := steadyStateFTL(b, 4096, NewGeckoFTL)
	excluded := f.table.ProtectedBlocks()
	for _, policy := range []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := f.bm.PickVictim(policy, excluded); !ok {
					b.Fatal("no victim")
				}
			}
		})
	}
}

// steadyStateFTL builds an FTL over a plane of the given number of 64-page
// blocks, written through once and overwritten uniformly once more.
func steadyStateFTL(b *testing.B, blocks int, build func(flash.Plane, int) (*FTL, error)) *FTL {
	f, err := build(newTestDevice(b, blocks, 64, 4096), 1024)
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
// 1024-block plane written through once and overwritten uniformly once more
// before the timer starts.
func benchmarkFTLWrite(b *testing.B, build func(flash.Plane, int) (*FTL, error)) {
	f := steadyStateFTL(b, 1024, build)
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
