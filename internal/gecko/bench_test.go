package gecko

import (
	"math/rand"
	"testing"

	"geckoftl/internal/flash"
)

// BenchmarkGeckoUpdate times one Update in steady state: uniform invalid-page
// reports over 1024 blocks, with a GC query and an erase report of a random
// block every 64 updates, so that flushes and merges at every level are
// amortized in as they are under an FTL.
func BenchmarkGeckoUpdate(b *testing.B) {
	const blocks, pagesPerBlock = 1024, 64
	h := newHarness(b, blocks, pagesPerBlock, 4096, 64, nil)
	rng := rand.New(rand.NewSource(1))
	step := func(i int) {
		if err := h.g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(blocks)), Offset: rng.Intn(pagesPerBlock)}); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			victim := flash.BlockID(rng.Intn(blocks))
			if _, err := h.g.Query(victim); err != nil {
				b.Fatal(err)
			}
			if err := h.g.RecordErase(victim); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < 200000; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkGeckoMerge times the sort-merge of runs over one key space,
// without the flash IO around it: two runs, the two-way merge of Section 3.2,
// on 2048 blocks and on the perfbench device's 4096 (recommended S, one word
// an entry), and three and five, the multi-way merge of Appendix A. The
// output pages come from the pool and go back to it, as a superseded run's
// do. entries/merge counts the output, ns/entry divides the time by the
// entries read.
func BenchmarkGeckoMerge(b *testing.B) {
	for _, bc := range []struct {
		name         string
		blocks, ways int
	}{
		{"2way/2048", 2048, 2},
		{"2way/perfbench", 4096, 2},
		{"3way", 2048, 3},
		{"5way", 2048, 5},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig(bc.blocks, 64, 4096)
			rng := rand.New(rand.NewSource(1))
			var inputs []*run
			in := 0
			for seq := uint64(1); seq <= uint64(bc.ways); seq++ {
				_, r := randomRunPair(rng, cfg, cfg.Blocks, cfg.EntriesPerPage(), seq)
				inputs = append(inputs, r)
				in += r.entryCount()
			}
			g := &Gecko{cfg: cfg, sz: cfg.sizes(), pool: newPagePool(cfg)}
			g.release(g.mergeEntryStreams(inputs)) // the first merge makes the directories
			b.ReportAllocs()
			b.ResetTimer()
			entries := 0
			for i := 0; i < b.N; i++ {
				out := g.mergeEntryStreams(inputs)
				entries = out.entryCount()
				g.release(out)
			}
			b.ReportMetric(float64(entries), "entries/merge")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in), "ns/entry")
		})
	}
}

// BenchmarkBufferDrain times one flush's worth of buffer work on the
// benchmark device's key space (4096 blocks, recommended S): V reports of
// random pages absorbed into distinct entries, then the drain into a sorted
// level-0 page, which comes from the pool, as production's does.
func BenchmarkBufferDrain(b *testing.B) {
	cfg := DefaultConfig(4096, 64, 4096)
	buf := newBuffer(cfg)
	pool := newPagePool(cfg)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	entries := 0
	for i := 0; i < b.N; i++ {
		for !buf.full() {
			buf.recordInvalid(flash.BlockID(rng.Intn(cfg.Blocks)), rng.Intn(cfg.PagesPerBlock))
		}
		page := buf.drain(pool.take())
		entries = len(page.ents)
		pool.put(page)
	}
	b.ReportMetric(float64(entries), "entries/drain")
}

// BenchmarkGeckoRecoverDirectories times one directory recovery (Appendix
// C.1) of BenchmarkGeckoUpdate's structure after 200000 updates: CrashRAM,
// then the spare-area scan of its 64 metadata blocks and the rebuild of the
// run directories, into the run structs the crash left spare.
func BenchmarkGeckoRecoverDirectories(b *testing.B) {
	const blocks, pagesPerBlock = 1024, 64
	h := newHarness(b, blocks, pagesPerBlock, 4096, 64, nil)
	rng := rand.New(rand.NewSource(1))
	for range 200000 {
		if err := h.g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(blocks)), Offset: rng.Intn(pagesPerBlock)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.g.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.g.CrashRAM()
		if err := h.g.RecoverDirectories(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(h.g.RunCount()), "runs")
}
