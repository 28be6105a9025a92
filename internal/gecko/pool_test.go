package gecko

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"geckoftl/internal/flash"
)

// TestGeckoPageStorageBound drives one Gecko through 200 000 seeded updates
// and erase reports, crashing and recovering every 20 000, two-way and
// multi-way, at S = 1 and 2, on the perfbench device's key space (4096
// blocks of 64 pages). After every operation the pages of the live runs and
// those of the pool together must stay within what New fills the pool with,
// three times the largest run's pages; and from New to the first crash no
// page may be allocated: every page a run or the pool holds must be one New
// made. After a crash the pool keeps the largest run's pages and no more.
func TestGeckoPageStorageBound(t *testing.T) {
	for _, s := range []int{1, 2} {
		for _, multiWay := range []bool{false, true} {
			t.Run(fmt.Sprintf("S=%d multiway=%t", s, multiWay), func(t *testing.T) {
				const blocks, pagesPerBlock, updates, crashEvery = 4096, 64, 200000, 20000
				h := newHarness(t, blocks, pagesPerBlock, 4096, 64, func(c *Config) {
					c.PartitionFactor, c.MultiWayMerge = s, multiWay
				})
				g := h.g
				largest := g.cfg.LargestRunPages()
				bound := 3 * largest
				made := make(map[*entry]bool, bound)
				for _, p := range g.pool.pages {
					made[unsafe.SliceData(p.ents)] = true
				}
				if len(made) != bound {
					t.Fatalf("New filled the pool with %d pages, want %d", len(made), bound)
				}
				seed := int64(10 * s)
				if multiWay {
					seed++
				}
				rng := rand.New(rand.NewSource(seed))
				crashed, flushes, peak, slack := false, int64(0), 0, bound
				for i := 1; i <= updates; i++ {
					var err error
					if rng.Intn(12) == 0 {
						err = g.RecordErase(flash.BlockID(rng.Intn(blocks)))
					} else {
						err = g.Update(flash.Addr{Block: flash.BlockID(rng.Intn(blocks)), Offset: rng.Intn(pagesPerBlock)})
					}
					if err != nil {
						t.Fatal(err)
					}
					if n := g.FlashPages() + len(g.pool.pages); n > bound {
						t.Fatalf("update %d: %d live-run pages and %d pooled, bound %d", i, g.FlashPages(), len(g.pool.pages), bound)
					} else {
						peak = max(peak, n)
						if !crashed {
							slack = min(slack, len(g.pool.pages))
						}
					}
					if f := g.Stats().Flushes; !crashed && f != flushes {
						flushes = f
						for r := range g.runsNewestFirst {
							for _, p := range r.pages {
								if !made[unsafe.SliceData(p.ents)] {
									t.Fatalf("update %d: %v holds a page allocated after New, before any crash", i, r)
								}
							}
						}
						for _, p := range g.pool.pages {
							if !made[unsafe.SliceData(p.ents)] {
								t.Fatalf("update %d: the pool holds a page allocated after New, before any crash", i)
							}
						}
					}
					if i%crashEvery == 0 {
						h.dev.PowerFail()
						g.CrashRAM()
						if n := len(g.pool.pages); n > largest {
							t.Fatalf("update %d: a crash kept %d pooled pages, the largest run has %d", i, n, largest)
						}
						h.dev.PowerOn()
						if err := g.RecoverDirectories(); err != nil {
							t.Fatal(err)
						}
						crashed = true
					}
				}
				if g.Stats().Merges == 0 || g.RunCount() < 2 {
					t.Fatalf("test setup: %d merges, %d runs", g.Stats().Merges, g.RunCount())
				}
				t.Logf("%d pages at most, bound %d; %d pooled at least before the first crash; %d flushes, %d merges", peak, bound, slack, g.Stats().Flushes, g.Stats().Merges)
			})
		}
	}
}
