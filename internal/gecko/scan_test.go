package gecko

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"geckoftl/internal/flash"
)

func TestScanValidityMatchesPerBlockQueries(t *testing.T) {
	h := newHarness(t, 128, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 12000, 51)

	scan, err := h.g.ScanValidity()
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 128; b++ {
		want := m.query(flash.BlockID(b))
		if got := scan.Row(b); !reflect.DeepEqual(&got, want) {
			t.Fatalf("block %d: scan=%v model=%v", b, setBits(&got), setBits(want))
		}
	}
}

func TestScanValidityReadsEachLivePageOnce(t *testing.T) {
	h := newHarness(t, 128, 16, 256, 64, nil)
	populate(t, h, nil, 8000, 52)
	h.g.Flush()
	live := h.g.FlashPages()
	before := h.dev.Counters()
	if _, err := h.g.ScanValidity(); err != nil {
		t.Fatal(err)
	}
	delta := h.dev.Counters().Sub(before)
	if got := delta.Count(flash.OpPageRead, flash.PurposePageValidity); got != int64(live) {
		t.Errorf("scan read %d pages, want one per live page (%d)", got, live)
	}
	if delta.TotalOp(flash.OpPageWrite) != 0 {
		t.Error("scan performed writes")
	}
}

func TestScanValidityIncludesBufferedEntries(t *testing.T) {
	h := newHarness(t, 32, 16, 512, 8, nil)
	// Only buffered updates, no flush yet.
	h.g.Update(flash.Addr{Block: 3, Offset: 5})
	h.g.Update(flash.Addr{Block: 3, Offset: 9})
	scan, err := h.g.ScanValidity()
	if err != nil {
		t.Fatal(err)
	}
	if got := scan.Row(3); len(setBits(&got)) != 2 || !got.Get(5) || !got.Get(9) {
		t.Fatalf("scan of buffered-only state = %v", setBits(&got))
	}
}

func TestScanValidityHonorsEraseFlags(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 32, nil)
	m := newModel(16)
	populate(t, h, m, 5000, 53)
	// Erase a block with flash-resident history, then add one fresh update.
	if err := h.g.RecordErase(7); err != nil {
		t.Fatal(err)
	}
	m.erase(7)
	if err := h.g.Update(flash.Addr{Block: 7, Offset: 2}); err != nil {
		t.Fatal(err)
	}
	m.update(flash.Addr{Block: 7, Offset: 2})
	scan, err := h.g.ScanValidity()
	if err != nil {
		t.Fatal(err)
	}
	if got := scan.Row(7); !reflect.DeepEqual(&got, m.query(7)) {
		t.Fatalf("block 7 after erase: scan=%v model=%v", setBits(&got), setBits(m.query(7)))
	}
}

// checkScanAgainstQueries requires ScanValidity's row of every block to equal
// a GC query of that block, and the query to equal the model.
func checkScanAgainstQueries(t *testing.T, h *testHarness, m *model) {
	t.Helper()
	scan, err := h.g.ScanValidity()
	if err != nil {
		t.Fatal(err)
	}
	for b := range h.cfg.Blocks {
		block := flash.BlockID(b)
		want, err := h.g.Query(block)
		if err != nil {
			t.Fatal(err)
		}
		if got := scan.Row(b); !reflect.DeepEqual(&got, want) {
			t.Fatalf("block %d: scan=%v query=%v", b, setBits(&got), setBits(want))
		}
		if model := m.query(block); !reflect.DeepEqual(want, model) {
			t.Fatalf("block %d: query=%v model=%v", b, setBits(want), setBits(model))
		}
	}
}

// TestScanValidityMatchesQueryOracle drives random invalidation and erase
// streams through both merge policies and several partition factors — 64
// pages in one chunk, in chunks folded at offsets, and in chunks of 22 whose
// last is clamped — and compares the bulk scan with a per-block query on
// every block after each round. The last blocks never receive an entry. At
// the end, blocks whose entries all sit in runs are erased with nothing after
// the erase: the scan must skip their older runs, first with the erase entries
// in the buffer and then in a run of their own.
func TestScanValidityMatchesQueryOracle(t *testing.T) {
	for _, tc := range []struct {
		partition int
		multiWay  bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {1, true}, {2, true}, {3, true}, {4, true}} {
		t.Run(fmt.Sprintf("S=%d/multiway=%t", tc.partition, tc.multiWay), func(t *testing.T) {
			const blocks, untouched, ppb = 96, 8, 64
			h := newHarness(t, blocks, ppb, 256, 32, func(c *Config) {
				c.PartitionFactor = tc.partition
				c.MultiWayMerge = tc.multiWay
			})
			m := newModel(ppb)
			seed := int64(10 * tc.partition)
			if tc.multiWay {
				seed++
			}
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 6; round++ {
				for i := 0; i < 3000; i++ {
					b := flash.BlockID(rng.Intn(blocks - untouched))
					if rng.Intn(12) == 0 {
						if err := h.g.RecordErase(b); err != nil {
							t.Fatal(err)
						}
						m.erase(b)
						continue
					}
					a := flash.Addr{Block: b, Offset: rng.Intn(ppb)}
					if err := h.g.Update(a); err != nil {
						t.Fatal(err)
					}
					m.update(a)
				}
				checkScanAgainstQueries(t, h, m)
			}

			if err := h.g.Flush(); err != nil {
				t.Fatal(err)
			}
			erased := 0
			for b := 0; b < blocks-untouched && erased < 6; b++ {
				if len(setBits(m.query(flash.BlockID(b)))) == 0 {
					continue
				}
				if err := h.g.RecordErase(flash.BlockID(b)); err != nil {
					t.Fatal(err)
				}
				m.erase(flash.BlockID(b))
				erased++
			}
			if erased < 6 {
				t.Fatalf("only %d blocks with entries to erase", erased)
			}
			checkScanAgainstQueries(t, h, m)
			if err := h.g.Flush(); err != nil {
				t.Fatal(err)
			}
			checkScanAgainstQueries(t, h, m)
		})
	}
}

// TestScanValidityAllocationsDoNotGrowWithBlocks pins the dense result: a
// scan allocates the same objects at 64 blocks as at 1024.
func TestScanValidityAllocationsDoNotGrowWithBlocks(t *testing.T) {
	allocs := func(blocks int) float64 {
		h := newHarness(t, blocks, 64, 4096, 64, nil)
		populate(t, h, nil, 40*blocks, 54)
		return testing.AllocsPerRun(10, func() {
			if _, err := h.g.ScanValidity(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	if small != large || large > 4 {
		t.Errorf("ScanValidity allocates %.0f objects at 64 blocks and %.0f at 1024, want the same few", small, large)
	}
}
