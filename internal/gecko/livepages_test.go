package gecko

import (
	"reflect"
	"slices"
	"testing"

	"geckoftl/internal/flash"
)

func TestLivePagesMatchFlashPages(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 32, nil)
	populate(t, h, nil, 6000, 71)
	pages := slices.Collect(h.g.LivePages())
	if len(pages) != h.g.FlashPages() {
		t.Errorf("LivePages = %d entries, FlashPages = %d", len(pages), h.g.FlashPages())
	}
	seen := map[flash.PPN]bool{}
	for _, ppn := range pages {
		if seen[ppn] {
			t.Fatalf("page %d listed twice", ppn)
		}
		seen[ppn] = true
		if !h.g.IsLive(ppn) {
			t.Fatalf("LivePages entry %d not reported live by IsLive", ppn)
		}
	}
}

func TestRelocatePreservesQueries(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 6000, 72)
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := slices.Collect(h.g.LivePages())
	if len(pages) == 0 {
		t.Fatal("no live pages to relocate")
	}

	// Simulate a greedy garbage-collector moving a live Gecko page: write a
	// copy elsewhere in the store and tell the structure about it.
	old := pages[0]
	spare, ok, err := h.store.ReadSpare(old)
	if err != nil || !ok {
		t.Fatal(err)
	}
	newPPN, err := h.store.Append(spare)
	if err != nil {
		t.Fatal(err)
	}
	if !h.g.Relocate(old, newPPN) {
		t.Fatal("Relocate reported the live page as unknown")
	}
	if h.g.IsLive(old) || !h.g.IsLive(newPPN) {
		t.Error("liveness not transferred by Relocate")
	}
	// Relocating an unknown page is a no-op.
	if h.g.Relocate(old, newPPN) {
		t.Error("Relocate of a stale page succeeded")
	}

	// Every query still answers correctly after the relocation.
	for b := 0; b < 64; b++ {
		got, err := h.g.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m.query(flash.BlockID(b))) {
			t.Fatalf("block %d diverged after relocation", b)
		}
	}
}

// TestMergeOutputReusingInputBlockStaysLive fills a store of four 4-page
// blocks with 4-page runs, so that a merge's output is programmed into the
// block of an input the same merge has just invalidated. The output's pages,
// not the input's, must own those addresses afterwards.
func TestMergeOutputReusingInputBlockStaysLive(t *testing.T) {
	h := newHarness(t, 1024, 4, 256, 4, nil)
	next := flash.BlockID(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4*h.cfg.EntriesPerPage(); i++ {
			if err := h.g.Update(flash.Addr{Block: next}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := h.g.Flush(); err != nil {
			t.Fatal(err)
		}
		for ppn := range h.g.LivePages() {
			if !h.g.IsLive(ppn) {
				t.Fatalf("round %d: live page %d has no content", round, ppn)
			}
		}
	}
	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
}
