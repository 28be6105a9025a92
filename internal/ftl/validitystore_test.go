package ftl

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/model"
)

// TestValidityStoreContract pins, once per store rather than once per FTL,
// what every page-validity store promises: QueryInto(b, dst) overwrites dst
// with exactly the offsets updated since b's last RecordErase, and allocates
// nothing; the exported Query answers the same in a new bitmap. The four
// stores are built as New builds them and driven by one seeded stream of
// updates, erases and queries, checked against a naive per-block model. Every
// QueryInto starts from a bitmap with all bits set, so a store that ORs into
// dst instead of overwriting it fails. The three stores whose pages live in
// flash must also list as live exactly the pages IsLive accepts, and
// relocating a live page, as a greedy garbage collector does, must change no
// answer.
func TestValidityStoreContract(t *testing.T) {
	const blocks, pagesPerBlock, steps = 256, 16, 1500
	for _, tc := range []struct {
		kind    model.FTLKind
		inFlash bool
	}{
		{model.GeckoFTL, true}, // Logarithmic Gecko
		{model.DFTL, false},    // PVB in RAM
		{model.MuFTL, true},    // PVB in flash
		{model.IBFTL, true},    // page validity log
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			f, err := New(newTestDevice(t, blocks, pagesPerBlock, 512), OptionsFor(tc.kind, 64))
			if err != nil {
				t.Fatal(err)
			}
			store := f.validity
			resident, ok := store.(flashStore)
			if ok != tc.inFlash {
				t.Fatalf("%T: implements flashStore %t, want %t", store, ok, tc.inFlash)
			}
			exported, ok := store.(interface {
				Query(block flash.BlockID) (*bitmap.Bitmap, error)
			})
			if !ok {
				t.Fatalf("%T has no exported Query", store)
			}

			want := make([]*bitmap.Bitmap, blocks)
			for i := range want {
				want[i] = bitmap.New(pagesPerBlock)
			}
			dst := bitmap.New(pagesPerBlock)
			query := func(when string, b flash.BlockID) {
				t.Helper()
				got, err := exported.Query(b)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[b]) {
					t.Fatalf("%s: Query(%d) = %v, want %v", when, b, setBits(got), setBits(want[b]))
				}
				for i := range pagesPerBlock {
					dst.Set(i)
				}
				if err := store.QueryInto(b, dst); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(dst, want[b]) {
					t.Fatalf("%s: QueryInto(%d) over all bits set = %v, want %v", when, b, setBits(dst), setBits(want[b]))
				}
			}
			queryAll := func(when string) {
				t.Helper()
				for b := range want {
					query(when, flash.BlockID(b))
				}
			}
			// livePages checks LivePages against IsLive over every page of the
			// device and returns the live pages in ascending order.
			livePages := func(when string) []flash.PPN {
				t.Helper()
				listed := slices.Sorted(resident.LivePages())
				var live []flash.PPN
				for ppn := flash.PPN(0); ppn < flash.PPN(blocks*pagesPerBlock); ppn++ {
					if resident.IsLive(ppn) {
						live = append(live, ppn)
					}
				}
				if !slices.Equal(listed, live) {
					t.Fatalf("%s: LivePages = %v, IsLive accepts %v", when, listed, live)
				}
				return live
			}

			rng := rand.New(rand.NewSource(1))
			for step := 1; step <= steps; step++ {
				b := flash.BlockID(rng.Intn(blocks))
				switch r := rng.Intn(20); {
				case r < 2:
					if err := store.RecordErase(b); err != nil {
						t.Fatal(err)
					}
					want[b].Reset()
				case r < 5:
					query("stream", b)
				default:
					off := rng.Intn(pagesPerBlock)
					if err := store.Update(flash.Addr{Block: b, Offset: off}); err != nil {
						t.Fatal(err)
					}
					want[b].Set(off)
				}
				if step%250 != 0 {
					continue
				}
				queryAll("checkpoint")
				if !tc.inFlash {
					continue
				}
				live := livePages("before relocation")
				if len(live) == 0 {
					continue
				}
				old := live[len(live)/2]
				moved, err := f.migrateMetaPage(flash.BlockOf(old, pagesPerBlock), flash.OffsetOf(old, pagesPerBlock))
				if err != nil || !moved {
					t.Fatalf("relocating live page %d: moved %t, err %v", old, moved, err)
				}
				if resident.IsLive(old) {
					t.Fatalf("page %d still live after its relocation", old)
				}
				if got := livePages("after relocation"); len(got) != len(live) {
					t.Fatalf("relocation changed the live page count %d -> %d", len(live), len(got))
				}
				queryAll("after relocation")
			}

			next := 0
			if allocs := testing.AllocsPerRun(blocks, func() {
				if err := store.QueryInto(flash.BlockID(next), dst); err != nil {
					t.Fatal(err)
				}
				next = (next + 1) % blocks
			}); allocs != 0 {
				t.Errorf("%.2f allocations per QueryInto, want 0", allocs)
			}
		})
	}
}

// setBits lists b's set bits in ascending order.
func setBits(b *bitmap.Bitmap) []int {
	out := []int{}
	for i := range b.Len() {
		if b.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// TestPageValidityLogIndexMatchesScan runs a seeded IB-FTL, whose greedy
// collector migrates the page validity log's pages, and every few hundred
// writes requires the log's reverse index to answer as a scan of its live
// pages does: IsLive for every page of the device, and Relocate for every
// live page (moved off the device and back) and for a dead one.
func TestPageValidityLogIndexMatchesScan(t *testing.T) {
	dev := newTestFlash(t, 256, 16, 512)
	f, err := New(wholeDevice(t, dev), IBFTLOptions(64))
	if err != nil {
		t.Fatal(err)
	}
	if !f.opts.VictimPolicy.MigratesMetadata() {
		t.Fatal("IB-FTL's collector does not migrate the log's pages")
	}
	log := f.validity.(flashStore)
	devicePages := flash.PPN(dev.Config().Blocks * dev.Config().PagesPerBlock)
	check := func(when int64) {
		live := slices.Sorted(log.LivePages())
		for ppn := range devicePages {
			if _, scanned := slices.BinarySearch(live, ppn); log.IsLive(ppn) != scanned {
				t.Fatalf("after %d writes: IsLive(%d) = %v, the scan finds it %v", when, ppn, !scanned, scanned)
			}
		}
		off := devicePages // never a page of the log
		for _, ppn := range live {
			if !log.Relocate(ppn, off) || log.IsLive(ppn) || !log.IsLive(off) || !log.Relocate(off, ppn) {
				t.Fatalf("after %d writes: live page %d did not move off the device and back", when, ppn)
			}
		}
		if log.Relocate(off, 0) {
			t.Fatalf("after %d writes: a page the log does not hold was relocated", when)
		}
		if got := slices.Sorted(log.LivePages()); !slices.Equal(got, live) {
			t.Fatalf("after %d writes: relocating there and back changed the live pages", when)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pages := f.LogicalPages()
	for i := range 6 * pages {
		lpn := flash.LPN(i)
		if i >= pages {
			lpn = flash.LPN(rng.Int63n(pages))
		}
		if err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			check(i)
		}
	}
	check(6 * pages)
}
