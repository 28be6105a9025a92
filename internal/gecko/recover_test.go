package gecko

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// populate drives a random update/erase workload through the harness and a
// reference model so that post-recovery answers can be checked.
func populate(t *testing.T, h *testHarness, m *model, ops int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blocks := h.cfg.Blocks
	for i := 0; i < ops; i++ {
		if rng.Intn(12) == 0 {
			b := flash.BlockID(rng.Intn(blocks))
			if err := h.g.RecordErase(b); err != nil {
				t.Fatal(err)
			}
			if m != nil {
				m.erase(b)
			}
			continue
		}
		a := flash.Addr{Block: flash.BlockID(rng.Intn(blocks)), Offset: rng.Intn(h.cfg.PagesPerBlock)}
		if err := h.g.Update(a); err != nil {
			t.Fatal(err)
		}
		if m != nil {
			m.update(a)
		}
	}
}

func TestRecoverDirectoriesRestoresQueries(t *testing.T) {
	h := newHarness(t, 128, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 10000, 11)

	// The buffer content is legitimately lost at power failure; flush it so
	// the reference model and the flash state agree (the FTL-level recovery
	// of buffered entries is exercised in the ftl package tests).
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	runsBefore := h.g.RunCount()
	pagesBefore := h.g.FlashPages()

	// Power failure: RAM state is lost, flash survives.
	h.dev.PowerFail()
	h.g.CrashRAM()
	if h.g.RunCount() != 0 {
		t.Fatal("CrashRAM did not drop run directories")
	}
	h.dev.PowerOn()

	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	if got := h.g.RunCount(); got != runsBefore {
		t.Errorf("recovered %d runs, want %d", got, runsBefore)
	}
	if got := h.g.FlashPages(); got != pagesBefore {
		t.Errorf("recovered %d flash pages, want %d", got, pagesBefore)
	}

	for b := 0; b < 128; b++ {
		got, err := h.g.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		want := m.query(flash.BlockID(b))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d after recovery: got %v want %v", b, setBits(got), setBits(want))
		}
	}
}

func TestRecoverDirectoriesIgnoresObsoleteRuns(t *testing.T) {
	// Use a store with plenty of spare blocks so that obsolete (merged-away)
	// runs linger on flash instead of being erased, then check recovery does
	// not resurrect them.
	h := newHarness(t, 64, 16, 256, 128, func(c *Config) { c.PartitionFactor = 1 })
	m := newModel(16)
	populate(t, h, m, 8000, 12)
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.g.Stats().Merges == 0 {
		t.Fatal("test setup: expected merges to have produced obsolete runs")
	}

	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	// Each level holds at most one run after recovery.
	for level, runs := range h.g.levels {
		if len(runs) > 1 {
			t.Errorf("level %d holds %d runs after recovery", level, len(runs))
		}
	}
	for b := 0; b < 64; b++ {
		got, _ := h.g.Query(flash.BlockID(b))
		if !reflect.DeepEqual(got, m.query(flash.BlockID(b))) {
			t.Fatalf("block %d answer changed after recovery", b)
		}
	}
}

func TestRecoverDirectoriesAccountsSpareReads(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 32, nil)
	populate(t, h, nil, 3000, 13)
	h.g.Flush()
	before := h.dev.Counters()
	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	delta := h.dev.Counters().Sub(before)
	spareReads := delta.Count(flash.OpSpareRead, flash.PurposePageValidity)
	wantScan := int64(32 * 16) // one spare read per page of every Gecko block
	if spareReads != wantScan {
		t.Errorf("recovery spare reads = %d, want %d", spareReads, wantScan)
	}
	// Directory recovery must not read or write full pages.
	if delta.TotalOp(flash.OpPageWrite) != 0 {
		t.Errorf("recovery performed %d page writes", delta.TotalOp(flash.OpPageWrite))
	}
	if delta.TotalOp(flash.OpPageRead) != 0 {
		t.Errorf("recovery performed %d page reads", delta.TotalOp(flash.OpPageRead))
	}
}

func TestRecoverAfterRecoveryContinuesOperating(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 4000, 14)
	h.g.Flush()
	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	// The structure must keep absorbing updates, flushing and merging
	// correctly after recovery (run IDs and sequence numbers must not
	// collide with pre-crash runs).
	populate(t, h, m, 4000, 15)
	for b := 0; b < 64; b++ {
		got, _ := h.g.Query(flash.BlockID(b))
		if !reflect.DeepEqual(got, m.query(flash.BlockID(b))) {
			t.Fatalf("block %d diverged after post-recovery workload", b)
		}
	}
}

func TestNewestRunWriteSeq(t *testing.T) {
	h := newHarness(t, 64, 16, 512, 8, nil)
	seq, err := h.g.NewestRunWriteSeq()
	if err != nil || seq != 0 {
		t.Errorf("empty structure NewestRunWriteSeq = %d, %v; want 0, nil", seq, err)
	}
	populate(t, h, nil, 2000, 16)
	h.g.Flush()
	seq, err = h.g.NewestRunWriteSeq()
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Error("NewestRunWriteSeq = 0 after flushes")
	}
	// The device stamps its programs 1, 2, 3, ...
	io := h.dev.Counters()
	if programs := io.TotalOp(flash.OpPageWrite); int64(seq) > programs {
		t.Errorf("NewestRunWriteSeq %d exceeds the %d pages the device programmed", seq, programs)
	}
}

func TestRecoverDirectoriesRequiresBlockLister(t *testing.T) {
	// A store that is not a BlockLister cannot support recovery.
	h := newHarness(t, 16, 16, 512, 4, nil)
	g, err := New(h.cfg, nonListingStore{h.store})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RecoverDirectories(); err == nil {
		t.Error("recovery without a BlockLister store did not fail")
	}
}

// nonListingStore hides the BlockLister implementation of the wrapped store.
type nonListingStore struct {
	inner *metastore.BlockStore
}

func (s nonListingStore) Append(spare flash.SpareArea) (flash.PPN, error) {
	return s.inner.Append(spare)
}
func (s nonListingStore) Read(ppn flash.PPN) error { return s.inner.Read(ppn) }
func (s nonListingStore) ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error) {
	return s.inner.ReadSpare(ppn)
}
func (s nonListingStore) Invalidate(ppn flash.PPN) error { return s.inner.Invalidate(ppn) }

// cutStore loses power after a set number of page programs: the Append that
// would follow fails, as one between two pages of a run does on a device
// whose rail drops.
type cutStore struct {
	*metastore.BlockStore
	appendsLeft int // negative: power stays on
}

func (s *cutStore) Append(spare flash.SpareArea) (flash.PPN, error) {
	if s.appendsLeft == 0 {
		return flash.InvalidPPN, flash.ErrPowerFailed
	}
	if s.appendsLeft > 0 {
		s.appendsLeft--
	}
	return s.BlockStore.Append(spare)
}

// TestMergeIsCrashAtomic cuts power before the k-th page of a merge's output
// run, for every k. The incomplete output must be ignored and the inputs —
// invalidated, but still on flash until their blocks are erased — must
// answer every query as they did before the merge.
func TestMergeIsCrashAtomic(t *testing.T) {
	// Flushing every few hundred operations leaves runs on several levels.
	mixed := func(t *testing.T, h *testHarness) {
		for i := int64(0); i < 5; i++ {
			populate(t, h, nil, 250, 17+i)
			if err := h.g.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fills := map[string]func(*testing.T, *testHarness){
		"mixed": mixed,
		// Every entry of the older runs is cancelled by an erase entry of the
		// newest one, so the output carries the erase entries alone.
		"cancelled": func(t *testing.T, h *testHarness) {
			mixed(t, h)
			for b := 0; b < h.cfg.Blocks; b++ {
				if err := h.g.RecordErase(flash.BlockID(b)); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, fill := range fills {
		t.Run(name, func(t *testing.T) {
			for k := 0; ; k++ {
				// A roomy store, so that no input block is reclaimed while
				// the output is being written.
				h := newHarness(t, 64, 16, 256, 128, nil)
				store := &cutStore{BlockStore: h.store, appendsLeft: -1}
				var err error
				if h.g, err = New(h.cfg, store); err != nil {
					t.Fatal(err)
				}
				fill(t, h)
				if err := h.g.Flush(); err != nil {
					t.Fatal(err)
				}
				want := make([]*bitmap.Bitmap, h.cfg.Blocks)
				for b := range want {
					if want[b], err = h.g.Query(flash.BlockID(b)); err != nil {
						t.Fatal(err)
					}
				}

				var inputs []*run
				for level, runs := range h.g.levels {
					inputs = append(inputs, runs...)
					h.g.levels[level] = nil
				}
				if len(inputs) < 2 {
					t.Fatalf("test setup: %d runs to merge, want at least 2", len(inputs))
				}
				store.appendsLeft = k
				_, err = h.g.mergeRuns(inputs)
				store.appendsLeft = -1
				if err == nil {
					if k == 0 {
						t.Fatal("test setup: the merge wrote no page")
					}
					return // the whole output was written before the cut
				}

				h.g.CrashRAM()
				if err := h.g.RecoverDirectories(); err != nil {
					t.Fatalf("power cut before output page %d: %v", k, err)
				}
				for b := range want {
					got, err := h.g.Query(flash.BlockID(b))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want[b]) {
						t.Fatalf("power cut before output page %d: block %d answers %v, before the merge %v", k, b, setBits(got), setBits(want[b]))
					}
				}
			}
		})
	}
}

// TestCrashRAMKeepsNoContent crashes one Gecko 50 times between seeded
// updates and requires it, after each recovery, to hold what a new Gecko
// recovering the same flash holds: the same directories and the same answer
// to every GC query. What a crash keeps is storage only: every spare run is
// zero, its directory too, to the directory's capacity, every pooled page is
// empty and none of the flash image's, and the run structs stay few however
// many crashes there are. A spare run that keeps its pages, or a level that
// keeps its runs, fails it.
func TestCrashRAMKeepsNoContent(t *testing.T) {
	for _, multiWay := range []bool{false, true} {
		t.Run(fmt.Sprintf("multiway %t", multiWay), func(t *testing.T) {
			const blocks, pagesPerBlock = 128, 16
			h := newHarness(t, blocks, pagesPerBlock, 256, 64, func(c *Config) {
				c.PartitionFactor, c.MultiWayMerge = 2, multiWay
			})
			got, want := bitmap.New(pagesPerBlock), bitmap.New(pagesPerBlock)
			structs := 0
			for crash := range 50 {
				populate(t, h, nil, 1500, int64(crash))
				h.dev.PowerFail()
				h.g.CrashRAM()
				if n, b := h.g.RunCount(), h.g.BufferLen(); n+b != 0 {
					t.Fatalf("crash %d: %d runs and %d buffered entries survive it", crash, n, b)
				}
				requirePoolOwnsItsPages(t, h.g, fmt.Sprintf("crash %d", crash))
				h.dev.PowerOn()
				if err := h.g.RecoverDirectories(); err != nil {
					t.Fatal(err)
				}
				fresh, err := New(h.cfg, h.store)
				if err != nil {
					t.Fatal(err)
				}
				fresh.pageContent = h.g.pageContent // the flash image survives
				if err := fresh.RecoverDirectories(); err != nil {
					t.Fatal(err)
				}
				if g, w := h.g.ExportDirectories(nil), fresh.ExportDirectories(nil); !reflect.DeepEqual(g, w) {
					t.Fatalf("crash %d: directories\n%+v\nwant those a new Gecko recovers\n%+v", crash, g, w)
				}
				for b := range flash.BlockID(blocks) {
					if err := h.g.QueryInto(b, got); err != nil {
						t.Fatal(err)
					}
					if err := fresh.QueryInto(b, want); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("crash %d, block %d: %v, a new Gecko answers %v", crash, b, setBits(got), setBits(want))
					}
				}
				for _, r := range h.g.spare {
					if !reflect.DeepEqual(*r, run{pages: r.pages[:0]}) {
						t.Fatalf("crash %d: spare %v", crash, r)
					}
					for i, p := range r.pages[:cap(r.pages)] {
						if !reflect.DeepEqual(p, runPage{}) {
							t.Fatalf("crash %d: spare run's directory holds page %d, at %d", crash, i, p.ppn)
						}
					}
				}
				structs = max(structs, h.g.RunCount()+len(h.g.spare))
			}
			// A crash makes no run struct: the count is what the deepest
			// merge cascade holds at once, and it does not grow with the
			// crashes (10 and 7 over four levels, after 50 crashes as after
			// 400, when this was written).
			if bound := 3 * len(h.g.levels); structs > bound {
				t.Errorf("%d run structs, live and spare, bound %d", structs, bound)
			}
			t.Logf("%d run structs at most over %d levels", structs, len(h.g.levels))
		})
	}
}
