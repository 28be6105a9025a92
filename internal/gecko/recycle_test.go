package gecko

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// steadyMerge returns mergeEntryStreams as production runs it from the second
// merge on: the output, and a fold's scratch slab, come from a free list that
// holds the previous output's slab, dirty, as writeRun leaves a superseded
// run's.
func steadyMerge(cfg Config) func(inputs []*run) slab {
	g := &Gecko{cfg: cfg, sz: cfg.sizes(), free: newSlabList(cfg)}
	var last slab
	return func(inputs []*run) slab {
		g.free.put(last)
		last = g.mergeEntryStreams(inputs)
		return last
	}
}

// steadyDrain is steadyMerge's counterpart for the buffer's one-pass drain:
// its output comes from a free list holding the previous drain's slab.
func steadyDrain(b *buffer) func() slab {
	free := newSlabList(b.cfg)
	var last slab
	return func() slab {
		free.put(last)
		last = b.drain(free.take(b.len(), b.wpe))
		return last
	}
}

// walkStore is a metadata store over a device's blocks that erases a full
// block with no live page the moment Append comes to it, that can lose power
// before a chosen Append, and whose notion of which pages are live can be
// reset after a recovery, as the FTL rebuilds its block manager's.
type walkStore struct {
	dev     *flash.Device
	blocks  []flash.BlockID
	active  int
	written []int
	live    map[flash.PPN]bool
	// appendsLeft is how many Appends succeed before power is lost;
	// negative, power stays on.
	appendsLeft int
	// appended lists the pages programmed since the test last took it.
	appended []flash.PPN
	erases   int
}

func (s *walkStore) pagesPerBlock() int { return s.dev.Config().PagesPerBlock }

// room is how many Appends the active block takes before the store moves on
// and may erase.
func (s *walkStore) room() int { return s.pagesPerBlock() - s.written[s.active] }

func (s *walkStore) Append(spare flash.SpareArea) (flash.PPN, error) {
	if s.appendsLeft == 0 {
		return flash.InvalidPPN, flash.ErrPowerFailed
	}
	if s.appendsLeft > 0 {
		s.appendsLeft--
	}
	for range s.blocks {
		block := s.blocks[s.active]
		first := flash.PPNOf(block, 0, s.pagesPerBlock())
		if s.room() == 0 && !s.anyLive(first) {
			if err := s.dev.EraseBlock(block, flash.PurposePageValidity); err != nil {
				return flash.InvalidPPN, err
			}
			s.written[s.active] = 0
			s.erases++
		}
		if s.room() > 0 {
			ppn := first + flash.PPN(s.written[s.active])
			if _, err := s.dev.WritePage(ppn, spare, flash.PurposePageValidity); err != nil {
				return flash.InvalidPPN, err
			}
			s.written[s.active]++
			s.live[ppn] = true
			s.appended = append(s.appended, ppn)
			return ppn, nil
		}
		s.active = (s.active + 1) % len(s.blocks)
	}
	return flash.InvalidPPN, metastore.ErrNoSpace
}

// anyLive reports whether the block starting at first holds a live page.
func (s *walkStore) anyLive(first flash.PPN) bool {
	for i := range s.pagesPerBlock() {
		if s.live[first+flash.PPN(i)] {
			return true
		}
	}
	return false
}

func (s *walkStore) Read(ppn flash.PPN) error {
	return s.dev.ReadPage(ppn, flash.PurposePageValidity)
}

func (s *walkStore) ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error) {
	return s.dev.ReadSpare(ppn, flash.PurposePageValidity)
}

func (s *walkStore) Invalidate(ppn flash.PPN) error {
	delete(s.live, ppn)
	return nil
}

func (s *walkStore) Blocks() []flash.BlockID { return s.blocks }

// setLive replaces the store's view of which pages are live.
func (s *walkStore) setLive(pages []flash.PPN) {
	clear(s.live)
	for _, p := range pages {
		s.live[p] = true
	}
}

// pageCopy is a deep copy of what a run page held when it was programmed.
type pageCopy struct {
	ents  []entry
	words []uint64
}

// slabWalk is the state of one TestSlabOwnershipWalk walk.
type slabWalk struct {
	t      *testing.T
	g      *Gecko
	store  *walkStore
	model  *model
	copies map[flash.PPN]pageCopy
}

// requireOwnership fails if a slab on the free list still holds a page of the
// flash image: the next flush or merge would write over what recovery is to
// read.
func (w *slabWalk) requireOwnership(step int, op string) {
	w.t.Helper()
	first := map[*entry]flash.PPN{}
	for ppn, s := range w.g.pageContent {
		first[&s.ents[0]] = ppn
	}
	for _, s := range w.g.free.slabs {
		whole := s.ents[:cap(s.ents)]
		for i := range whole {
			if ppn, ok := first[&whole[i]]; ok {
				w.t.Fatalf("step %d (%s): the free list holds the slab of page %d, which the flash image still has", step, op, ppn)
			}
		}
	}
}

// check is what must hold after every step: no free slab is part of the
// flash image, which still reads, at every address, what was programmed
// there; every block answers as the reference model does; and the level
// table lists the runs newest first.
func (w *slabWalk) check(step int, op string) {
	w.t.Helper()
	w.requireOwnership(step, op)
	for _, ppn := range w.store.appended {
		if s, ok := w.g.pageContent[ppn]; ok {
			w.copies[ppn] = pageCopy{slices.Clone(s.ents), slices.Clone(s.words)}
		}
	}
	w.store.appended = w.store.appended[:0]
	for ppn := range w.copies {
		if _, ok := w.g.pageContent[ppn]; !ok {
			delete(w.copies, ppn)
		}
	}
	for ppn, s := range w.g.pageContent {
		c, ok := w.copies[ppn]
		if !ok {
			w.t.Fatalf("step %d (%s): the flash image holds page %d, which was never programmed", step, op, ppn)
		}
		if !slices.Equal(s.ents, c.ents) || !slices.Equal(s.words, c.words) {
			w.t.Fatalf("step %d (%s): page %d of the flash image no longer reads what was programmed: its slab was reused", step, op, ppn)
		}
	}
	for b := 0; b < w.g.cfg.Blocks; b++ {
		got, err := w.g.Query(flash.BlockID(b))
		if err != nil {
			w.t.Fatalf("step %d (%s): %v", step, op, err)
		}
		if want := w.model.query(flash.BlockID(b)); !reflect.DeepEqual(got, want) {
			w.t.Fatalf("step %d (%s): block %d answers %v, the model %v", step, op, b, setBits(got), setBits(want))
		}
	}
	newer := uint64(0)
	for r := range w.g.runsNewestFirst {
		if newer != 0 && r.createSeq >= newer {
			w.t.Fatalf("step %d (%s): %v of sequence %d listed after a run of sequence %d", step, op, r, r.createSeq, newer)
		}
		newer = r.createSeq
	}
}

// resync makes the model answer as the structure does now.
func (w *slabWalk) resync() {
	w.t.Helper()
	for b := 0; b < w.g.cfg.Blocks; b++ {
		got, err := w.g.Query(flash.BlockID(b))
		if err != nil {
			w.t.Fatal(err)
		}
		w.model.invalid[flash.BlockID(b)] = got
	}
}

// recover loses RAM and rebuilds the directories, then tells the store which
// pages that left live.
func (w *slabWalk) recover() {
	w.t.Helper()
	w.g.CrashRAM()
	if err := w.g.RecoverDirectories(); err != nil {
		w.t.Fatal(err)
	}
	w.store.setLive(slices.Collect(w.g.LivePages()))
}

// TestSlabOwnershipWalk is the referee of who owns a slab when. A seeded
// random walk drives every operation that creates, supersedes, rebuilds or
// moves runs — updates, erase reports, flushes and their merge cascades,
// power cuts between and in the middle of those, directory export and
// import, page relocation — over a store that erases and reprograms blocks
// as it goes, and after every step requires the flash image to read, page by
// page, what was programmed (deep copies taken then), and every query to
// answer as a full in-RAM PVB does, and no slab on the free list to be one
// the flash image still refers to — checked also at the instant of a power
// cut, before RAM is dropped. Moving writeRun's g.free.put(old.slab) up into
// mergeRuns, beside the invalidation of the inputs' pages, fails there on
// each seed that cuts power, at the first cut in the middle of a merge; were
// CrashRAM to keep the free list, the same mutation would also fail a flush
// later, on the page's content.
//
// Walks with relocation cut no power: the spare-area scan finds a relocated
// page at both addresses and drops its run, which is not this test's subject.
func TestSlabOwnershipWalk(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { slabOwnershipWalk(t, seed) })
	}
}

func slabOwnershipWalk(t *testing.T, seed int64) {
	relocate := seed%3 == 0
	rng := rand.New(rand.NewSource(seed))
	const userBlocks, pagesPerBlock, metaBlocks = 128, 16, 16
	devCfg := flash.ScaledConfig(userBlocks + metaBlocks)
	devCfg.PagesPerBlock, devCfg.PageSize = pagesPerBlock, 128
	dev, err := flash.NewDevice(devCfg)
	if err != nil {
		t.Fatal(err)
	}
	store := &walkStore{dev: dev, written: make([]int, metaBlocks), live: map[flash.PPN]bool{}, appendsLeft: -1}
	for b := userBlocks; b < userBlocks+metaBlocks; b++ {
		store.blocks = append(store.blocks, flash.BlockID(b))
	}
	cfg := DefaultConfig(userBlocks, pagesPerBlock, devCfg.PageSize)
	cfg.PartitionFactor = 2
	cfg.MultiWayMerge = seed%2 == 0
	g, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	w := &slabWalk{t: t, g: g, store: store, model: newModel(pagesPerBlock), copies: map[flash.PPN]pageCopy{}}

	recycled := 0
	for step := 0; step < 1500; step++ {
		op := "update"
		switch n := rng.Intn(400); {
		case n < 8:
			// Rare, so that no merge's output is pages shorter than its
			// inputs: recovery would resurrect the input (ROADMAP item 1).
			op = "erase"
			b := flash.BlockID(rng.Intn(userBlocks))
			if err := g.RecordErase(b); err != nil {
				t.Fatal(err)
			}
			w.model.erase(b)
		case n < 12:
			op = "flush"
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
		case n < 14 && !relocate:
			op = "crash"
			// The buffer is lost with RAM; flush it so that the model
			// and flash agree.
			if err := g.Flush(); err != nil {
				t.Fatal(err)
			}
			w.recover()
		case n < 18 && !relocate:
			op = "power cut in a flush"
			// Before the level-0 run's one page, or in one of the merges
			// behind it, but before the store leaves its active block,
			// so that no block is erased under the merge. What the cut
			// leaves of the buffer and of the merge's inputs is
			// recovery's business (it keeps one run of a level, ROADMAP
			// item 1), so the model starts over from its answers; whose
			// slab the next flushes write into is this test's.
			store.appendsLeft = rng.Intn(store.room() + 1)
			err := g.Flush()
			store.appendsLeft = -1
			if err != nil {
				// Power is off, RAM not yet lost: whatever the flush was in
				// the middle of, it must not have freed a slab recovery
				// will read.
				w.requireOwnership(step, op)
				w.recover()
				w.resync()
			}
		case n < 22:
			op = "export and import"
			runs := g.ExportDirectories(nil)
			if err := g.ValidateDirectories(runs); err != nil {
				t.Fatal(err)
			}
			g.ImportDirectories(runs)
		case n < 28 && relocate:
			op = "relocate"
			pages := slices.Collect(g.LivePages())
			if len(pages) == 0 {
				break
			}
			old := pages[rng.Intn(len(pages))]
			spare, ok, err := store.ReadSpare(old)
			if err != nil || !ok {
				t.Fatalf("live page %d: written %v, %v", old, ok, err)
			}
			moved, err := store.Append(spare)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Relocate(old, moved) {
				t.Fatalf("live page %d is unknown to Relocate", old)
			}
			if err := store.Invalidate(old); err != nil {
				t.Fatal(err)
			}
			// The page moved with its content; so does its copy.
			w.copies[moved] = w.copies[old]
			store.appended = store.appended[:0]
		default:
			a := flash.Addr{Block: flash.BlockID(rng.Intn(userBlocks)), Offset: rng.Intn(pagesPerBlock)}
			if err := g.Update(a); err != nil {
				t.Fatal(err)
			}
			w.model.update(a)
		}
		w.check(step, op)
		recycled = max(recycled, len(g.free.slabs))
	}
	if recycled == 0 {
		t.Error("the free list never held a slab")
	}
	if store.erases == 0 {
		t.Error("the store never erased a block")
	}
}
