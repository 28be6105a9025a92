package gecko

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// steadyMerge returns mergeEntryStreams as production runs it, its output
// flattened into one slab: every output page comes from the pool, which
// holds the previous output's pages, scribbled over to their full capacity
// before they go back. It fails tb unless the pages split the output, and
// carry its key ranges, exactly as splitIntoPages does.
func steadyMerge(tb testing.TB, cfg Config) func(inputs []*run) slab {
	g := &Gecko{cfg: cfg, sz: cfg.sizes(), pool: newPagePool(cfg)}
	g.pool.pages = g.pool.pages[:0]
	var last *run
	return func(inputs []*run) slab {
		tb.Helper()
		if last != nil {
			for i := range last.pages {
				scribble(last.pages[i].slab)
			}
			g.release(last)
		}
		last = g.mergeEntryStreams(inputs)
		flat := newSlab(0, g.sz.wpe)
		for i := range last.pages {
			p := &last.pages[i]
			for j := range p.ents {
				flat.push(p.ents[j], p.bits(j))
			}
		}
		want := splitIntoPages(nil, flat, g.sz.perPage)
		if len(last.pages) != len(want) {
			tb.Fatalf("merged %d entries into %d pages, want %d", len(flat.ents), len(last.pages), len(want))
		}
		for i, w := range want {
			p := &last.pages[i]
			if len(p.ents) != len(w.ents) || p.minKey != w.minKey || p.maxKey != w.maxKey {
				tb.Fatalf("page %d: %d entries over [%v, %v], want %d over [%v, %v]", i, len(p.ents), p.minKey, p.maxKey, len(w.ents), w.minKey, w.maxKey)
			}
		}
		return flat
	}
}

// steadyDrain is steadyMerge's counterpart for the buffer's one-pass drain:
// its output page comes from a pool holding the previous drain's page,
// scribbled over to its full capacity.
func steadyDrain(b *buffer) func() slab {
	pool := pagePool{v: b.sz.perPage, wpe: b.wpe, most: 1}
	var last slab
	return func() slab {
		if cap(last.ents) > 0 {
			scribble(last)
			pool.put(last)
		}
		last = b.drain(pool.take())
		return last
	}
}

// scribble overwrites a page to its full capacity, as a recycled page may be.
func scribble(s slab) {
	ents, words := s.ents[:cap(s.ents)], s.words[:cap(s.words)]
	for i := range ents {
		ents[i] = entry{block: flash.BlockID(i), subKey: int16(i % 3), erase: i%2 == 0}
	}
	for i := range words {
		words[i] = ^uint64(0)
	}
}

// splitIntoPages partitions sorted entries into consecutive groups of at most
// v entries, computing each group's key range, into pages, whose length it
// resets. It is how a merge's output pages must split and how tests build
// input runs.
func splitIntoPages(pages []runPage, s slab, v int) []runPage {
	n := len(s.ents)
	pages = pages[:0]
	for start := 0; start < n; start += v {
		end := min(start+v, n)
		pages = append(pages, newRunPage(slab{
			ents:  s.ents[start:end:end],
			words: s.words[start*s.wpe : end*s.wpe : end*s.wpe],
			wpe:   s.wpe,
		}))
	}
	return pages
}

// requirePoolOwnsItsPages fails unless every pooled page is empty and none
// is a page the flash image holds: the next flush or merge would write over
// what recovery is to read.
func requirePoolOwnsItsPages(t *testing.T, g *Gecko, when string) {
	t.Helper()
	image := make(map[*entry]flash.PPN, len(g.pageContent))
	for ppn, c := range g.pageContent {
		image[unsafe.SliceData(c.ents)] = ppn
	}
	for i, s := range g.pool.pages {
		if len(s.ents) != 0 || len(s.words) != 0 {
			t.Fatalf("%s: pooled page %d holds %d entries and %d words", when, i, len(s.ents), len(s.words))
		}
		if ppn, ok := image[unsafe.SliceData(s.ents)]; ok {
			t.Fatalf("%s: the pool holds page %d, which the flash image still has", when, ppn)
		}
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
	// held has the slab of every page the flash image has held.
	held map[*entry]bool
}

// check is what must hold after every step: no pooled page is part of the
// flash image, which still reads, at every address, what was programmed
// there; every block answers as the reference model does; and the level
// table lists the runs newest first.
func (w *slabWalk) check(step int, op string) {
	w.t.Helper()
	requirePoolOwnsItsPages(w.t, w.g, fmt.Sprintf("step %d (%s)", step, op))
	for _, ppn := range w.store.appended {
		if s, ok := w.g.pageContent[ppn]; ok {
			w.copies[ppn] = pageCopy{slices.Clone(s.ents), slices.Clone(s.words)}
			w.held[unsafe.SliceData(s.ents)] = true
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

// TestSlabOwnershipWalk is the referee of who owns a page when. A seeded
// random walk drives every operation that creates, supersedes, rebuilds or
// moves runs — updates, erase reports, flushes and their merge cascades,
// power cuts between and in the middle of those, directory export and
// import, page relocation — over a store that erases and reprograms blocks
// as it goes, and after every step requires the flash image to read, page by
// page, what was programmed (deep copies taken then), and every query to
// answer as a full in-RAM PVB does, and no pooled page to be one the flash
// image still refers to — checked also at the instant of a power cut, before
// RAM is dropped — and the pool to have held, at some step, a page the flash
// image once held. Moving writeRun's release of the superseded runs' pages
// up into mergeRuns, beside the invalidation of the inputs' pages, fails
// there on each seed that cuts power, at the first cut in the middle of a
// merge.
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
	w := &slabWalk{t: t, g: g, store: store, model: newModel(pagesPerBlock), copies: map[flash.PPN]pageCopy{}, held: map[*entry]bool{}}

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
				requirePoolOwnsItsPages(w.t, w.g, fmt.Sprintf("step %d (%s)", step, op))
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
		n := 0
		for _, p := range g.pool.pages {
			if w.held[unsafe.SliceData(p.ents)] {
				n++
			}
		}
		recycled = max(recycled, n)
	}
	if recycled == 0 {
		t.Error("the pool never held a page the flash image had held")
	}
	if store.erases == 0 {
		t.Error("the store never erased a block")
	}
}
