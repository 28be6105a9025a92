package gecko

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// Stats counts Logarithmic Gecko's logical operations. Flash IO is accounted
// by the device counters under flash.PurposePageValidity; these counters
// describe the data structure's own activity.
type Stats struct {
	// Updates is the number of invalid-page reports (Algorithm 1 calls).
	Updates int64
	// Erases is the number of block-erase reports (Algorithm 2 calls).
	Erases int64
	// Queries is the number of GC queries served.
	Queries int64
	// Flushes is the number of buffer flushes to level 0.
	Flushes int64
	// Merges is the number of merge operations performed.
	Merges int64
	// MergedRuns is the total number of input runs consumed by merges.
	MergedRuns int64
	// QueryPageReads is the number of run pages read by GC queries.
	QueryPageReads int64
}

// Gecko is a Logarithmic Gecko instance: a RAM-resident buffer and run
// directories, plus leveled sorted runs of Gecko entries stored in flash
// through a metastore.Storage.
//
// Gecko is not safe for concurrent use; the FTL serializes access to it.
type Gecko struct {
	cfg   Config
	sz    sizes
	store metastore.Storage

	buf    *buffer
	levels [][]*run // levels[i] holds the runs currently at level i (usually 0 or 1)

	// pageContent models the flash content of live run pages, keyed by
	// physical address. The device simulator does not store payload bytes,
	// so this map is the "flash image" that survives power failures and is
	// consulted when recovery rebuilds the run directories. Its slabs are
	// the live runs' page slabs themselves.
	pageContent map[flash.PPN]slab

	// pool recycles the pages of superseded runs, and spare their run
	// structs and directories, also those a crash empties; byAge is
	// mergeEntryStreams' reused scratch, and inputs takeMergeInputs'.
	pool   pagePool
	spare  []*run
	byAge  []*run
	inputs []*run
	// scan is RecoverDirectories' spare-area scan, and rows and marks are
	// ScanValidity's result and erase bookkeeping: recovery's working
	// storage, kept from one recovery to the next and overwritten by each.
	scan  []runPageMeta
	rows  *bitmap.Rows
	marks []uint64

	nextRunID uint64
	seq       uint64 // logical creation sequence for runs
	stats     Stats
}

// New creates a Logarithmic Gecko over the given flash-backed store.
func New(cfg Config, store metastore.Storage) (*Gecko, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("gecko: nil store")
	}
	return &Gecko{
		cfg:    cfg,
		sz:     cfg.sizes(),
		store:  store,
		buf:    newBuffer(cfg),
		levels: make([][]*run, cfg.Levels()+1),
		// Live runs hold at most about 2×LargestRunPages pages (Appendix
		// B), and every flush and merge deletes the pages it supersedes and
		// inserts its output's. A delete from a full 8-slot group leaves a
		// tombstone, and tombstones make the map grow; in a map sized to
		// the bound, whether that happens in a given stretch of writes
		// depends on its random hash seed. At four times the bound the
		// table stays about a quarter full, groups almost never fill, and
		// the map does not grow after New.
		pageContent: make(map[flash.PPN]slab, 8*cfg.LargestRunPages()),
		pool:        newPagePool(cfg),
		nextRunID:   1,
	}, nil
}

// Stats returns a copy of the operation counters.
func (g *Gecko) Stats() Stats { return g.stats }

// BufferLen returns the number of distinct entries currently buffered.
func (g *Gecko) BufferLen() int { return g.buf.len() }

// RunCount returns the number of live runs across all levels.
func (g *Gecko) RunCount() int {
	n := 0
	for _, lvl := range g.levels {
		n += len(lvl)
	}
	return n
}

// FlashPages returns the number of flash pages currently occupied by live
// runs. Space-amplification tests use it.
func (g *Gecko) FlashPages() int {
	n := 0
	for _, lvl := range g.levels {
		for _, r := range lvl {
			n += len(r.pages)
		}
	}
	return n
}

// RAMBytes returns the integrated-RAM footprint of the structure: the
// one-page buffer plus the run directories (Appendix B).
func (g *Gecko) RAMBytes() int64 {
	total := int64(g.cfg.PageSize)
	if g.cfg.MultiWayMerge {
		// Multi-way merging needs up to L input buffers plus one output
		// buffer (Appendix A / Appendix B, "Logarithmic Gecko's Buffers").
		total = int64(g.cfg.PageSize) * int64(2+g.cfg.Levels())
	}
	for _, lvl := range g.levels {
		for _, r := range lvl {
			total += r.ramBytes()
		}
	}
	return total
}

// Update reports that the physical page at the given address has become
// invalid (Algorithm 1). It may trigger a buffer flush and merges.
func (g *Gecko) Update(addr flash.Addr) error {
	if addr.Block < 0 || int(addr.Block) >= g.cfg.Blocks {
		return fmt.Errorf("gecko: block %d out of range [0,%d)", addr.Block, g.cfg.Blocks)
	}
	if addr.Offset < 0 || addr.Offset >= g.cfg.PagesPerBlock {
		return fmt.Errorf("gecko: page offset %d out of range [0,%d)", addr.Offset, g.cfg.PagesPerBlock)
	}
	g.stats.Updates++
	g.buf.recordInvalid(addr.Block, addr.Offset)
	return g.maybeFlush()
}

// RecordErase reports that a block has been erased (Algorithm 2), so that all
// older page-validity metadata for it becomes obsolete.
func (g *Gecko) RecordErase(block flash.BlockID) error {
	if block < 0 || int(block) >= g.cfg.Blocks {
		return fmt.Errorf("gecko: block %d out of range [0,%d)", block, g.cfg.Blocks)
	}
	g.stats.Erases++
	g.buf.recordErase(block)
	return g.maybeFlush()
}

// Query answers a GC query in a new bitmap; see QueryInto.
func (g *Gecko) Query(block flash.BlockID) (*bitmap.Bitmap, error) {
	result := bitmap.New(g.cfg.PagesPerBlock)
	if err := g.QueryInto(block, result); err != nil {
		return nil, err
	}
	return result, nil
}

// QueryInto answers a GC query (Algorithm 4): it overwrites dst, one bit per
// page of the block, with a set bit where the page is invalid. It traverses
// the buffer and then the runs from most recently created to least recently
// created, reading at most one page per run (two when a block's partitioned
// sub-entries straddle a page boundary), and stops early when it encounters
// an erase entry for the block.
func (g *Gecko) QueryInto(block flash.BlockID, dst *bitmap.Bitmap) error {
	if block < 0 || int(block) >= g.cfg.Blocks {
		return fmt.Errorf("gecko: block %d out of range [0,%d)", block, g.cfg.Blocks)
	}
	g.stats.Queries++
	dst.Reset()
	if g.buf.query(block, dst) {
		return nil
	}
	for r := range g.runsNewestFirst {
		erased := false
		for pi, hi := r.pagesFor(block); pi < hi; pi++ {
			page := &r.pages[pi]
			if err := g.store.Read(page.ppn); err != nil {
				return fmt.Errorf("gecko: reading run %d page %d: %w", r.id, pi, err)
			}
			g.stats.QueryPageReads++
			if page.query(g.sz, block, dst) {
				erased = true
			}
		}
		if erased {
			break
		}
	}
	return nil
}

// runsNewestFirst yields the live runs from most to least recently created.
// That is the order of the level table: a run is placed when it is the newest
// of all, at the end of its level and with every smaller level empty or
// emptied by the merge that made it (mergeIfNeeded always merges the
// smallest crowded level), and recovery and import keep the order they find.
func (g *Gecko) runsNewestFirst(yield func(*run) bool) {
	for _, lvl := range g.levels {
		for i := len(lvl) - 1; i >= 0; i-- {
			if !yield(lvl[i]) {
				return
			}
		}
	}
}

// Flush forces the buffer to flash even if it is not full. The FTL calls it
// before a clean shutdown; tests use it to make state deterministic.
func (g *Gecko) Flush() error {
	if g.buf.len() == 0 {
		return nil
	}
	return g.flushBuffer()
}

// maybeFlush flushes the buffer when it has filled up.
func (g *Gecko) maybeFlush() error {
	if !g.buf.full() {
		return nil
	}
	return g.flushBuffer()
}

// flushBuffer writes the buffer as a new run of one page into level 0 and
// triggers merging.
func (g *Gecko) flushBuffer() error {
	page := g.buf.drain(g.pool.take())
	if len(page.ents) == 0 {
		g.pool.put(page)
		return nil
	}
	g.stats.Flushes++
	r := g.newRun(1)
	r.pages = append(r.pages, newRunPage(page))
	if err := g.writeRun(r, nil); err != nil {
		return err
	}
	g.placeRun(r)
	return g.mergeIfNeeded()
}

// writeRun persists r, a run whose directory holds its pages but no
// addresses yet, as a new run. The flash image changes only once the last
// page is programmed: until then a power failure leaves an incomplete run,
// which recovery drops in favour of the runs it was to supersede (a merge's
// inputs), and flash keeps their pages, invalidated or not, until their
// blocks are erased. Only then, with their pages out of the flash image, do
// the superseded runs' pages go to the pool: recovery relinks runs from the
// image, so a page it still reaches is never reused. The superseded runs
// themselves, their structs and directories, go to g.spare for the runs to
// come: neither the image nor an export refers to them, and writeRun reads
// them for the last time here. If a page cannot be programmed, r's pages go
// back to the pool, since the image holds none of them.
func (g *Gecko) writeRun(r *run, supersedes []*run) error {
	g.seq++
	r.id, r.createSeq = g.nextRunID, g.seq
	r.level = g.cfg.LevelOfRunPages(len(r.pages))
	g.nextRunID++
	for i := range r.pages {
		p := &r.pages[i]
		spare := encodeRunPageSpare(r.id, i, len(r.pages), p.minKey, p.maxKey)
		ppn, err := g.store.Append(spare)
		if err != nil {
			g.release(r)
			return fmt.Errorf("gecko: writing run %d page %d: %w", r.id, i, err)
		}
		p.ppn = ppn
	}
	// In this order: a store short of space may have erased a superseded
	// run's block and programmed one of these pages at the same address.
	for _, old := range supersedes {
		for i := range old.pages {
			delete(g.pageContent, old.pages[i].ppn)
		}
		g.release(old)
	}
	for i := range r.pages {
		g.pageContent[r.pages[i].ppn] = r.pages[i].slab
	}
	return nil
}

// roomFor returns the directory room of a run of up to the given number of
// entries: its pages rounded up to a power of two, or the largest run's, so
// that a spare directory fits the next run of its class.
func (g *Gecko) roomFor(entries int) int {
	pages := (entries + g.sz.perPage - 1) / g.sz.perPage
	room := 1
	for room < pages {
		room *= 2
	}
	return min(room, g.cfg.LargestRunPages())
}

// newRun returns an empty run whose directory has room for the given number
// of pages: of the spare runs, the one whose room is the least that will do,
// or a new run with just that room. Merges ask for roomFor's classes, so a
// spare one fits the next run of its class; recovery and import ask for a
// rebuilt run's page count.
func (g *Gecko) newRun(room int) *run {
	best := -1
	for i, r := range g.spare {
		if c := cap(r.pages); c >= room && (best < 0 || c < cap(g.spare[best].pages)) {
			best = i
		}
	}
	if best < 0 {
		return &run{pages: make([]runPage, 0, room)}
	}
	r := g.spare[best]
	last := len(g.spare) - 1
	g.spare[best], g.spare[last] = g.spare[last], nil
	g.spare = g.spare[:last]
	return r
}

// release hands the pages of a run that neither the flash image nor any
// other run refers to to the pool, and the run to g.spare.
func (g *Gecko) release(r *run) {
	g.pool.putPages(r.pages)
	g.retire(r)
}

// retire hands a run that nothing reads any more to g.spare, for the runs to
// come. A spare run keeps its directory's storage and nothing else: no page.
func (g *Gecko) retire(r *run) {
	clear(r.pages)
	*r = run{pages: r.pages[:0]}
	g.spare = append(g.spare, r)
}

// retireLevels empties every level, keeping its slice, and retires its runs.
// Their pages do not go to the pool: the flash image still holds them.
func (g *Gecko) retireLevels() {
	for i, lvl := range g.levels {
		for _, r := range lvl {
			g.retire(r)
		}
		g.emptyLevel(i)
	}
}

// placeRun inserts a run into the level its size dictates (but never below
// r.level, which merges set to the largest input level so that merge outputs
// are only ever promoted, keeping the newer-runs-at-smaller-levels invariant
// that directory recovery relies on), growing the level table if necessary.
func (g *Gecko) placeRun(r *run) {
	if sizeLevel := g.cfg.LevelOfRunPages(len(r.pages)); sizeLevel > r.level {
		r.level = sizeLevel
	}
	for r.level >= len(g.levels) {
		g.levels = append(g.levels, nil)
	}
	g.levels[r.level] = append(g.levels[r.level], r)
}

// mergeIfNeeded merges runs until no level holds more than one run.
// With MultiWayMerge enabled, a cascade that would touch several levels is
// collapsed into a single multi-way merge (Appendix A).
func (g *Gecko) mergeIfNeeded() error {
	for {
		level := -1
		for i := range g.levels {
			if len(g.levels[i]) >= 2 {
				level = i
				break
			}
		}
		if level < 0 {
			return nil
		}
		inputs := g.takeMergeInputs(level)
		// A merge output never drops below the largest level it consumed.
		// Read it first: the merge hands the inputs on for reuse.
		floor := 0
		for _, in := range inputs {
			floor = max(floor, in.level)
		}
		merged, err := g.mergeRuns(inputs)
		if err != nil {
			return err
		}
		if merged != nil {
			merged.level = floor
			g.placeRun(merged)
		}
	}
}

// takeMergeInputs removes and returns the runs that will participate in the
// next merge, starting from the given level. The two-way policy takes just
// the runs of that level; the multi-way policy (Appendix A) also pulls in the
// single run of each higher level that the result would cascade into. The
// result is reused scratch, valid until the next call; the levels keep their
// slices, for placeRun to append to.
func (g *Gecko) takeMergeInputs(level int) []*run {
	g.inputs = append(g.inputs[:0], g.levels[level]...)
	g.emptyLevel(level)
	if !g.cfg.MultiWayMerge {
		return g.inputs
	}
	// Foresee the cascade: if the merged run would be promoted into a level
	// that already holds a run, include that run in the same merge.
	pages := 0
	for _, r := range g.inputs {
		pages += len(r.pages)
	}
	for next := level + 1; next < len(g.levels); next++ {
		if len(g.levels[next]) == 0 {
			break
		}
		if g.cfg.LevelOfRunPages(pages) < next {
			break
		}
		g.inputs = append(g.inputs, g.levels[next]...)
		for _, r := range g.levels[next] {
			pages += len(r.pages)
		}
		g.emptyLevel(next)
	}
	return g.inputs
}

// emptyLevel removes every run from a level, keeping its slice.
func (g *Gecko) emptyLevel(level int) {
	clear(g.levels[level])
	g.levels[level] = g.levels[level][:0]
}

// mergeRuns merges the given runs (none, or two or more) into a single new run.
// Every input page is read, the entries are sort-merged with the collision
// rules of Algorithm 3 (generalized to whole-block erase entries), the result
// is written as a new run, and the input pages are invalidated.
func (g *Gecko) mergeRuns(inputs []*run) (*run, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	g.stats.Merges++
	g.stats.MergedRuns += int64(len(inputs))

	// Read every input page (the IO cost of the merge).
	for _, r := range inputs {
		for i := range r.pages {
			if err := g.store.Read(r.pages[i].ppn); err != nil {
				return nil, fmt.Errorf("gecko: merge read of run %d: %w", r.id, err)
			}
		}
	}

	merged := g.mergeEntryStreams(inputs)

	// Discard the input runs: their pages are now obsolete.
	for _, r := range inputs {
		for i := range r.pages {
			if err := g.store.Invalidate(r.pages[i].ppn); err != nil {
				g.release(merged)
				return nil, fmt.Errorf("gecko: invalidating run %d: %w", r.id, err)
			}
		}
	}

	// Only inputs without entries, and so without pages, merge to nothing:
	// the newest entry of every key survives, erase entries included.
	if len(merged.pages) == 0 {
		g.retire(merged)
		return nil, nil
	}
	if err := g.writeRun(merged, inputs); err != nil {
		return nil, err
	}
	return merged, nil
}

// stream is sorted entries read one page at a time: ents and words are the
// page being read, pages those after it.
type stream struct {
	ents  []entry
	words []uint64
	pages []runPage
}

// exhausted is the key past a stream's end. No entry packs to it: no block < 0.
const exhausted uint64 = math.MaxUint64

// at steps over exhausted pages from entry pos of ents and returns what
// mergeTwo keeps in locals: the entries, the position in them and its key.
func (s *stream) at(pos int) ([]entry, int, uint64) {
	for pos == len(s.ents) {
		if len(s.pages) == 0 {
			return s.ents, pos, exhausted
		}
		s.ents, s.words, pos, s.pages = s.pages[0].ents, s.pages[0].words, 0, s.pages[1:]
	}
	return s.ents, pos, s.ents[pos].key().packed()
}

// mergeEntryStreams merges the inputs, in any order (recency is createSeq),
// into the pages of a new run, which it returns without an ID; the inputs
// are only read. Two, the leveled merge of Section 3.2, are one mergeTwo.
// More (Appendix A) fold newest first: each step merges the result so far,
// in one of two directories, as the newer stream with the next older run,
// and then hands the previous result's pages back to the pool.
func (g *Gecko) mergeEntryStreams(inputs []*run) *run {
	byAge := append(g.byAge[:0], inputs...)
	slices.SortFunc(byAge, func(a, b *run) int { return cmp.Compare(b.createSeq, a.createSeq) })
	total := 0
	for _, r := range byAge {
		total += r.entryCount()
	}
	// Every step's output holds every key once at most.
	room := g.roomFor(min(total, g.cfg.distinctKeys()))
	out := g.newRun(room)
	out.pages = g.pool.mergeTwo(out.pages, stream{pages: byAge[0].pages}, stream{pages: byAge[1].pages})
	if len(byAge) > 2 {
		prev := g.newRun(room)
		for _, r := range byAge[2:] {
			out, prev = prev, out
			out.pages = g.pool.mergeTwo(out.pages, stream{pages: prev.pages}, stream{pages: r.pages})
			g.pool.putPages(prev.pages)
			clear(prev.pages)
			prev.pages = prev.pages[:0]
		}
		g.retire(prev)
	}
	clear(byAge) // do not keep the inputs alive past this call
	g.byAge = byAge
	return out
}

// mergeTwo appends to out the merge of a newer and an older stream by
// Algorithm 3's rules: a newer erase entry, which precedes its block's
// chunks, drops the block's older entries, and colliding chunks OR their
// bits and keep the older erase flag, unless the newer is flagged. It writes
// page by page, taking the next page from the pool when one fills: every
// page but the last holds V entries.
func (p *pagePool) mergeTwo(out []runPage, newer, older stream) []runPage {
	wpe := p.wpe
	ne, ni, nk := newer.at(0)
	oe, oi, ok := older.at(0)
	cut := flash.InvalidBlock // the block the newer stream last erased
	for nk != exhausted || ok != exhausted {
		page := p.take()
		ents, words, n := page.ents[:cap(page.ents)], page.words[:cap(page.words)], 0
		// The page is full once a step has written its last slot and
		// moved the streams past what it read; checking at the top of the
		// loop instead made the perfbench device's merge a fifth slower.
		for {
			if ok < nk {
				if e := oe[oi]; e.block != cut {
					ents[n] = e
					copyWords(words, n, older.words, oi, wpe)
					n++
				}
			} else if nk == exhausted {
				break
			} else {
				e := ne[ni]
				if e.erase && e.subKey == WholeBlock {
					cut = e.block
				}
				copyWords(words, n, newer.words, ni, wpe)
				collides := nk == ok
				if collides && !e.erase && e.block != cut {
					for w := range wpe {
						words[n*wpe+w] |= older.words[oi*wpe+w]
					}
					e.erase = oe[oi].erase
				}
				ents[n] = e
				n++
				if ni++; ni < len(ne) {
					nk = ne[ni].key().packed()
				} else {
					ne, ni, nk = newer.at(ni)
				}
				if !collides {
					if n == len(ents) {
						break
					}
					continue
				}
			}
			if oi++; oi < len(oe) {
				ok = oe[oi].key().packed()
			} else {
				oe, oi, ok = older.at(oi)
			}
			if n == len(ents) {
				break
			}
		}
		if n == 0 {
			// What was left were older entries of a block the newer stream
			// erased.
			p.put(page)
			break
		}
		out = append(out, newRunPage(slab{ents: ents[:n], words: words[:n*wpe], wpe: wpe}))
	}
	return out
}

// copyWords copies entry i's words in src to entry n's in dst, one at a time.
func copyWords(dst []uint64, n int, src []uint64, i, wpe int) {
	if wpe == 1 {
		dst[n] = src[i]
		return
	}
	for w := range wpe {
		dst[n*wpe+w] = src[i*wpe+w]
	}
}
