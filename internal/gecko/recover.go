package gecko

import (
	"cmp"
	"fmt"
	"slices"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// CrashRAM simulates the loss of integrated RAM at power failure: the buffer
// contents and the run directories disappear, and the free lists with them.
// The flash-resident runs (their pages and spare areas) survive on the
// device; RecoverDirectories rebuilds the RAM state from them.
func (g *Gecko) CrashRAM() {
	g.buf.clear()
	g.levels = make([][]*run, g.cfg.Levels()+1)
	g.free.slabs = nil
	g.spare = nil
}

// NewestRunWriteSeq returns the write-sequence number of the first
// page of the most recently created run, or zero when no runs exist. The
// FTL's recovery uses it to find blocks erased since the last buffer flush.
func (g *Gecko) NewestRunWriteSeq() (uint64, error) {
	for r := range g.runsNewestFirst {
		if len(r.pages) == 0 {
			return 0, nil
		}
		spare, ok, err := g.store.ReadSpare(r.pages[0].ppn)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("gecko: newest run %d has an unwritten first page", r.id)
		}
		return spare.WriteSeq, nil
	}
	return 0, nil
}

// RecoverDirectories rebuilds the run directories after a power failure
// (Appendix C.1 of the paper).
//
// It scans the spare area of every page in the store's blocks (one cheap
// spare-area read per page, the same asymptotic cost as the paper's scan of
// all Gecko pages), groups pages into runs by the run ID recorded in their
// spare areas, and discards runs that are incomplete (some of their pages
// were never written before power failed) or obsolete. Obsolete runs are
// detected with the recency invariant of the merge policy: among live runs,
// creation time strictly decreases as the level grows, so any recovered run
// that is older than a recovered run at a higher level must have been merged
// already and is dropped.
//
// The store must implement metastore.BlockLister so the scan knows which
// blocks to visit. The rebuilt directories replace the current RAM state.
func (g *Gecko) RecoverDirectories() error {
	lister, ok := g.store.(metastore.BlockLister)
	if !ok {
		return fmt.Errorf("gecko: store of type %T cannot enumerate blocks for recovery", g.store)
	}

	// Step 1: spare-area scan of every page in every Gecko block.
	pagesByRun := make(map[uint64][]runPageMeta)
	for _, block := range lister.Blocks() {
		for offset := 0; offset < g.cfg.PagesPerBlock; offset++ {
			ppn := flash.PPNOf(block, offset, g.cfg.PagesPerBlock)
			spare, written, err := g.store.ReadSpare(ppn)
			if err != nil {
				return fmt.Errorf("gecko: recovery scan of %v: %w", ppn, err)
			}
			if !written {
				continue
			}
			meta := decodeRunPageSpare(spare, ppn)
			metas, seen := pagesByRun[meta.runID]
			if !seen {
				// Sized once, to the page count recorded on the first of
				// the run's pages the scan meets: a complete run never
				// grows it.
				metas = make([]runPageMeta, 0, meta.totalPages)
			}
			pagesByRun[meta.runID] = append(metas, meta)
		}
	}

	// Step 2: keep only complete runs (all totalPages present exactly once).
	type candidate struct {
		id        uint64
		createSeq uint64
		pages     []runPageMeta
	}
	var candidates []candidate
	for id, metas := range pagesByRun {
		if len(metas) == 0 {
			continue
		}
		total := metas[0].totalPages
		if len(metas) != total {
			continue
		}
		slices.SortFunc(metas, func(a, b runPageMeta) int { return cmp.Compare(a.pageIndex, b.pageIndex) })
		complete := true
		for i, m := range metas {
			if m.pageIndex != i || m.totalPages != total {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		candidates = append(candidates, candidate{id: id, createSeq: metas[0].writeSeq, pages: metas})
	}
	// candidates was assembled in map-iteration order; pin a total order so
	// step 3's strict > comparison resolves createSeq ties to the lowest run
	// ID on every recovery, not to whichever run the map yielded first.
	// Recovery must replay identically or post-crash GC diverges between
	// runs of the same crash image.
	slices.SortFunc(candidates, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })

	// Step 3: newest complete run per level.
	newestPerLevel := make(map[int]candidate)
	for _, c := range candidates {
		level := g.cfg.LevelOfRunPages(len(c.pages))
		cur, ok := newestPerLevel[level]
		if !ok || c.createSeq > cur.createSeq {
			newestPerLevel[level] = c
		}
	}

	// Step 4: enforce the recency invariant from the largest level down.
	levels := make([]int, 0, len(newestPerLevel))
	for level := range newestPerLevel {
		levels = append(levels, level)
	}
	slices.SortFunc(levels, func(a, b int) int { return cmp.Compare(b, a) })
	var live []candidate
	liveLevels := make([]int, 0, len(levels))
	minSeqOfLarger := uint64(0)
	for _, level := range levels {
		c := newestPerLevel[level]
		if c.createSeq <= minSeqOfLarger {
			continue // older than a live run at a higher level: obsolete
		}
		minSeqOfLarger = c.createSeq
		live = append(live, c)
		liveLevels = append(liveLevels, level)
	}

	// Step 5: rebuild the in-RAM run structures. The entry content of live
	// pages is the flash content written by writeRun; it is looked up by
	// physical address from the surviving flash image, pageContent: the
	// simulator does not store payload bytes in the device, so only directory
	// state (locations, key ranges, levels) is actually lost and re-derived.
	g.levels = make([][]*run, g.cfg.Levels()+1)
	for i, c := range live {
		r := &run{id: c.id, createSeq: c.createSeq, level: liveLevels[i], pages: make([]runPage, 0, len(c.pages))}
		for _, m := range c.pages {
			page, ok := g.pageContent[m.ppn]
			if !ok {
				return fmt.Errorf("gecko: recovered run %d references page %d with no content", c.id, m.ppn)
			}
			r.pages = append(r.pages, runPage{
				ppn:    m.ppn,
				minKey: m.minKey,
				maxKey: m.maxKey,
				slab:   page,
			})
		}
		g.adoptRun(r)
	}
	return nil
}

// adoptRun places a run rebuilt from flash or from a checkpoint and ratchets
// the run-ID and creation-sequence counters past it, keeping logical
// sequencing consistent for future runs and merges.
func (g *Gecko) adoptRun(r *run) {
	g.seq = max(g.seq, r.createSeq)
	g.nextRunID = max(g.nextRunID, r.id+1)
	g.placeRun(r)
}
