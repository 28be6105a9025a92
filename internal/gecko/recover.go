package gecko

import (
	"cmp"
	"fmt"
	"slices"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// CrashRAM simulates the loss of integrated RAM at power failure: the buffer
// contents and the run directories disappear. The flash-resident runs (their
// pages and spare areas) survive on the device; RecoverDirectories or
// ImportDirectories rebuilds the RAM state from them. What a crash keeps is
// host storage with no content in it: each level's slice, emptied; the runs,
// cleared and spare (see retire); one largest run's worth of the page pool,
// whose pages are empty and none of the flash image's; the recovery scan's
// slice and ScanValidity's rows, which their next call overwrites before it
// reads them. The rebuilt directories refill that storage instead of
// allocating their own, and relink the flash image's pages, which go to the
// pool when a newer run supersedes theirs.
func (g *Gecko) CrashRAM() {
	g.buf.clear()
	g.retireLevels()
	g.pool.crash()
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
// The scan goes into one slice, which the Gecko keeps for the next recovery,
// and the runs are spare ones where they fit (see CrashRAM).
func (g *Gecko) RecoverDirectories() error {
	lister, ok := g.store.(metastore.BlockLister)
	if !ok {
		return fmt.Errorf("gecko: store of type %T cannot enumerate blocks for recovery", g.store)
	}

	// Step 1: spare-area scan of every page in every Gecko block.
	blocks := lister.Blocks()
	scan := slices.Grow(g.scan[:0], len(blocks)*g.cfg.PagesPerBlock)
	for _, block := range blocks {
		for offset := 0; offset < g.cfg.PagesPerBlock; offset++ {
			ppn := flash.PPNOf(block, offset, g.cfg.PagesPerBlock)
			spare, written, err := g.store.ReadSpare(ppn)
			if err != nil {
				return fmt.Errorf("gecko: recovery scan of %v: %w", ppn, err)
			}
			if written {
				scan = append(scan, decodeRunPageSpare(spare, ppn))
			}
		}
	}
	g.scan = scan

	// Step 2: group the pages by run, each run's in page order, and keep only
	// complete runs (all totalPages present exactly once). Step 3: the newest
	// complete run per level. The runs come in ascending ID order, so the
	// strict > resolves a createSeq tie to the lowest run ID on every
	// recovery: recovery must replay identically or post-crash GC diverges
	// between runs of the same crash image.
	slices.SortFunc(scan, func(a, b runPageMeta) int {
		return cmp.Or(cmp.Compare(a.runID(), b.runID()), cmp.Compare(a.pageIndex(), b.pageIndex()))
	})
	// A spare area records 0xffff pages a run at most, and the size ratio
	// is 2 at least, so no complete run is above level 15.
	var newest [16][]runPageMeta
	for lo, hi := 0, 0; lo < len(scan); lo = hi {
		for hi = lo + 1; hi < len(scan) && scan[hi].runID() == scan[lo].runID(); hi++ {
		}
		pages := scan[lo:hi]
		if !complete(pages) {
			continue
		}
		level := g.cfg.LevelOfRunPages(len(pages))
		if cur := newest[level]; cur == nil || pages[0].writeSeq > cur[0].writeSeq {
			newest[level] = pages
		}
	}

	// Step 4: enforce the recency invariant from the largest level down, and
	// step 5: rebuild the in-RAM run structures. The entry content of live
	// pages is the flash content written by writeRun; it is looked up by
	// physical address from the surviving flash image, pageContent: the
	// simulator does not store payload bytes in the device, so only directory
	// state (locations, key ranges, levels) is actually lost and re-derived.
	g.retireLevels()
	minSeqOfLarger := uint64(0)
	for level := len(newest) - 1; level >= 0; level-- {
		pages := newest[level]
		if pages == nil || pages[0].writeSeq <= minSeqOfLarger {
			continue // none, or older than a live run at a higher level: obsolete
		}
		minSeqOfLarger = pages[0].writeSeq
		r := g.newRun(len(pages))
		r.id, r.createSeq, r.level = pages[0].runID(), pages[0].writeSeq, level
		for _, m := range pages {
			content, ok := g.pageContent[m.ppn]
			if !ok {
				err := fmt.Errorf("gecko: recovered run %d references page %d with no content", r.id, m.ppn)
				g.retire(r)
				return err
			}
			r.pages = append(r.pages, runPage{ppn: m.ppn, minKey: m.minKey(), maxKey: m.maxKey(), slab: content})
		}
		g.adoptRun(r)
	}
	return nil
}

// complete reports whether one run's scanned pages, in page order, are the
// whole run: every page of the count each records, once.
func complete(pages []runPageMeta) bool {
	total := pages[0].totalPages()
	if len(pages) != total {
		return false
	}
	for i, m := range pages {
		if m.pageIndex() != i || m.totalPages() != total {
			return false
		}
	}
	return true
}

// adoptRun places a run rebuilt from flash or from a checkpoint and ratchets
// the run-ID and creation-sequence counters past it, keeping logical
// sequencing consistent for future runs and merges.
func (g *Gecko) adoptRun(r *run) {
	g.seq = max(g.seq, r.createSeq)
	g.nextRunID = max(g.nextRunID, r.id+1)
	g.placeRun(r)
}
