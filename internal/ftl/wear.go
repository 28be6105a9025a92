package ftl

import (
	"geckoftl/internal/flash"
)

// wearLeveler implements the Appendix D wear-leveling scheme. It keeps only a
// few global statistics in integrated RAM (the per-block erase counts live in
// spare areas, stamped by the device on every program) and discovers
// wear-leveling victims through a gradual scan: for every application write
// it reads the spare area of one more block, so a full device scan completes
// every K writes at a cost three orders of magnitude below the writes
// themselves.
type wearLeveler struct {
	enabled   bool
	threshold int

	// cursor is the next block the gradual scan will probe.
	cursor flash.BlockID
	// maxErase is the largest erase count the current scan has seen, and
	// scanned the number of blocks it has probed.
	maxErase int
	scanned  int64

	// candidate is the least-worn full block seen in the current scan; it
	// becomes the wear-leveling victim if the erase-count discrepancy
	// exceeds the threshold when the scan completes.
	candidate      flash.BlockID
	candidateErase int
}

// newWearLeveler creates a wear-leveler. threshold is the erase-count
// discrepancy (max - min) above which static blocks are recycled; Appendix D
// argues single-digit discrepancies are acceptable, so the default is 8.
func newWearLeveler(enabled bool, threshold int) *wearLeveler {
	if threshold <= 0 {
		threshold = 8
	}
	return &wearLeveler{enabled: enabled, threshold: threshold, candidate: flash.InvalidBlock}
}

// RAMBytes is the integrated-RAM footprint of the wear-leveler as the paper
// accounts it: Appendix D's global counters (min, max and average erase
// counts, the scan cursor and the candidate), 40 bytes. The scan here keeps
// fewer of them; charging the paper's figure keeps the RAM comparisons with
// the paper's tables as they were.
func (w *wearLeveler) RAMBytes() int64 {
	if !w.enabled {
		return 0
	}
	return 40
}

// step advances the gradual scan by one block: one spare-area read. It
// returns a wear-leveling victim when a scan has just completed and the
// erase-count discrepancy exceeds the threshold; otherwise InvalidBlock.
func (f *FTL) wearStep() (flash.BlockID, error) {
	w := f.wear
	if !w.enabled {
		return flash.InvalidBlock, nil
	}
	block := w.cursor
	w.cursor = (w.cursor + 1) % flash.BlockID(f.cfg.Blocks)

	// One spare-area read per application write (Appendix D); the erase
	// count itself is tracked by the device per block, the spare read models
	// fetching the block's wear statistics.
	first := flash.PPNOf(block, 0, f.cfg.PagesPerBlock)
	if _, _, err := f.dev.ReadSpare(first, flash.PurposeWearLeveling); err != nil {
		return flash.InvalidBlock, err
	}
	eraseCount, err := f.dev.EraseCount(block)
	if err != nil {
		return flash.InvalidBlock, err
	}

	if w.scanned == 0 {
		w.maxErase = eraseCount
		w.candidate, w.candidateErase = flash.InvalidBlock, 0
	}
	w.scanned++
	if eraseCount > w.maxErase {
		w.maxErase = eraseCount
	}
	// Only user blocks garbage collection may reclaim can be recycled (the
	// protection never holds one: it is for translation blocks).
	if g, _ := f.bm.GroupOf(block); g == GroupUser && f.bm.Reclaimable(block) {
		if w.candidate == flash.InvalidBlock || eraseCount < w.candidateErase {
			w.candidate = block
			w.candidateErase = eraseCount
		}
	}

	if w.scanned < int64(f.cfg.Blocks) {
		return flash.InvalidBlock, nil
	}
	// Scan complete: decide whether to recycle the least-worn static block.
	w.scanned = 0
	victim := flash.InvalidBlock
	if w.candidate != flash.InvalidBlock && w.maxErase-w.candidateErase > w.threshold {
		victim = w.candidate
	}
	return victim, nil
}

// wearLevelIfNeeded runs one gradual-scan step and, when the scan identifies
// an exceptionally unworn static block, recycles it by migrating its live
// pages and erasing it so that it re-enters the free pool (and therefore the
// write path, where it will absorb wear).
func (f *FTL) wearLevelIfNeeded() error {
	victim, err := f.wearStep()
	if err != nil || victim == flash.InvalidBlock {
		return err
	}
	_, err = f.collectOutOfBand(victim)
	return err
}
