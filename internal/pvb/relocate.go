package pvb

import (
	"iter"

	"geckoftl/internal/flash"
)

// IsLive reports whether the given flash page currently holds the newest
// version of one of the structure's PVB pages. The FTL's garbage-collector
// uses it when a greedy victim-selection policy (µ-FTL's) picks a metadata
// block for collection.
func (p *FlashPVB) IsLive(ppn flash.PPN) bool {
	for _, loc := range p.location {
		if loc == ppn {
			return true
		}
	}
	return false
}

// Relocate informs the structure that the garbage-collector moved one of its
// live PVB pages to a new location. It reports whether the old location was
// actually live.
func (p *FlashPVB) Relocate(old, new flash.PPN) bool {
	for i, loc := range p.location {
		if loc == old {
			p.location[i] = new
			return true
		}
	}
	return false
}

// LivePages yields the physical address of the current version of every
// PVB page. Recovery uses it to rebuild per-block valid-page counts.
func (p *FlashPVB) LivePages() iter.Seq[flash.PPN] {
	return func(yield func(flash.PPN) bool) {
		for _, loc := range p.location {
			if loc != flash.InvalidPPN && !yield(loc) {
				return
			}
		}
	}
}
