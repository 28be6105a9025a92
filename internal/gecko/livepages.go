package gecko

import (
	"iter"

	"geckoftl/internal/flash"
)

// LivePages yields the physical address of every flash page currently
// occupied by a live run. The FTL's recovery procedure uses it to rebuild the
// Blocks Validity Counter entries of metadata blocks.
func (g *Gecko) LivePages() iter.Seq[flash.PPN] {
	return func(yield func(flash.PPN) bool) {
		for _, lvl := range g.levels {
			for _, r := range lvl {
				for i := range r.pages {
					if !yield(r.pages[i].ppn) {
						return
					}
				}
			}
		}
	}
}

// IsLive reports whether the given flash page belongs to a live run.
// GeckoFTL's metadata-aware garbage-collector never needs this (it never
// targets metadata blocks), but the greedy-policy ablation does: a greedy
// collector that picks a Gecko block must know which of its pages to migrate.
func (g *Gecko) IsLive(ppn flash.PPN) bool {
	_, ok := g.pageContent[ppn]
	return ok
}

// Relocate informs the structure that the garbage-collector moved one of its
// live run pages to a new location, updating the run directory and the flash
// image. It reports whether the old location was live.
func (g *Gecko) Relocate(old, new flash.PPN) bool {
	content, ok := g.pageContent[old]
	if !ok {
		return false
	}
	for _, lvl := range g.levels {
		for _, r := range lvl {
			for i := range r.pages {
				if r.pages[i].ppn == old {
					r.pages[i].ppn = new
					delete(g.pageContent, old)
					g.pageContent[new] = content
					return true
				}
			}
		}
	}
	return false
}
