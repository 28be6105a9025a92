package gecko

import (
	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// ScanValidity reads every live run page once (newest run to oldest) and
// returns the reconstructed page-validity bitmap of every block that has at
// least one invalid page. A set bit means the page is invalid.
//
// This is the bulk counterpart of Query used by GeckoRec step 5 (Appendix C):
// rebuilding the Blocks Validity Counter needs the validity of every block,
// and scanning the O(K*B/P) Gecko pages once is far cheaper than issuing K
// separate GC queries. The IO charged is one page read per live run page.
func (g *Gecko) ScanValidity() (map[flash.BlockID]*bitmap.Bitmap, error) {
	result := make(map[flash.BlockID]*bitmap.Bitmap)
	// skip holds blocks whose erase entry has been seen in a newer source;
	// entries for them in older sources are obsolete.
	skip := make(map[flash.BlockID]bool)

	fold := func(s *slab, i int) (erased bool) {
		e := &s.ents[i]
		if skip[e.block] {
			return false
		}
		if e.erase && e.subKey == WholeBlock {
			return true
		}
		bm, ok := result[e.block]
		if !ok {
			bm = bitmap.New(g.cfg.PagesPerBlock)
			result[e.block] = bm
		}
		g.cfg.fold(bm, e.subKey, s.bits(i))
		return false
	}

	// The buffer is the newest source. Entries within the same source as an
	// erase entry postdate the erase, so the block is only skipped for older
	// sources.
	var erased []flash.BlockID
	for i := range g.buf.ents {
		if fold(&g.buf.slab, i) {
			erased = append(erased, g.buf.ents[i].block)
		}
	}
	for r := range g.runsNewestFirst {
		for _, block := range erased {
			skip[block] = true
		}
		erased = erased[:0]
		for pi := range r.pages {
			page := &r.pages[pi]
			if err := g.store.Read(page.ppn); err != nil {
				return nil, err
			}
			for i := range page.ents {
				if fold(&page.slab, i) {
					erased = append(erased, page.ents[i].block)
				}
			}
		}
	}
	return result, nil
}
