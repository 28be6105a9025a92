package gecko

import "geckoftl/internal/bitmap"

// ScanValidity reads every live run page once (newest run to oldest) and
// returns the reconstructed page-validity bitmap of every block: row b of the
// result, for each of the Config.Blocks blocks, holds one bit per page of
// block b, set where the page is invalid. It equals what Query(b) returns, so
// a block with no entries, or whose entries all predate its newest erase,
// has an empty row.
//
// This is the bulk counterpart of Query used by GeckoRec step 5 (Appendix C):
// rebuilding the Blocks Validity Counter needs the validity of every block,
// and scanning the O(K*B/P) Gecko pages once is far cheaper than issuing K
// separate GC queries. The IO charged is one page read per live run page.
// The rows come from one array and the erase bookkeeping from another, both
// the Gecko's own: the first call allocates them, and every later one
// clears and refills them. The result is valid until the next call.
func (g *Gecko) ScanValidity() (*bitmap.Rows, error) {
	if g.rows == nil {
		g.rows = bitmap.NewRows(g.cfg.Blocks, g.cfg.PagesPerBlock)
	} else {
		g.rows.Reset()
	}
	rows := g.rows
	// A block's bit in skip is set once a source newer than the one being
	// read holds an erase entry for it: its entries in older sources are
	// obsolete. Entries within the same source as an erase entry postdate the
	// erase, so erased collects the current source's erase entries and joins
	// skip only when the next, older, source begins.
	n := (g.cfg.Blocks + 63) / 64
	if g.marks == nil {
		g.marks = make([]uint64, 2*n)
	}
	clear(g.marks)
	skip, erased := g.marks[:n], g.marks[n:]

	fold := func(s *slab, i int) {
		e := &s.ents[i]
		w, bit := int(e.block)/64, uint64(1)<<uint(e.block%64)
		switch {
		case skip[w]&bit != 0:
		case e.erase && e.subKey == WholeBlock:
			erased[w] |= bit
		default:
			row := rows.Row(int(e.block))
			g.sz.fold(&row, e.subKey, s.bits(i))
		}
	}

	// The buffer is the newest source.
	for i := range g.buf.ents {
		fold(&g.buf.slab, i)
	}
	for r := range g.runsNewestFirst {
		for w := range skip {
			skip[w] |= erased[w]
			erased[w] = 0
		}
		for pi := range r.pages {
			page := &r.pages[pi]
			if err := g.store.Read(page.ppn); err != nil {
				return nil, err
			}
			for i := range page.ents {
				fold(&page.slab, i)
			}
		}
	}
	return rows, nil
}
