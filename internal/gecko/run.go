package gecko

import (
	"fmt"
	"sort"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// runPage is one flash page of a run: up to V entries sorted by key, in a
// page slab of its own, plus the key range used by the run directory to
// route GC queries to the single page that may contain a given block.
type runPage struct {
	ppn    flash.PPN
	minKey key
	maxKey key
	slab
}

// newRunPage returns the page that holds s, a non-empty slab of sorted
// entries, with its key range.
func newRunPage(s slab) runPage {
	return runPage{minKey: s.ents[0].key(), maxKey: s.ents[len(s.ents)-1].key(), slab: s}
}

// run is a sorted run of Gecko entries stored in flash, together with its
// RAM-resident run directory (the per-page key ranges and physical
// locations). The pages' slabs — taken from the page pool by the flush or
// merge that wrote the run, immutable for as long as the flash image holds
// them — model the flash content of the run's pages; the directory fields
// are what is lost at power failure and recovered by Appendix C.1.
type run struct {
	id        uint64
	level     int
	createSeq uint64
	pages     []runPage
}

// entryCount returns the total number of entries in the run.
func (r *run) entryCount() int {
	n := 0
	for i := range r.pages {
		n += len(r.pages[i].ents)
	}
	return n
}

// packKey encodes a composite (block, sub-key) into 32 bits for storage in a
// spare area: block in the high bits, sub-key+1 in the low 8 bits so that
// WholeBlock (-1) encodes as 0.
func packKey(k key) uint32 {
	return uint32(k.block)<<8 | uint32(k.subKey+1)&0xff
}

// unpackKey reverses packKey.
func unpackKey(v uint32) key {
	return key{block: flash.BlockID(v >> 8), subKey: int16(v&0xff) - 1}
}

// runPageMeta is a run page's spare area as the recovery scan keeps it: the
// two words encodeRunPageSpare packs, the page's write sequence and its
// address, 32 bytes a scanned page. The methods decode the packed fields.
type runPageMeta struct {
	tag, aux uint64
	writeSeq uint64
	ppn      flash.PPN
}

func (m runPageMeta) runID() uint64   { return m.tag >> 32 }
func (m runPageMeta) pageIndex() int  { return int(m.tag >> 16 & 0xffff) }
func (m runPageMeta) totalPages() int { return int(m.tag & 0xffff) }
func (m runPageMeta) minKey() key     { return unpackKey(uint32(m.aux >> 32)) }
func (m runPageMeta) maxKey() key     { return unpackKey(uint32(m.aux)) }

// encodeRunPageSpare packs run-page metadata into a spare area. It carries
// everything Appendix C.1 needs to rebuild run directories from a spare-area
// scan: the run ID, the page's index and the run's total page count (to
// detect partially written runs), and the page's key range. The run's level
// is not stored; recovery derives it from the total page count via
// Config.LevelOfRunPages. The layout uses the two free-form 64-bit fields of
// the simulated spare area:
//
//	Tag = runID (32 bits) | pageIndex (16 bits) | totalPages (16 bits)
//	Aux = packed minKey (32 bits) | packed maxKey (32 bits)
func encodeRunPageSpare(runID uint64, pageIndex, totalPages int, minKey, maxKey key) flash.SpareArea {
	return flash.SpareArea{
		Logical:   flash.InvalidLPN,
		BlockType: flash.BlockGecko,
		Tag:       (runID&0xffffffff)<<32 | uint64(pageIndex&0xffff)<<16 | uint64(totalPages&0xffff),
		Aux:       uint64(packKey(minKey))<<32 | uint64(packKey(maxKey)),
	}
}

// decodeRunPageSpare keeps what encodeRunPageSpare packed, for the methods
// of runPageMeta to unpack.
func decodeRunPageSpare(spare flash.SpareArea, ppn flash.PPN) runPageMeta {
	return runPageMeta{tag: spare.Tag, aux: spare.Aux, writeSeq: spare.WriteSeq, ppn: ppn}
}

// pagesFor returns the index range [lo, hi) of the pages of r whose key range
// overlaps the block. Run directories let a GC query read one page per run;
// with entry-partitioning a block's sub-entries can straddle a page boundary,
// in which case the query must read both pages.
func (r *run) pagesFor(block flash.BlockID) (lo, hi int) {
	first, next := key{block, WholeBlock}.packed(), key{block + 1, WholeBlock}.packed()
	for lo < len(r.pages) && r.pages[lo].maxKey.packed() < first {
		lo++
	}
	hi = lo
	for hi < len(r.pages) && r.pages[hi].minKey.packed() < next {
		hi++
	}
	return lo, hi
}

// query folds the chunks a single run page holds for the block into result,
// and reports whether one of the block's entries carries the erase flag.
func (p *runPage) query(z sizes, block flash.BlockID, result *bitmap.Bitmap) (erased bool) {
	i := sort.Search(len(p.ents), func(i int) bool { return p.ents[i].block >= block })
	for ; i < len(p.ents) && p.ents[i].block == block; i++ {
		erased = erased || p.ents[i].erase
		z.fold(result, p.ents[i].subKey, p.bits(i))
	}
	return erased
}

// ramBytes returns the integrated-RAM footprint of the run's directory: one
// (key range, physical address) record per page, 2*4 bytes of key bounds plus
// 8 bytes of address, matching the Appendix B accounting of two I4 integers
// per directory entry (the paper charges 8 bytes; we charge the full 16 to be
// conservative about the packed key bounds).
func (r *run) ramBytes() int64 {
	return int64(len(r.pages)) * 16
}

func (r *run) String() string {
	return fmt.Sprintf("run(id=%d level=%d pages=%d entries=%d)", r.id, r.level, len(r.pages), r.entryCount())
}
