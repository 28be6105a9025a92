package gecko

import "geckoftl/internal/flash"

// WholeBlock is the sub-key of an entry whose erase flag covers the entire
// block, regardless of partitioning. Erase entries always use it so that one
// buffer insertion suffices to obsolete all older metadata for the block
// (Section 3, "Erase Flag"). It sorts before every real sub-key.
const WholeBlock = -1

// entry is the fixed part of a Gecko entry (Figure 3 of the paper): a block
// ID key, the sub-key identifying which chunk of the block's bitmap the
// entry carries under entry-partitioning (Section 3.3; WholeBlock for erase
// entries), and the erase flag. The validity bits — one per page of the
// chunk, set meaning invalid — live beside it in the owning slab. It is held
// at the paper's widths: a 4-byte block, a 2-byte sub-key and the flag, 8
// bytes with padding, which is what a slab spends per entry besides the bits.
// The fields are key's, spelt out: embedding key would pad it to 12.
type entry struct {
	block  flash.BlockID
	subKey int16
	// erase records that the block was erased after every older entry for
	// the block was created; GC queries stop when they meet it and merges
	// discard older colliding entries (Algorithms 2 and 3).
	erase bool
}

// key returns the entry's sort key.
func (e entry) key() key { return key{e.block, e.subKey} }

// key is the composite sort key of an entry within a run. Config.Validate
// keeps the sub-key below the partition factor's bound of 255, which an
// int16 holds with WholeBlock.
type key struct {
	block  flash.BlockID
	subKey int16
}

// packed returns the key as one integer in key order, by block, then
// sub-key: the block above the sub-key plus one, so that WholeBlock packs to
// zero and an erase entry precedes the block's chunks.
func (a key) packed() uint64 {
	return uint64(uint32(a.block))<<32 | uint64(uint32(a.subKey+1))
}

// slab stores entries by value: the fixed parts in ents and entry i's
// validity bits in words[i*wpe:(i+1)*wpe], 8 bytes of entry and 8*wpe of
// words a slot. The buffer is one slab of V slots, and so is every run page.
// Erase entries keep their words zero.
type slab struct {
	ents  []entry
	words []uint64
	wpe   int // words per entry
}

func newSlab(capacity, wpe int) slab {
	return slab{ents: make([]entry, 0, capacity), words: make([]uint64, 0, capacity*wpe), wpe: wpe}
}

// bits returns the validity words of entry i.
func (s *slab) bits(i int) []uint64 { return s.words[i*s.wpe : (i+1)*s.wpe] }

// push appends an entry and its bits, word by word.
func (s *slab) push(e entry, bits []uint64) {
	s.ents = append(s.ents, e)
	for _, w := range bits {
		s.words = append(s.words, w)
	}
}

// pagePool holds the page slabs, V slots each, that neither a run nor the
// flash image refers to: writeRun puts the pages of the runs a new run
// supersedes, and flushes and merges take their output pages from it. New
// fills it with three times the largest run's pages: live runs hold about
// two of those at most (Appendix B), and a merge writes one more while its
// inputs are live, so in steady state nothing is allocated; it keeps that
// many at most. A crash keeps one largest run's worth (keep): the pages of
// the runs recovery rebuilds come back to it when they are superseded,
// since each page of the flash image is a page slab of its own. It is the
// simulator's bookkeeping, not part of Gecko.RAMBytes.
type pagePool struct {
	pages      []slab
	v, wpe     int // slots and words per slot of a page
	most, keep int
}

func newPagePool(cfg Config) pagePool {
	z := cfg.sizes()
	p := pagePool{v: z.perPage, wpe: z.wpe, most: 3 * cfg.LargestRunPages(), keep: cfg.LargestRunPages()}
	p.pages = make([]slab, p.most)
	for i := range p.pages {
		p.pages[i] = newSlab(p.v, p.wpe)
	}
	return p
}

// take returns an empty page, dirty beyond its length: a pooled one, or a
// new one when the pool is empty.
func (p *pagePool) take() slab {
	last := len(p.pages) - 1
	if last < 0 {
		return newSlab(p.v, p.wpe)
	}
	s := p.pages[last]
	p.pages[last] = slab{}
	p.pages = p.pages[:last]
	return s
}

// put hands the pool a page that nothing refers to any more; it is dropped
// when the pool is full.
func (p *pagePool) put(s slab) {
	if len(p.pages) < p.most {
		p.pages = append(p.pages, slab{ents: s.ents[:0], words: s.words[:0], wpe: s.wpe})
	}
}

// putPages puts the slab of every page.
func (p *pagePool) putPages(pages []runPage) {
	for i := range pages {
		p.put(pages[i].slab)
	}
}

// crash drops the pages past keep.
func (p *pagePool) crash() {
	if len(p.pages) > p.keep {
		clear(p.pages[p.keep:])
		p.pages = p.pages[:p.keep]
	}
}
