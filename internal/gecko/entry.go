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
// chunk, set meaning invalid — live beside it in the owning slab.
type entry struct {
	key
	// erase records that the block was erased after every older entry for
	// the block was created; GC queries stop when they meet it and merges
	// discard older colliding entries (Algorithms 2 and 3).
	erase bool
}

// key is the composite sort key of an entry within a run.
type key struct {
	block  flash.BlockID
	subKey int
}

// less orders keys by block, then sub-key; WholeBlock (-1) naturally sorts
// before every real sub-key, so an erase entry precedes the block's chunks.
func (a key) less(b key) bool {
	if a.block != b.block {
		return a.block < b.block
	}
	return a.subKey < b.subKey
}

// slab stores entries by value: the fixed parts in ents and entry i's
// validity bits in words[i*wpe:(i+1)*wpe]. The buffer is one slab of V
// slots; every run is one slab, of which each of its pages is a sub-slab.
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

// slice returns the sub-slab of entries [lo, hi); it shares storage with s.
func (s *slab) slice(lo, hi int) slab {
	return slab{ents: s.ents[lo:hi:hi], words: s.words[lo*s.wpe : hi*s.wpe : hi*s.wpe], wpe: s.wpe}
}

// push appends an entry and its bits and returns its index.
func (s *slab) push(e entry, bits []uint64) int {
	s.ents = append(s.ents, e)
	s.words = append(s.words, bits...)
	return len(s.ents) - 1
}
