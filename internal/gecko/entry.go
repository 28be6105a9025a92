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
// words a slot. The buffer is one slab of V slots; every run is one slab, of
// which each of its pages is a sub-slab. Erase entries keep their words zero.
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

// push appends an entry and its bits, word by word.
func (s *slab) push(e entry, bits []uint64) {
	s.ents = append(s.ents, e)
	for _, w := range bits {
		s.words = append(s.words, w)
	}
}

// slabList is the free list of run slabs: writeRun puts the slabs of the runs
// a new run supersedes, and flushes and merges take their output from it, so
// that in steady state neither allocates. Capacities come in classes — a
// page's entries times a power of two, up to most — so that a slab freed by
// one merge fits the next of its level exactly, and the list keeps two of a
// class at most: what a level holds before it is merged. It is the
// simulator's bookkeeping, not part of Gecko.RAMBytes.
type slabList struct {
	slabs []slab
	// unit is the smallest capacity, V, and most the largest, every key
	// there is: no run holds more.
	unit, most int
}

func newSlabList(cfg Config) slabList {
	return slabList{unit: cfg.EntriesPerPage(), most: cfg.distinctKeys()}
}

// class returns the capacity a slab for n entries gets.
func (l *slabList) class(n int) int {
	c := l.unit
	for c < n {
		c *= 2
	}
	return min(c, l.most)
}

// take returns an empty slab with room for n entries, at most l.most: a free
// one of n's class, dirty beyond its length, or a new one.
func (l *slabList) take(n, wpe int) slab {
	c := l.class(n)
	for i, s := range l.slabs {
		if cap(s.ents) == c {
			last := len(l.slabs) - 1
			l.slabs[i], l.slabs[last] = l.slabs[last], slab{}
			l.slabs = l.slabs[:last]
			return slab{ents: s.ents[:0], words: s.words[:0], wpe: wpe}
		}
	}
	return newSlab(c, wpe)
}

// put hands the list a slab that nothing refers to any more; it is dropped
// when the list has two of its class. A run that owns no slab passes the zero
// slab.
func (l *slabList) put(s slab) {
	if cap(s.ents) == 0 {
		return
	}
	same := 0
	for i := range l.slabs {
		if cap(l.slabs[i].ents) == cap(s.ents) {
			same++
		}
	}
	if same < 2 {
		l.slabs = append(l.slabs, s)
	}
}
