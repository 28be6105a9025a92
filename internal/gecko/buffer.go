package gecko

import (
	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// buffer is the RAM-resident buffer of Logarithmic Gecko. Its capacity is one
// flash page: V entries. Updates are absorbed here and flushed to a level-0
// run when V distinct (block, sub-key) entries have accumulated.
//
// The entries live by value in one slab of V slots allocated at construction
// and reused across flushes. Keys are dense — K blocks times the S sub-keys
// and WholeBlock — so a key is found by direct address: index, at the key's
// position, holds its slot plus one, and present has the position's bit set.
// Positions ascend in key order, so the ascending walk over present's set
// bits is the order of the level-0 run a flush writes. Both arrays are the
// simulator's bookkeeping: the RAM the paper charges the buffer
// (Gecko.RAMBytes) is its one flash page.
type buffer struct {
	cfg Config
	sz  sizes
	slab
	// index[pos(k)] is one more than the slot of the entry with key k, zero
	// when the buffer holds none.
	index   []int32
	present []uint64
	// inserts counts insertions (including ones absorbed by an existing
	// entry) since the last flush; it implements the optional BufferLimit
	// bound of Appendix C.2.
	inserts int
}

func newBuffer(cfg Config) *buffer {
	sz := cfg.sizes()
	positions := cfg.distinctKeys()
	return &buffer{
		cfg:     cfg,
		sz:      sz,
		slab:    newSlab(sz.perPage, sz.wpe),
		index:   make([]int32, positions),
		present: make([]uint64, (positions+63)/64),
	}
}

// pos is the key's place in index and present: a block's S+1 keys are
// adjacent, WholeBlock (-1) first, which is where it sorts.
func (b *buffer) pos(k key) int {
	return int(k.block)*(b.cfg.PartitionFactor+1) + int(k.subKey) + 1
}

// find returns the slot of the entry with the given key.
func (b *buffer) find(k key) (slot int, ok bool) {
	slot = int(b.index[b.pos(k)]) - 1
	return slot, slot >= 0
}

// setSlot records that the entry with the given key lives in slot i.
func (b *buffer) setSlot(k key, i int) {
	p := b.pos(k)
	b.index[p] = int32(i + 1)
	b.present[p/64] |= 1 << uint(p%64)
}

// forget drops the key from the index.
func (b *buffer) forget(k key) {
	p := b.pos(k)
	b.index[p] = 0
	b.present[p/64] &^= 1 << uint(p%64)
}

// len returns the number of distinct entries currently buffered.
func (b *buffer) len() int { return len(b.ents) }

// full reports whether the buffer must be flushed: either V distinct entries
// exist (one flash page worth) or the configured absorption limit is hit.
func (b *buffer) full() bool {
	if len(b.ents) >= b.sz.perPage {
		return true
	}
	return b.cfg.BufferLimit > 0 && b.inserts >= b.cfg.BufferLimit
}

// insert adds a new entry with no bits set in the next slot.
func (b *buffer) insert(e entry) int {
	b.setSlot(e.key(), len(b.ents))
	b.ents = append(b.ents, e)
	for range b.wpe {
		b.words = append(b.words, 0)
	}
	return len(b.ents) - 1
}

// remove frees slot i by moving the last entry into it.
func (b *buffer) remove(i int) {
	last := len(b.ents) - 1
	b.forget(b.ents[i].key())
	if i != last {
		b.ents[i] = b.ents[last]
		copy(b.bits(i), b.bits(last))
		b.setSlot(b.ents[i].key(), i)
	}
	b.ents = b.ents[:last]
	b.words = b.words[:last*b.wpe]
}

// recordInvalid implements Algorithm 1: mark one page of a block invalid.
func (b *buffer) recordInvalid(block flash.BlockID, pageOffset int) {
	b.inserts++
	k, chunkOffset := key{block, int16(pageOffset / b.sz.bits)}, pageOffset%b.sz.bits
	i, ok := b.find(k)
	if !ok {
		i = b.insert(entry{block: k.block, subKey: k.subKey})
	}
	b.bits(i)[chunkOffset/64] |= 1 << uint(chunkOffset%64)
}

// recordErase implements Algorithm 2: note that a block was erased. All
// buffered invalidations for the block predate the erase and are dropped, and
// a whole-block erase entry is inserted so that older flash-resident entries
// are ignored by subsequent GC queries and discarded by merges.
func (b *buffer) recordErase(block flash.BlockID) {
	b.inserts++
	for sub := int16(0); int(sub) < b.cfg.PartitionFactor; sub++ {
		if i, ok := b.find(key{block, sub}); ok {
			b.remove(i)
		}
	}
	if k := (key{block, WholeBlock}); !b.has(k) {
		b.insert(entry{block: block, subKey: WholeBlock, erase: true})
	}
}

func (b *buffer) has(k key) bool {
	_, ok := b.find(k)
	return ok
}

// query folds the buffered chunks of a block into result and reports whether
// the buffer holds an erase entry for it (in which case the GC query stops at
// the buffer).
func (b *buffer) query(block flash.BlockID, result *bitmap.Bitmap) (erased bool) {
	for sub := int16(0); int(sub) < b.cfg.PartitionFactor; sub++ {
		if i, ok := b.find(key{block, sub}); ok {
			b.sz.fold(result, sub, b.bits(i))
		}
	}
	return b.has(key{block, WholeBlock})
}

// drain empties the buffer into out, an empty page, in key order: one walk
// over present pushes each slot and zeroes its index. It resets the
// absorption counter; out is the one page of a new level-0 run.
func (b *buffer) drain(out slab) slab {
	for p := range bitmap.Ones(b.present, 0, len(b.index)) {
		i := int(b.index[p]) - 1
		out.push(b.ents[i], b.bits(i))
		b.index[p] = 0
	}
	clear(b.present)
	b.ents, b.words, b.inserts = b.ents[:0], b.words[:0], 0
	return out
}

// clear drops the buffer contents; power failure does this.
func (b *buffer) clear() {
	// Only the occupied positions: the index spans every key of the device.
	for i := range b.ents {
		b.forget(b.ents[i].key())
	}
	b.ents, b.words, b.inserts = b.ents[:0], b.words[:0], 0
}
