package gecko

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"geckoftl/internal/flash"
)

// compare orders keys by block, then sub-key, as a three-way comparison: the
// order the buffer used to sort itself into.
func (a key) compare(b key) int {
	return cmp.Or(cmp.Compare(a.block, b.block), cmp.Compare(a.subKey, b.subKey))
}

// less is compare as a predicate, for the oracle merge.
func (a key) less(b key) bool { return a.compare(b) < 0 }

// sortedDrain is the drain this package had while the buffer found its
// flush order by sorting: the occupied slots ordered with key.compare, pushed
// into a fresh slab. It is the reference for buffer.drain.
func sortedDrain(b *buffer) slab {
	order := make([]int, len(b.ents))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int { return b.ents[x].key().compare(b.ents[y].key()) })
	out := newSlab(len(b.ents), b.wpe)
	for _, i := range order {
		out.push(b.ents[i], b.bits(i))
	}
	return out
}

// TestBufferDrainIsKeyOrdered interleaves invalid-page and erase reports over
// the first and the last block of the key space (and a few between), hitting
// every sub-key and the whole-block erase key, and requires the drained
// level-0 run to equal the buffered entries sorted by key — fixed part and
// validity words alike — and the buffer to come back empty and reusable.
func TestBufferDrainIsKeyOrdered(t *testing.T) {
	const blocks, pagesPerBlock = 37, 64
	for _, partition := range []int{1, 2, 4, 64} {
		cfg := DefaultConfig(blocks, pagesPerBlock, 4096)
		cfg.PartitionFactor = partition
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		b := newBuffer(cfg)
		drain := steadyDrain(b) // from the second round on, into a dirty slab
		rng := rand.New(rand.NewSource(int64(partition)))
		pick := func() flash.BlockID {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return blocks - 1
			default:
				return flash.BlockID(rng.Intn(blocks))
			}
		}
		for round := 0; round < 20; round++ {
			// Every sub-key of the two edge blocks, then a random mix in which
			// erases drop chunks (swap-with-last removal) and re-reports
			// bring them back in other slots.
			for offset := 0; offset < pagesPerBlock; offset++ {
				b.recordInvalid(0, offset)
				b.recordInvalid(blocks-1, pagesPerBlock-1-offset)
			}
			for range 300 {
				if rng.Intn(5) == 0 {
					b.recordErase(pick())
				} else {
					b.recordInvalid(pick(), rng.Intn(pagesPerBlock))
				}
			}
			if round%2 == 0 {
				b.recordErase(0)
				b.recordErase(blocks - 1)
				b.recordInvalid(blocks-1, 0)
			}
			want := sortedDrain(b)
			got := drain()
			if !slices.Equal(got.ents, want.ents) || !slices.Equal(got.words, want.words) {
				t.Fatalf("S=%d round %d: drained\n%v %x\nsorted reference\n%v %x", partition, round, got.ents, got.words, want.ents, want.words)
			}
			if !slices.IsSortedFunc(got.ents, func(x, y entry) int { return x.key().compare(y.key()) }) {
				t.Fatalf("S=%d round %d: drained run is not in key order: %v", partition, round, got.ents)
			}
			if b.len() != 0 || b.inserts != 0 {
				t.Fatalf("S=%d round %d: buffer holds %d entries, %d inserts after drain", partition, round, b.len(), b.inserts)
			}
			for block := flash.BlockID(0); block < blocks; block++ {
				if b.has(key{block, WholeBlock}) || b.has(key{block, 0}) || b.has(key{block, int16(partition - 1)}) {
					t.Fatalf("S=%d round %d: drained buffer still indexes block %d", partition, round, block)
				}
			}
		}
	}
}

// TestBufferDrainSorted drives random invalid-page and erase reports at
// S = 1, 2 and 4 and requires each drain to equal the buffered entries sorted
// by key, and to leave the buffer empty: no entry, no word, no absorbed
// insert, and its whole index and presence bitset zero.
func TestBufferDrainSorted(t *testing.T) {
	const blocks, pagesPerBlock = 200, 64
	for _, partition := range []int{1, 2, 4} {
		cfg := DefaultConfig(blocks, pagesPerBlock, 4096)
		cfg.PartitionFactor = partition
		b := newBuffer(cfg)
		drain := steadyDrain(b)
		rng := rand.New(rand.NewSource(int64(partition)))
		for round := 0; round < 30; round++ {
			for !b.full() {
				block := flash.BlockID(rng.Intn(blocks))
				if rng.Intn(8) == 0 {
					b.recordErase(block)
				} else {
					b.recordInvalid(block, rng.Intn(pagesPerBlock))
				}
			}
			want := sortedDrain(b)
			got := drain()
			if !slices.Equal(got.ents, want.ents) || !slices.Equal(got.words, want.words) {
				t.Fatalf("S=%d round %d: drained\n%v %x\nsorted reference\n%v %x", partition, round, got.ents, got.words, want.ents, want.words)
			}
			if b.len() != 0 || len(b.words) != 0 || b.inserts != 0 {
				t.Fatalf("S=%d round %d: buffer holds %d entries, %d words, %d inserts after drain", partition, round, b.len(), len(b.words), b.inserts)
			}
			if i := slices.IndexFunc(b.index, func(v int32) bool { return v != 0 }); i >= 0 {
				t.Fatalf("S=%d round %d: index[%d] = %d after drain", partition, round, i, b.index[i])
			}
			if i := slices.IndexFunc(b.present, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("S=%d round %d: present[%d] = %#x after drain", partition, round, i, b.present[i])
			}
		}
	}
}
