package gecko

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// The merge this package had before entries moved into slabs, kept as the
// oracle for mergeEntryStreams: entries are pointers to heap bitmaps, the
// inputs are concatenated, and every key's colliding entries are collected,
// sorted by recency and cloned.

type oracleEntry struct {
	Block     flash.BlockID
	SubKey    int16
	Bits      *bitmap.Bitmap
	EraseFlag bool
}

func (e oracleEntry) key() key { return key{e.Block, e.SubKey} }

func (e oracleEntry) Clone() oracleEntry {
	out := e
	if e.Bits != nil {
		out.Bits = e.Bits.Clone()
	}
	return out
}

type oracleRun struct {
	createSeq uint64
	pages     [][]oracleEntry
}

func oracleMergeCollision(newer, older oracleEntry) oracleEntry {
	if newer.EraseFlag {
		return newer.Clone()
	}
	out := newer.Clone()
	if older.Bits != nil {
		if out.Bits == nil {
			out.Bits = older.Bits.Clone()
		} else {
			out.Bits.Or(older.Bits)
		}
	}
	out.EraseFlag = older.EraseFlag
	return out
}

func oracleMergeEntryStreams(inputs []*oracleRun) []oracleEntry {
	ordered := append([]*oracleRun(nil), inputs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].createSeq > ordered[j].createSeq })

	type cursor struct {
		entries []oracleEntry
		pos     int
		recency int // 0 = newest
	}
	cursors := make([]*cursor, 0, len(ordered))
	for rank, r := range ordered {
		var all []oracleEntry
		for i := range r.pages {
			all = append(all, r.pages[i]...)
		}
		if len(all) > 0 {
			cursors = append(cursors, &cursor{entries: all, recency: rank})
		}
	}

	var out []oracleEntry
	eraseCut := make(map[flash.BlockID]int)
	for {
		best := -1
		var bestKey key
		for i, c := range cursors {
			if c.pos >= len(c.entries) {
				continue
			}
			k := c.entries[c.pos].key()
			if best < 0 || k.less(bestKey) {
				best = i
				bestKey = k
			}
		}
		if best < 0 {
			break
		}
		var colliding []*cursor
		for _, c := range cursors {
			if c.pos < len(c.entries) && c.entries[c.pos].key() == bestKey {
				colliding = append(colliding, c)
			}
		}
		sort.Slice(colliding, func(i, j int) bool { return colliding[i].recency < colliding[j].recency })

		cut, hasCut := eraseCut[bestKey.block]
		var result *oracleEntry
		for _, c := range colliding {
			e := c.entries[c.pos]
			c.pos++
			if hasCut && c.recency > cut {
				continue
			}
			if e.EraseFlag && e.SubKey == WholeBlock {
				if !hasCut || c.recency < cut {
					cut, hasCut = c.recency, true
					eraseCut[bestKey.block] = cut
				}
			}
			if result == nil {
				cloned := e.Clone()
				result = &cloned
				continue
			}
			merged := oracleMergeCollision(*result, e)
			result = &merged
		}
		if result != nil {
			out = append(out, *result)
		}
	}
	return out
}

// randomRunPair builds one random sorted run in both representations: a
// subset of the (block, sub-key) space with whole-block erase entries mixed
// in (alone, or followed by chunks recorded after the erase, as the buffer
// produces them), split into pages of v entries so that a block's
// sub-entries straddle page boundaries.
func randomRunPair(rng *rand.Rand, cfg Config, blocks, v int, seq uint64) (*oracleRun, *run) {
	bits, wpe := cfg.BitsPerEntry(), cfg.wordsPerEntry()
	var old []oracleEntry
	s := newSlab(0, wpe)
	density := 1 + rng.Intn(4)
	for b := 0; b < blocks; b++ {
		if rng.Intn(5) == 0 {
			old = append(old, oracleEntry{Block: flash.BlockID(b), SubKey: WholeBlock, EraseFlag: true})
			s.push(entry{block: flash.BlockID(b), subKey: WholeBlock, erase: true}, make([]uint64, wpe))
		}
		for sub := int16(0); int(sub) < cfg.PartitionFactor; sub++ {
			if rng.Intn(4) >= density {
				continue
			}
			bm := bitmap.New(bits)
			for range 1 + rng.Intn(bits) {
				bm.Set(rng.Intn(bits))
			}
			// The buffer never flags a chunk, but Algorithm 3's collision rule
			// is defined for it, so both merges must agree there too.
			flagged := rng.Intn(16) == 0
			old = append(old, oracleEntry{Block: flash.BlockID(b), SubKey: sub, Bits: bm, EraseFlag: flagged})
			s.push(entry{block: flash.BlockID(b), subKey: sub, erase: flagged}, wordsOf(bm))
		}
	}
	or := &oracleRun{createSeq: seq}
	for start := 0; start < len(old); start += v {
		or.pages = append(or.pages, old[start:min(start+v, len(old))])
	}
	return or, &run{createSeq: seq, pages: splitIntoPages(nil, s, v)}
}

// TestMergeMatchesPointerEntryMerge runs the streaming slab merge and the
// old pointer-entry merge on the same seeded random run sets: two-way and
// multi-way, partition factors 1, 2 and 4 (one and several words per
// entry), erase entries at every recency, empty inputs, inputs passed in
// any recency order. From each configuration's second merge on the output
// goes into recycled pages, scribbled over to their full capacity
// (steadyMerge).
func TestMergeMatchesPointerEntryMerge(t *testing.T) {
	for _, s := range []int{1, 2, 4} {
		for _, ways := range []int{2, 3, 5} {
			cfg := Config{Blocks: 24, PagesPerBlock: 256, PageSize: 4096, SizeRatio: 2, PartitionFactor: s}
			merge := steadyMerge(t, cfg)
			for seed := int64(1); seed <= 40; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(10*s+ways)))
				v := 2 + rng.Intn(5) // small pages: sub-entries straddle them
				var olds []*oracleRun
				var news []*run
				for _, seq := range rng.Perm(ways) {
					blocks := cfg.Blocks
					if rng.Intn(6) == 0 {
						blocks = 0 // an empty input
					}
					o, n := randomRunPair(rng, cfg, blocks, v, uint64(seq+1))
					olds, news = append(olds, o), append(news, n)
				}
				want := oracleMergeEntryStreams(olds)
				got := merge(news)

				name := fmt.Sprintf("S=%d ways=%d seed=%d", s, ways, seed)
				if len(got.ents) != len(want) {
					t.Fatalf("%s: merged %d entries, oracle %d", name, len(got.ents), len(want))
				}
				for i, w := range want {
					g := got.ents[i]
					if g.block != w.Block || g.subKey != w.SubKey || g.erase != w.EraseFlag {
						t.Fatalf("%s entry %d: got %+v, oracle %+v", name, i, g, w)
					}
					wantBits := bitmap.New(cfg.BitsPerEntry())
					if w.Bits != nil {
						wantBits = w.Bits
					}
					if !reflect.DeepEqual(fromWords(cfg.BitsPerEntry(), got.bits(i)), wantBits) {
						t.Fatalf("%s entry %d (%+v): bits differ from the oracle's", name, i, g)
					}
				}
				// The inputs are flash-resident: the merge must not have
				// written to them.
				for r, n := range news {
					o := olds[r]
					for p := range n.pages {
						for i := range n.pages[p].ents {
							if w := o.pages[p][i]; w.Bits != nil && !reflect.DeepEqual(fromWords(cfg.BitsPerEntry(), n.pages[p].bits(i)), w.Bits) {
								t.Fatalf("%s: merge modified input run %d page %d entry %d", name, r, p, i)
							}
						}
					}
				}
			}
		}
	}
}

// checkAgainstOracle requires the slab merge of news to equal the oracle's
// merge of olds, entry for entry and bit for bit.
func checkAgainstOracle(t *testing.T, name string, cfg Config, got slab, olds []*oracleRun) {
	t.Helper()
	want := oracleMergeEntryStreams(olds)
	if len(got.ents) != len(want) {
		t.Fatalf("%s: merged %d entries, oracle %d", name, len(got.ents), len(want))
	}
	for i, w := range want {
		g := got.ents[i]
		if g.block != w.Block || g.subKey != w.SubKey || g.erase != w.EraseFlag {
			t.Fatalf("%s entry %d: got %+v, oracle %+v", name, i, g, w)
		}
		wantBits := bitmap.New(cfg.BitsPerEntry())
		if w.Bits != nil {
			wantBits = w.Bits
		}
		if !reflect.DeepEqual(fromWords(cfg.BitsPerEntry(), got.bits(i)), wantBits) {
			t.Fatalf("%s entry %d (%+v): bits differ from the oracle's", name, i, g)
		}
	}
}

// TestMergeMatchesOracleOnPerfbenchKeys runs the merge on the perfbench
// device's key space — 4096 blocks of 64 pages, the recommended S = 2, one
// word an entry, full-size pages — two-way, the merge every flush of that
// device makes, and three-way, one step of the fold beyond it.
func TestMergeMatchesOracleOnPerfbenchKeys(t *testing.T) {
	cfg := DefaultConfig(4096, 64, 4096)
	if cfg.PartitionFactor != 2 || cfg.wordsPerEntry() != 1 {
		t.Fatalf("%v: want S = 2 and one word an entry", cfg)
	}
	merge := steadyMerge(t, cfg)
	for _, ways := range []int{2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(ways)))
			var olds []*oracleRun
			var news []*run
			for _, seq := range rng.Perm(ways) {
				o, n := randomRunPair(rng, cfg, cfg.Blocks, cfg.EntriesPerPage(), uint64(seq+1))
				olds, news = append(olds, o), append(news, n)
			}
			checkAgainstOracle(t, fmt.Sprintf("ways=%d seed=%d", ways, seed), cfg, merge(news), olds)
		}
	}
}

// TestMergeMiddleRunErase is the three-way case a wrong fold gets wrong: only
// the middle run erases block 5. The newest run's chunk of the block
// survives, OR-merged with the middle run's, which postdates the erase; the
// oldest run's chunks of the block are dropped, and its chunk of block 6,
// which nothing erased, is kept.
func TestMergeMiddleRunErase(t *testing.T) {
	cfg := Config{Blocks: 8, PagesPerBlock: 64, PageSize: 4096, SizeRatio: 2, PartitionFactor: 2}
	type ent struct {
		block  flash.BlockID
		subKey int16
		erase  bool
		bits   uint64
	}
	build := func(seq uint64, ents ...ent) *run {
		s := newSlab(0, cfg.wordsPerEntry())
		for _, e := range ents {
			s.push(entry{block: e.block, subKey: e.subKey, erase: e.erase}, []uint64{e.bits})
		}
		return &run{createSeq: seq, pages: splitIntoPages(nil, s, 2)}
	}
	newest := build(3, ent{5, 0, false, 1 << 1})
	middle := build(2, ent{5, WholeBlock, true, 0}, ent{5, 0, false, 1 << 2}, ent{5, 1, false, 1 << 3})
	oldest := build(1, ent{4, 1, false, 1 << 9}, ent{5, 0, false, 1 << 4}, ent{5, 1, false, 1 << 5}, ent{6, 0, false, 1 << 6})
	want := []ent{
		{4, 1, false, 1 << 9},
		{5, WholeBlock, true, 0},
		{5, 0, false, 1<<1 | 1<<2},
		{5, 1, false, 1 << 3},
		{6, 0, false, 1 << 6},
	}
	for _, order := range [][]*run{{newest, middle, oldest}, {oldest, newest, middle}, {middle, oldest, newest}} {
		got := steadyMerge(t, cfg)(order)
		if len(got.ents) != len(want) {
			t.Fatalf("merged %v %x, want %v", got.ents, got.words, want)
		}
		for i, w := range want {
			if e := got.ents[i]; e != (entry{block: w.block, subKey: w.subKey, erase: w.erase}) || got.words[i] != w.bits {
				t.Fatalf("entry %d: got %+v %#x, want %+v", i, e, got.words[i], w)
			}
		}
	}
}

// fromWords is the bitmap of the first n bits of words.
func fromWords(n int, words []uint64) *bitmap.Bitmap {
	b := bitmap.New(n)
	b.OrWords(0, words, n)
	return b
}

// wordsOf packs b's bits into words, bit i in bit i%64 of word i/64.
func wordsOf(b *bitmap.Bitmap) []uint64 {
	words := make([]uint64, (b.Len()+63)/64)
	for _, i := range setBits(b) {
		words[i/64] |= 1 << uint(i%64)
	}
	return words
}
