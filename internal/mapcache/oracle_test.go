package mapcache

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geckoftl/internal/flash"
)

// listCache is the cache this package had before the node slab, kept as the
// oracle for it: container/list for the LRU queue with one heap element per
// entry or checkpoint symbol, and a two-level map from translation page to
// its cached logical pages.
type listCache struct {
	capacity           int
	order              *list.List // front = most recently used
	byLPN              map[flash.LPN]*list.Element
	byTP               map[int]map[flash.LPN]struct{}
	entriesPerTP       int
	opsSinceCheckpoint int
}

type element struct {
	entry      Entry
	checkpoint bool
}

func newListCache(capacity, entriesPerTranslationPage int) *listCache {
	return &listCache{
		capacity:     capacity,
		order:        list.New(),
		byLPN:        make(map[flash.LPN]*list.Element),
		byTP:         make(map[int]map[flash.LPN]struct{}),
		entriesPerTP: entriesPerTranslationPage,
	}
}

func (c *listCache) Len() int                { return len(c.byLPN) }
func (c *listCache) OpsSinceCheckpoint() int { return c.opsSinceCheckpoint }
func (c *listCache) TranslationPageOf(lpn flash.LPN) int {
	return int(int64(lpn) / int64(c.entriesPerTP))
}

func (c *listCache) indexAdd(lpn flash.LPN) {
	tp := c.TranslationPageOf(lpn)
	set, ok := c.byTP[tp]
	if !ok {
		set = make(map[flash.LPN]struct{})
		c.byTP[tp] = set
	}
	set[lpn] = struct{}{}
}

func (c *listCache) indexRemove(lpn flash.LPN) {
	tp := c.TranslationPageOf(lpn)
	if set, ok := c.byTP[tp]; ok {
		delete(set, lpn)
		if len(set) == 0 {
			delete(c.byTP, tp)
		}
	}
}

func (c *listCache) Lookup(lpn flash.LPN) (Entry, bool) {
	el, ok := c.byLPN[lpn]
	if !ok {
		return Entry{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*element).entry, true
}

func (c *listCache) Peek(lpn flash.LPN) (Entry, bool) {
	el, ok := c.byLPN[lpn]
	if !ok {
		return Entry{}, false
	}
	return el.Value.(*element).entry, true
}

func (c *listCache) Put(e Entry) Evicted {
	c.opsSinceCheckpoint++
	if el, ok := c.byLPN[e.Logical]; ok {
		el.Value.(*element).entry = e
		c.order.MoveToFront(el)
		return Evicted{}
	}
	evicted := c.makeRoom()
	el := c.order.PushFront(&element{entry: e})
	c.byLPN[e.Logical] = el
	c.indexAdd(e.Logical)
	return evicted
}

func (c *listCache) makeRoom() Evicted {
	if len(c.byLPN) < c.capacity {
		return Evicted{}
	}
	for el := c.order.Back(); el != nil; {
		prev := el.Prev()
		node := el.Value.(*element)
		if node.checkpoint {
			c.order.Remove(el)
			el = prev
			continue
		}
		c.order.Remove(el)
		delete(c.byLPN, node.entry.Logical)
		c.indexRemove(node.entry.Logical)
		return Evicted{Entry: node.entry, Valid: true}
	}
	return Evicted{}
}

func (c *listCache) Update(lpn flash.LPN, fn func(*Entry)) bool {
	el, ok := c.byLPN[lpn]
	if !ok {
		return false
	}
	fn(&el.Value.(*element).entry)
	return true
}

func (c *listCache) entriesOnPage(tp int) []Entry {
	var out []Entry
	for lpn := range c.byTP[tp] {
		if el, ok := c.byLPN[lpn]; ok {
			out = append(out, el.Value.(*element).entry)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Logical < out[j].Logical })
	return out
}

// AppendDirtyOnTranslationPage appends the logical pages of tp's dirty
// entries, from the sorted per-page index, to dst.
func (c *listCache) AppendDirtyOnTranslationPage(dst []flash.LPN, tp int) []flash.LPN {
	for _, e := range c.entriesOnPage(tp) {
		if e.Dirty {
			dst = append(dst, e.Logical)
		}
	}
	return dst
}

// pagesOf returns the distinct translation pages of entries, ascending.
func (c *listCache) pagesOf(entries []Entry) []int {
	var tps []int
	for _, e := range entries {
		tps = append(tps, c.TranslationPageOf(e.Logical))
	}
	slices.Sort(tps)
	return slices.Compact(tps)
}

func (c *listCache) DirtyCount() int {
	n := 0
	for _, el := range c.byLPN {
		if el.Value.(*element).entry.Dirty {
			n++
		}
	}
	return n
}

func (c *listCache) Entries() []Entry {
	out := make([]Entry, 0, len(c.byLPN))
	for el := c.order.Front(); el != nil; el = el.Next() {
		if node := el.Value.(*element); !node.checkpoint {
			out = append(out, node.entry)
		}
	}
	return out
}

// OldestDirty walks the whole queue from the most recently used end and
// keeps the last dirty entry it sees, as the FTL found its flush victim
// before the slab cache had OldestDirty.
func (c *listCache) OldestDirty() (Entry, bool) {
	var found Entry
	ok := false
	for el := c.order.Front(); el != nil; el = el.Next() {
		if node := el.Value.(*element); !node.checkpoint && node.entry.Dirty {
			found, ok = node.entry, true
		}
	}
	return found, ok
}

func (c *listCache) Checkpoint() []Entry {
	c.opsSinceCheckpoint = 0
	var stale []Entry
	for el := c.order.Back(); el != nil; {
		prev := el.Prev()
		node := el.Value.(*element)
		if node.checkpoint {
			c.order.Remove(el)
			break
		}
		if node.entry.Dirty {
			stale = append(stale, node.entry)
		}
		el = prev
	}
	c.order.PushFront(&element{checkpoint: true})
	return stale
}

func (c *listCache) Clear() {
	c.order.Init()
	c.byLPN = make(map[flash.LPN]*list.Element)
	c.byTP = make(map[int]map[flash.LPN]struct{})
	c.opsSinceCheckpoint = 0
}

// TestSlabCacheMatchesListCache drives the slab cache and the list cache
// with the same seeded random operation sequences — capacities from 1 up,
// logical pages drawn from a range a few times the capacity so that hits,
// evictions, emptied translation pages and stale checkpoint symbols at the
// LRU end all occur — and compares every result and, after every operation,
// the whole observable state.
func TestSlabCacheMatchesListCache(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(24)
		perTP := 1 + rng.Intn(8)
		pages := 1 + rng.Intn(4*capacity)
		got, want := New(capacity, perTP), newListCache(capacity, perTP)
		randomEntry := func() Entry {
			return Entry{
				Logical: flash.LPN(rng.Intn(pages)), Physical: flash.PPN(rng.Intn(1000)),
				Dirty: rng.Intn(2) == 0, UIP: rng.Intn(3) == 0, Uncertain: rng.Intn(5) == 0, Trimmed: rng.Intn(7) == 0,
			}
		}
		for step := 0; step < 3000; step++ {
			lpn := flash.LPN(rng.Intn(pages))
			var op string
			var g, w any
			switch r := rng.Intn(100); {
			case r < 55:
				e := randomEntry()
				op, g, w = fmt.Sprintf("Put(%+v)", e), got.Put(e), want.Put(e)
			case r < 70:
				ge, gok := got.Lookup(lpn)
				we, wok := want.Lookup(lpn)
				op, g, w = fmt.Sprintf("Lookup(%d)", lpn), fmt.Sprint(ge, gok), fmt.Sprint(we, wok)
			case r < 80:
				ge, gok := got.Peek(lpn)
				we, wok := want.Peek(lpn)
				op, g, w = fmt.Sprintf("Peek(%d)", lpn), fmt.Sprint(ge, gok), fmt.Sprint(we, wok)
			case r < 90:
				flip := func(e *Entry) { e.Dirty, e.UIP = !e.Dirty, false }
				op, g, w = fmt.Sprintf("Update(%d)", lpn), got.Update(lpn, flip), want.Update(lpn, flip)
			case r < 98:
				// The slab cache marks the pages of the entries the list
				// cache returns.
				op, g, w = "Checkpoint()", fmt.Sprint(got.checkpointPages()), fmt.Sprint(want.pagesOf(want.Checkpoint()))
			default:
				got.Clear()
				want.Clear()
				op = "Clear()"
			}
			if g != w {
				t.Fatalf("seed %d step %d: %s = %v, list cache %v", seed, step, op, g, w)
			}

			where := fmt.Sprintf("seed %d step %d after %s", seed, step, op)
			if !slices.Equal(got.entries(), want.Entries()) {
				t.Fatalf("%s: Entries() = %v, list cache %v", where, got.entries(), want.Entries())
			}
			var oldest []Entry
			got.ForEachOldest(func(e Entry) { oldest = append(oldest, e) })
			if slices.Reverse(oldest); !slices.Equal(oldest, want.Entries()) {
				t.Fatalf("%s: ForEachOldest reversed = %v, list cache %v", where, oldest, want.Entries())
			}
			if got.Len() != want.Len() || got.DirtyCount() != want.DirtyCount() || got.opsSinceCheckpoint != want.OpsSinceCheckpoint() {
				t.Fatalf("%s: len %d dirty %d ops %d, list cache %d %d %d", where,
					got.Len(), got.DirtyCount(), got.opsSinceCheckpoint,
					want.Len(), want.DirtyCount(), want.OpsSinceCheckpoint())
			}
			// The dirty chain, walked both ways, is the queue's dirty
			// entries in queue order, and DirtyCount is its length.
			var wantDirty []Entry
			for _, e := range want.Entries() {
				if e.Dirty {
					wantDirty = append(wantDirty, e)
				}
			}
			forward, backward := got.dirtyChain()
			if slices.Reverse(backward); !slices.Equal(forward, wantDirty) || !slices.Equal(backward, wantDirty) {
				t.Fatalf("%s: dirty chain %v, reversed backward walk %v, list cache's dirty entries %v", where, forward, backward, wantDirty)
			}
			if len(forward) != got.DirtyCount() {
				t.Fatalf("%s: dirty chain holds %d entries, DirtyCount %d", where, len(forward), got.DirtyCount())
			}
			ge, gok := got.OldestDirty()
			we, wok := want.OldestDirty()
			if ge != we || gok != wok {
				t.Fatalf("%s: OldestDirty() = %v,%v, list cache %v,%v", where, ge, gok, we, wok)
			}
			if g, w := got.dirtyPages(), want.pagesOf(wantDirty); !slices.Equal(g, w) {
				t.Fatalf("%s: MarkDirtyPages marked %v, list cache's dirty entries are on %v", where, g, w)
			}
			for tp := 0; tp <= (pages-1)/perTP+1; tp++ {
				// Appended after what the slice holds, as the FTL appends
				// to its reused list.
				prefix := []flash.LPN{-1}
				if g, w := got.AppendDirtyOnTranslationPage(prefix, tp), want.AppendDirtyOnTranslationPage(prefix, tp); !slices.Equal(g, w) {
					t.Fatalf("%s: AppendDirtyOnTranslationPage(%d) = %v, list cache %v", where, tp, g, w)
				}
				if g, w := got.entriesOnPage(tp), want.entriesOnPage(tp); !slices.Equal(g, w) {
					t.Fatalf("%s: entries on translation page %d = %v, list cache %v", where, tp, g, w)
				}
			}
		}
	}
}
