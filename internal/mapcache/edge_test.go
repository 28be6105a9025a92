package mapcache

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"geckoftl/internal/flash"
)

// The cache is addressed by logical page number. These tests pin what a key
// the cache has never seen does, whatever structure holds the index: it is a
// miss for every accessor, probing it changes nothing, and nothing panics.

func TestKeysOutsideTheIndexAreMisses(t *testing.T) {
	const largest = 1000
	c := New(8, 64)
	for _, lpn := range []flash.LPN{0, 63, 64, largest} {
		c.Put(Entry{Logical: lpn, Physical: flash.PPN(lpn), Dirty: true})
	}
	before := len(c.slot)
	ops := c.opsSinceCheckpoint
	for _, lpn := range []flash.LPN{-1, math.MaxInt32, largest + 1} {
		if _, ok := c.Lookup(lpn); ok {
			t.Errorf("Lookup(%d) hit", lpn)
		}
		if _, ok := c.Peek(lpn); ok {
			t.Errorf("Peek(%d) hit", lpn)
		}
		if c.Contains(lpn) {
			t.Errorf("Contains(%d)", lpn)
		}
		if c.Update(lpn, func(*Entry) { t.Errorf("Update(%d) called fn", lpn) }) {
			t.Errorf("Update(%d) reported an entry", lpn)
		}
	}
	if c.Len() != 4 || c.DirtyCount() != 4 || c.opsSinceCheckpoint != ops {
		t.Errorf("after probing absent keys: Len %d, DirtyCount %d, ops since checkpoint %d; want 4, 4, %d", c.Len(), c.DirtyCount(), c.opsSinceCheckpoint, ops)
	}
	if after := len(c.slot); after != before {
		t.Errorf("probing absent keys grew the index from %d to %d", before, after)
	}
}

func TestPutNegativePanics(t *testing.T) {
	c := New(4, 64)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "mapcache: negative logical page -1") {
			t.Errorf("Put(-1) panicked with %q", msg)
		}
		if c.Len() != 0 {
			t.Errorf("Len = %d after the rejected Put", c.Len())
		}
	}()
	c.Put(Entry{Logical: -1})
}

func TestClearForgetsEveryEntry(t *testing.T) {
	c := New(64, 7)
	rng := rand.New(rand.NewSource(3))
	var put []flash.LPN
	for range 200 {
		lpn := flash.LPN(rng.Intn(5000))
		c.Put(Entry{Logical: lpn, Dirty: true})
		put = append(put, lpn)
	}
	c.checkpointPages()
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after Clear", c.Len())
	}
	for _, lpn := range put {
		if _, ok := c.Lookup(lpn); ok {
			t.Fatalf("Lookup(%d) hit after Clear", lpn)
		}
		if got := c.entriesOnPage(c.TranslationPageOf(lpn)); len(got) != 0 {
			t.Fatalf("translation page of %d holds %v after Clear", lpn, got)
		}
	}
	// The cleared cache is a working cache.
	c.Put(Entry{Logical: put[0], Physical: 9})
	if e, ok := c.Peek(put[0]); !ok || e.Physical != 9 || c.Len() != 1 {
		t.Fatalf("Put after Clear: %+v, %v, Len %d", e, ok, c.Len())
	}
}

// TestEntriesOnTranslationPageAscendingAndComplete covers translation-page
// sizes that are not a multiple of a machine word, with entries on the first
// page, on the last page and on a page whose range straddles a word of any
// bitset an index might keep.
func TestEntriesOnTranslationPageAscendingAndComplete(t *testing.T) {
	for _, perTP := range []int{1, 7, 64, 100, 512} {
		const pages = 40
		c := New(pages*perTP, perTP)
		rng := rand.New(rand.NewSource(int64(perTP)))
		// Translation page 9 of 7 entries covers logical pages [63, 70): it
		// straddles bit 64; so does page 1 of 100 and every page of 1.
		want := map[int][]flash.LPN{}
		for _, tp := range []int{0, 1, 9, pages - 1} {
			lo := tp * perTP
			picked := map[flash.LPN]bool{flash.LPN(lo): true, flash.LPN(lo + perTP - 1): true}
			for range perTP / 3 {
				picked[flash.LPN(lo+rng.Intn(perTP))] = true
			}
			for lpn := range picked {
				want[tp] = append(want[tp], lpn)
			}
			slices.Sort(want[tp])
		}
		// Insert in a scrambled order: the result must not depend on it.
		var all []flash.LPN
		for _, lpns := range want {
			all = append(all, lpns...)
		}
		slices.Sort(all)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		for _, lpn := range all {
			c.Put(Entry{Logical: lpn, Physical: flash.PPN(lpn) + 1, Dirty: lpn%2 == 0})
		}
		for tp := 0; tp < pages; tp++ {
			var got, gotDirty, wantDirty []flash.LPN
			for _, e := range c.entriesOnPage(tp) {
				if e.Physical != flash.PPN(e.Logical)+1 {
					t.Fatalf("perTP %d page %d: entry %+v is not what was put", perTP, tp, e)
				}
				got = append(got, e.Logical)
			}
			gotDirty = c.dirtyOnPage(tp)
			for _, lpn := range want[tp] {
				if lpn%2 == 0 {
					wantDirty = append(wantDirty, lpn)
				}
			}
			if !slices.Equal(got, want[tp]) {
				t.Fatalf("perTP %d page %d: entries %v, want %v", perTP, tp, got, want[tp])
			}
			if !slices.Equal(gotDirty, wantDirty) {
				t.Fatalf("perTP %d page %d: dirty entries %v, want %v", perTP, tp, gotDirty, wantDirty)
			}
		}
		for _, tp := range []int{-1, pages, pages + 1, 1 << 40} {
			if got := c.entriesOnPage(tp); len(got) != 0 {
				t.Fatalf("perTP %d: page %d beyond every entry holds %v", perTP, tp, got)
			}
		}
	}
}
