package mapcache

import (
	"slices"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// dirtyChain walks the dirty chain both ways: from its most recently used
// end along dnext, and from its least recently used end along dprev. Each
// walk stops after one more step than the slab has slots, so a cycle that
// misses the sentinel still ends.
func (c *Cache) dirtyChain() (newestFirst, oldestFirst []Entry) {
	for i := c.nodes[sentinel].dnext; i != sentinel && len(newestFirst) < len(c.nodes); i = c.nodes[i].dnext {
		newestFirst = append(newestFirst, c.nodes[i].entry)
	}
	for i := c.nodes[sentinel].dprev; i != sentinel && len(oldestFirst) < len(c.nodes); i = c.nodes[i].dprev {
		oldestFirst = append(oldestFirst, c.nodes[i].entry)
	}
	return newestFirst, oldestFirst
}

// entriesOnPage returns every cached entry, clean or dirty, that the index
// holds for translation page tp, in ascending logical order.
func (c *Cache) entriesOnPage(tp int) []Entry {
	if tp < 0 || tp > (len(c.slot)-1)/c.entriesPerTP {
		return nil
	}
	var out []Entry
	lo := tp * c.entriesPerTP
	for lpn := range bitmap.Ones(c.present, lo, lo+c.entriesPerTP) {
		out = append(out, c.nodes[c.slot[lpn]].entry)
	}
	return out
}

// entries returns all cached entries in most-recently-used-first order.
func (c *Cache) entries() []Entry {
	out := make([]Entry, 0, c.count)
	c.ForEach(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// pageMarks returns an empty mark set, one bit per translation page, wide
// enough for every logical page the cache has indexed.
func (c *Cache) pageMarks() []uint64 {
	return make([]uint64, len(c.slot)/c.entriesPerTP/64+1)
}

// marked returns the translation pages marked in tps, ascending.
func marked(tps []uint64) []int { return slices.Collect(bitmap.Ones(tps, 0, len(tps)*64)) }

// checkpointPages takes a checkpoint and returns the translation pages it
// marks, ascending.
func (c *Cache) checkpointPages() []int {
	tps := c.pageMarks()
	c.Checkpoint(tps)
	return marked(tps)
}

// dirtyPages returns the translation pages MarkDirtyPages marks, ascending.
func (c *Cache) dirtyPages() []int {
	tps := c.pageMarks()
	c.MarkDirtyPages(tps)
	return marked(tps)
}

// dirtyOnPage returns AppendDirtyOnTranslationPage's logical pages for tp,
// appended to a fresh slice.
func (c *Cache) dirtyOnPage(tp int) []flash.LPN { return c.AppendDirtyOnTranslationPage(nil, tp) }
