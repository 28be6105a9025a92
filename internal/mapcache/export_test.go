package mapcache

import "geckoftl/internal/bitmap"

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
