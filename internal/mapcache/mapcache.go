package mapcache

import (
	"fmt"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// Entry is a cached mapping entry for one logical page.
type Entry struct {
	// Logical is the logical page number this entry maps.
	Logical flash.LPN
	// Physical is the flash page currently holding the logical page.
	Physical flash.PPN
	// Dirty is set when the cached physical address differs from (or may
	// differ from) the one recorded in the flash-resident translation table.
	Dirty bool
	// UIP (Unidentified Invalid Page) is set when some before-image of this
	// logical page has not yet been reported to the page-validity store
	// (Section 4.1).
	UIP bool
	// Uncertain is set on entries recreated during recovery whose Dirty/UIP
	// flags are assumed true but unverified (Appendix C.3). The first
	// synchronization operation involving the entry performs the extra
	// checks and clears the flag.
	Uncertain bool
	// Trimmed rides along with UIP when the pending before-image
	// identification was caused by a host trim rather than an overwrite, so
	// that the eventual report is attributed to the trim statistics. It is
	// cleared together with UIP.
	Trimmed bool
}

// node is one slot of the cache's slab: a real mapping entry or a checkpoint
// symbol (Section 4.3), linked by slab index into the LRU queue and, when the
// entry is dirty, into the dirty chain. Free slots are chained through next.
type node struct {
	entry        Entry
	prev, next   int32 // LRU queue: prev is toward most recently used
	dprev, dnext int32 // dirty chain, in queue order: dprev is toward most recently used
}

// symbol reports whether the node is a checkpoint symbol rather than an entry.
func (n *node) symbol() bool { return n.entry.Logical == checkpointSymbol }

// The LRU queue and the dirty chain are circular through the sentinel slot:
// its next and dnext are the most recently used node and dirty entry, its
// prev and dprev the least recently used ones.
const (
	sentinel int32 = 0
	none     int32 = -1
)

// checkpointSymbol is the Logical of a checkpoint symbol's node: a negative
// page, which Put refuses for an entry.
const checkpointSymbol flash.LPN = -2

// Cache is an LRU cache of mapping entries with capacity C. It is not safe
// for concurrent use; the FTL serializes access.
//
// Logical page numbers are dense (0..logicalPages-1 of a shard), so the cache
// finds an entry by direct address: slot, one int32 per logical page, holds
// the entry's slab index, and present, one bit per logical page, marks the
// cached ones. A translation page's entries are a contiguous range of
// logical pages, so the ascending walk over present's set bits in that range
// is the range query of a synchronization operation, already in the order
// it is written back. Both arrays are the simulator's bookkeeping, like the
// slab: RAMBytes, the paper's model of the cache, does not count them.
//
// The queue is doubly linked, so eviction and Checkpoint's backward scan walk
// from its old end. The dirty entries are chained a second time through the
// slab, in queue order, and counted: DirtyCount, and OldestDirty, the victim
// of a flush or a dirty bound, read them without a walk.
type Cache struct {
	capacity int

	// nodes is the slab every entry lives in, allocated at construction:
	// the sentinel, C entries and the one checkpoint symbol that can be
	// queued at a time. Nothing is allocated per operation.
	nodes []node
	// free heads the chain of unused slots.
	free int32
	// slot[lpn] is the slab index of the entry cached for lpn. The sentinel
	// occupies index 0 and is never an entry, so zero means not cached. A
	// logical page beyond the slice has never been put. present has lpn's
	// bit set exactly when slot[lpn] is not zero, and count is their number.
	slot    []int32
	present []uint64
	count   int
	// dirty is the number of entries on the dirty chain.
	dirty int

	entriesPerTP int

	// tpBuf and staleBuf are the reused results of
	// DirtyEntriesOnTranslationPage and of Checkpoint and DirtyEntries.
	tpBuf, staleBuf []Entry

	// opsSinceCheckpoint counts inserts/updates since the last checkpoint;
	// GeckoFTL takes a checkpoint every C operations (Section 4.3).
	opsSinceCheckpoint int
}

// New creates a cache that holds at most capacity mapping entries.
// entriesPerTranslationPage is the number of mapping entries stored on one
// translation page; it determines which translation page a logical page
// belongs to. It panics if either argument is not positive.
func New(capacity, entriesPerTranslationPage int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("mapcache: capacity %d must be positive", capacity))
	}
	if entriesPerTranslationPage <= 0 {
		panic(fmt.Sprintf("mapcache: entries per translation page %d must be positive", entriesPerTranslationPage))
	}
	c := &Cache{
		capacity:     capacity,
		nodes:        make([]node, capacity+2),
		entriesPerTP: entriesPerTranslationPage,
	}
	c.reset()
	return c
}

// Reserve sizes the index for logical pages [0, n) at once, so that a cache
// whose owner knows the key range allocates it exactly and never again. It
// changes no behaviour: without it the index grows, by doubling, with the
// largest logical page ever put.
func (c *Cache) Reserve(n int) {
	if n > len(c.slot) {
		c.resizeIndex(n)
	}
}

// resizeIndex reallocates the index to cover logical pages [0, size).
func (c *Cache) resizeIndex(size int) {
	c.slot = append(make([]int32, 0, size), c.slot...)[:size]
	c.present = append(make([]uint64, 0, (size+63)/64), c.present...)[:(size+63)/64]
}

// find returns the slab index of the entry cached for lpn, or the sentinel's
// when there is none.
func (c *Cache) find(lpn flash.LPN) int32 {
	// One unsigned comparison: a negative lpn wraps to above any length.
	if uint64(lpn) >= uint64(len(c.slot)) {
		return sentinel
	}
	return c.slot[lpn]
}

// reset empties the LRU queue and the dirty chain and chains every slot into
// the free list.
func (c *Cache) reset() {
	c.nodes[sentinel] = node{prev: sentinel, next: sentinel, dprev: sentinel, dnext: sentinel}
	for i := 1; i < len(c.nodes); i++ {
		c.nodes[i] = node{next: int32(i + 1)}
	}
	c.nodes[len(c.nodes)-1].next = none
	c.free = 1
	c.dirty = 0
}

// pushFront takes a free slot, fills it and queues it as most recently used.
func (c *Cache) pushFront(e Entry) int32 {
	i := c.free
	c.free = c.nodes[i].next
	c.nodes[i] = node{entry: e}
	c.link(i)
	return i
}

// link queues slot i as most recently used, and a dirty entry also as the
// most recently used dirty one.
func (c *Cache) link(i int32) {
	first := c.nodes[sentinel].next
	c.nodes[i].prev, c.nodes[i].next = sentinel, first
	c.nodes[first].prev = i
	c.nodes[sentinel].next = i
	if c.nodes[i].entry.Dirty {
		c.dlink(i, sentinel)
	}
}

// unlink takes slot i out of the LRU queue and, if dirty, the dirty chain.
func (c *Cache) unlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.prev].next = n.next
	c.nodes[n.next].prev = n.prev
	if n.entry.Dirty {
		c.dunlink(i)
	}
}

// dlink chains the dirty slot i into the dirty chain right behind after, the
// sentinel or a dirty slot more recently used than i.
func (c *Cache) dlink(i, after int32) {
	next := c.nodes[after].dnext
	c.nodes[i].dprev, c.nodes[i].dnext = after, next
	c.nodes[next].dprev = i
	c.nodes[after].dnext = i
	c.dirty++
}

// dunlink takes slot i out of the dirty chain.
func (c *Cache) dunlink(i int32) {
	n := &c.nodes[i]
	c.nodes[n.dprev].dnext = n.dnext
	c.nodes[n.dnext].dprev = n.dprev
	c.dirty--
}

// promote makes the queued slot i the most recently used.
func (c *Cache) promote(i int32) {
	if c.nodes[i].prev != sentinel {
		c.unlink(i)
		c.link(i)
	}
}

// release unlinks slot i and returns it to the free list.
func (c *Cache) release(i int32) {
	c.unlink(i)
	c.nodes[i] = node{next: c.free}
	c.free = i
}

// Capacity returns C, the maximum number of mapping entries.
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the number of cached mapping entries (checkpoint symbols are
// not counted).
func (c *Cache) Len() int { return c.count }

// OpsSinceCheckpoint returns the number of inserts or updates since the last
// checkpoint scan.
func (c *Cache) OpsSinceCheckpoint() int { return c.opsSinceCheckpoint }

// TranslationPageOf returns the index of the translation page that holds the
// mapping entry for the given logical page.
func (c *Cache) TranslationPageOf(lpn flash.LPN) int {
	return int(int64(lpn) / int64(c.entriesPerTP))
}

// remove drops the real entry in slot i from the queue and the index.
func (c *Cache) remove(i int32) {
	lpn := c.nodes[i].entry.Logical
	c.slot[lpn] = sentinel
	c.present[lpn/64] &^= 1 << uint(lpn%64)
	c.count--
	c.release(i)
}

// Lookup returns the entry for lpn and whether it is cached. A hit promotes
// the entry to most-recently-used.
func (c *Cache) Lookup(lpn flash.LPN) (Entry, bool) {
	i := c.find(lpn)
	if i == sentinel {
		return Entry{}, false
	}
	c.promote(i)
	return c.nodes[i].entry, true
}

// Peek returns the entry for lpn without affecting LRU order or hit/miss
// statistics. Recovery and invariant checks use it.
func (c *Cache) Peek(lpn flash.LPN) (Entry, bool) {
	i := c.find(lpn)
	if i == sentinel {
		return Entry{}, false
	}
	return c.nodes[i].entry, true
}

// Contains reports whether lpn is cached, without touching LRU order.
func (c *Cache) Contains(lpn flash.LPN) bool {
	return c.find(lpn) != sentinel
}

// Evicted describes an entry that had to leave the cache to make room.
type Evicted struct {
	Entry Entry
	// Valid is false when no eviction was necessary.
	Valid bool
}

// Put inserts or updates the entry and promotes it to most-recently-used.
// If the cache is full, the least-recently-used real entry is evicted and
// returned so that the FTL can run a synchronization operation when the
// victim is dirty. Checkpoint symbols are silently discarded when they reach
// the LRU end during eviction.
func (c *Cache) Put(e Entry) Evicted {
	if e.Logical < 0 {
		panic(fmt.Sprintf("mapcache: negative logical page %d", e.Logical))
	}
	c.opsSinceCheckpoint++
	if i := c.find(e.Logical); i != sentinel {
		c.unlink(i)
		c.nodes[i].entry = e
		c.link(i)
		return Evicted{}
	}
	evicted := c.makeRoom()
	if need := int(e.Logical) + 1; need > len(c.slot) {
		c.resizeIndex(max(need, 2*len(c.slot)))
	}
	c.slot[e.Logical] = c.pushFront(e)
	c.present[e.Logical/64] |= 1 << uint(e.Logical%64)
	c.count++
	return evicted
}

// makeRoom evicts the least-recently-used real entry if the cache is full.
func (c *Cache) makeRoom() Evicted {
	if c.count < c.capacity {
		return Evicted{}
	}
	for i := c.nodes[sentinel].prev; i != sentinel; i = c.nodes[sentinel].prev {
		if c.nodes[i].symbol() {
			// A checkpoint symbol at the LRU end is stale; drop it.
			c.release(i)
			continue
		}
		e := c.nodes[i].entry
		c.remove(i)
		return Evicted{Entry: e, Valid: true}
	}
	return Evicted{}
}

// Remove deletes the entry for lpn, reporting whether it was present.
func (c *Cache) Remove(lpn flash.LPN) bool {
	i := c.find(lpn)
	if i != sentinel {
		c.remove(i)
	}
	return i != sentinel
}

// Update applies fn to the cached entry for lpn, if present, and reports
// whether it was. The entry is not promoted; Update models flag maintenance
// rather than an application access. An entry fn makes dirty joins the dirty
// chain at its place in the queue, behind the nearest more recently used
// dirty entry.
func (c *Cache) Update(lpn flash.LPN, fn func(*Entry)) bool {
	i := c.find(lpn)
	if i == sentinel {
		return false
	}
	n := &c.nodes[i]
	wasDirty := n.entry.Dirty
	fn(&n.entry)
	switch {
	case wasDirty && !n.entry.Dirty:
		c.dunlink(i)
	case !wasDirty && n.entry.Dirty:
		after := n.prev
		for after != sentinel && !c.nodes[after].entry.Dirty {
			after = c.nodes[after].prev
		}
		c.dlink(i, after)
	}
	return true
}

// DirtyEntriesOnTranslationPage returns the dirty cached entries whose
// logical pages belong to the given translation page, in ascending logical
// order. This is the range query used by synchronization operations — "all
// dirty mapping entries in the LRU cache that belong to the same translation
// page as the evicted entry" — answered without scanning the cache; the
// pinned order means the entries a synchronization writes back — durable
// flash state — do not depend on insertion history. The slice is reused: it
// is valid until the next call of this method.
func (c *Cache) DirtyEntriesOnTranslationPage(tp int) []Entry {
	if tp < 0 || tp > (len(c.slot)-1)/c.entriesPerTP {
		return nil
	}
	out := c.tpBuf[:0]
	lo := tp * c.entriesPerTP
	for lpn := range bitmap.Ones(c.present, lo, lo+c.entriesPerTP) {
		if e := &c.nodes[c.slot[lpn]].entry; e.Dirty {
			out = append(out, *e)
		}
	}
	c.tpBuf = out
	return out
}

// DirtyCount returns the number of dirty entries in the cache. LazyFTL and
// IB-FTL bound this number during runtime; GeckoFTL does not.
func (c *Cache) DirtyCount() int { return c.dirty }

// DirtyEntries returns the dirty entries, least recently used first. The
// slice is reused: it is valid until the next call of this method or
// Checkpoint.
func (c *Cache) DirtyEntries() []Entry {
	out := c.staleBuf[:0]
	for i := c.nodes[sentinel].dprev; i != sentinel; i = c.nodes[i].dprev {
		out = append(out, c.nodes[i].entry)
	}
	c.staleBuf = out
	return out
}

// ForEach calls fn on every cached entry in most-recently-used-first order.
// It stops early if fn returns false.
func (c *Cache) ForEach(fn func(Entry) bool) {
	for i := c.nodes[sentinel].next; i != sentinel; i = c.nodes[i].next {
		if n := &c.nodes[i]; !n.symbol() && !fn(n.entry) {
			return
		}
	}
}

// ForEachOldest calls fn on every cached entry in least-recently-used-first
// order, walking the queue in place: Put-ting them into an empty cache in
// that order reproduces this one.
func (c *Cache) ForEachOldest(fn func(Entry)) {
	for i := c.nodes[sentinel].prev; i != sentinel; i = c.nodes[i].prev {
		if n := &c.nodes[i]; !n.symbol() {
			fn(n.entry)
		}
	}
}

// Entries returns all cached entries in most-recently-used-first order.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, c.count)
	c.ForEach(func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// OldestDirty returns the least recently used dirty entry, if any: the old
// end of the dirty chain.
func (c *Cache) OldestDirty() (Entry, bool) {
	i := c.nodes[sentinel].dprev
	return c.nodes[i].entry, i != sentinel
}

// Checkpoint implements the runtime checkpoint of Section 4.3. It inserts a
// fresh checkpoint symbol at the most-recently-used end, then scans the LRU
// queue from the end backwards until it finds and removes the symbol inserted
// by the previous checkpoint (or exhausts the queue on the first checkpoint).
// Every dirty mapping entry encountered along the way is returned so that the
// FTL can synchronize it; the entries themselves are left in place (the FTL
// marks them clean through Update once synchronized).
//
// The operation counter used to schedule checkpoints is reset. The returned
// slice is reused: it is valid until the next Checkpoint.
func (c *Cache) Checkpoint() []Entry {
	c.opsSinceCheckpoint = 0

	stale := c.staleBuf[:0]
	for i := c.nodes[sentinel].prev; i != sentinel; i = c.nodes[i].prev {
		n := &c.nodes[i]
		if n.symbol() {
			c.release(i)
			break
		}
		if n.entry.Dirty {
			stale = append(stale, n.entry)
		}
	}
	c.pushFront(Entry{Logical: checkpointSymbol})
	c.staleBuf = stale
	return stale
}

// CheckpointDue reports whether C or more inserts/updates have happened since
// the last checkpoint.
func (c *Cache) CheckpointDue() bool { return c.opsSinceCheckpoint >= c.capacity }

// Clear drops every entry and checkpoint symbol. It models the loss of
// integrated RAM at power failure.
func (c *Cache) Clear() {
	c.reset()
	clear(c.slot)
	clear(c.present)
	c.count = 0
	c.opsSinceCheckpoint = 0
}

// RAMBytes returns the integrated-RAM footprint the paper's models charge for
// the cache: bytesPerEntry bytes for each of the C entries of capacity
// (the paper assumes 8 bytes per cached entry in Section 5).
func (c *Cache) RAMBytes(bytesPerEntry int) int64 {
	return int64(c.capacity) * int64(bytesPerEntry)
}
