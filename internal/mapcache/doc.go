// Package mapcache implements the LRU cache of logical-to-physical mapping
// entries that page-associative FTLs keep in integrated RAM.
//
// The cache is the component through which all of the paper's FTLs
// (GeckoFTL, DFTL, LazyFTL, µ-FTL, IB-FTL) serve application reads and
// writes: recently accessed mapping entries live here, entries for recently
// updated logical pages are marked dirty until a synchronization operation
// writes them back to the flash-resident translation table, and GeckoFTL
// additionally tracks its Unidentified-Invalid-Page (UIP) and uncertainty
// flags on each entry (Sections 4, 4.1 and Appendix C.3 of the paper).
//
// The paper notes that "the LRU cache is implemented as a tree to enable
// efficient range queries for mapping entries on a particular translation
// page". This implementation keeps every entry in one slab of nodes allocated
// at construction — C entries, the queue's sentinel and the one checkpoint
// symbol that can be queued at a time (a node whose Logical is a reserved
// negative page) — linked by slab index into the LRU queue. The dirty
// entries are linked a second time, in the same order, into a dirty chain,
// and counted, so the dirty count and the least recently used dirty entry
// are read without a walk. Logical page numbers are dense, so an entry is
// found by direct address (one int32 per logical page holds its slab index)
// and a presence bitset, one bit per logical page, answers the range query:
// a translation page is a contiguous run of logical pages, and the ascending
// walk over the set bits of that run yields its cached entries in the order
// a synchronization writes them back. No hashing, no sort, no tree, and no
// operation allocates. The two arrays are host bookkeeping of the simulator;
// the RAM the paper charges for the cache (RAMBytes) is C entries.
//
// No method copies entries out for the FTL to act on: the range query
// appends logical pages to the caller's slice, and Checkpoint and
// MarkDirtyPages set translation-page bits in the caller's marks.
package mapcache
