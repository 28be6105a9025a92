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
// symbol that can be queued at a time (a flagged node) — and links nodes by
// slab index twice: into the LRU queue, and into the list of cached entries
// of their translation page, whose head a map from translation-page number
// holds. That gives the same O(entries-on-page) synchronization scans
// without a balanced tree, and no operation allocates.
//
// EntriesOnTranslationPage, DirtyEntriesOnTranslationPage and Checkpoint
// fill buffers the cache reuses: a returned slice is valid until the next
// call of the same method (the first two share one buffer).
package mapcache
