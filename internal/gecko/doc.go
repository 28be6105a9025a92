// Package gecko implements Logarithmic Gecko, the write-optimized
// flash-resident index of page-validity metadata that is the central
// contribution of the GeckoFTL paper (Section 3).
//
// Logarithmic Gecko replaces the Page Validity Bitmap (PVB). It supports two
// operations: updates, issued whenever a flash page becomes invalid, and
// garbage-collection (GC) queries, issued by the garbage-collector to learn
// which pages of a victim block are invalid. Updates are buffered in
// integrated RAM and flushed to flash as sorted runs that are merged in the
// background, LSM-tree style, so that a GC query costs one flash read per
// level while an update costs only a small fraction of a flash write.
//
// # Mapping to the paper
//
//   - Gecko.Update and Gecko.RecordErase are the paper's update paths
//     (Algorithms 1 and 2): buffered in RAM, flushed as sorted runs.
//   - Gecko.Query serves GC queries by merging the buffer and one run per
//     level (Section 3.2).
//   - Entry partitioning (Config.PartitionFactor, Section 3.3) splits each
//     block's validity bitmap into S sub-entries so that write-amplification
//     becomes independent of the block size B (Figure 10).
//   - One two-way merge body implements the leveling merge of Section 3.2;
//     the multi-way variant of Appendix A is a newest-first fold of it.
//   - Gecko.RecoverDirectories rebuilds the RAM-resident run directories after
//     power failure from the spare areas of Gecko pages (Appendix C.1); the
//     FTL replays the buffer's lost content (Appendix C.2).
//
// # Storage layout
//
// Entries are stored by value in slabs: the fixed parts (block, sub-key,
// erase flag) in one slice, 8 bytes an entry at the paper's 4-byte key and
// 2-byte sub-key, and the validity bits of entry i as bare words
// [i*w, (i+1)*w) of another, w = ceil(BitsPerEntry/64). The buffer is one
// slab of V slots allocated once and reused across flushes, found by key
// through a direct-addressed array over the dense key space (K blocks times
// S sub-keys and the whole-block key) and read back in key order at a flush
// from a presence bitset — host bookkeeping, outside RAMBytes — in one walk
// that zeroes the index as it goes. A run is a sequence of pages, as on
// flash, and every run page is a slab of V slots of its own, filled by the
// flush or merge that writes it and immutable while the run lives; the
// flash image recovery relinks runs from holds those same page slabs. The
// pages come from one page pool per Gecko (pagePool), which New fills with
// three times the largest run's pages and which never holds more. A flush
// drains the buffer into one pooled page; a merge reads a newer and an older
// run page by page and writes its output page by page (mergeTwo), taking the
// next page from the pool when one fills, so that every page but a run's
// last holds V entries; more inputs fold into it newest first, each step
// streaming the previous step's pages and then handing them back. When a
// newer run supersedes a run and its pages have left the flash image, its
// pages go back to the pool — a run rebuilt from the flash image too, since
// its pages are page slabs like any other — so that in steady state neither
// a flush nor a merge allocates. Neither a merge nor a GC query, which ORs
// words into its result, copies an entry it only reads.
//
// A power failure (CrashRAM) drops all of the RAM's content: the buffer's
// entries and the run directories. It keeps the Go storage that held them,
// empty: each level's slice, the run structs with their directories' backing
// arrays, zeroed, as spare runs, and one largest run's worth of the page
// pool, whose pages neither a run nor the flash image holds. It also keeps
// recovery's own working storage, the directory scan's slice (32 bytes a
// scanned page) and ScanValidity's rows, which the next recovery overwrites
// before it reads them. RecoverDirectories and ImportDirectories refill that
// storage, so a crash allocates only what the flash image and the kept pool
// do not already hold: the pages of the runs written after it once the pool
// runs dry (and, once, the scan's storage, or more of it when the metadata
// blocks outgrow it).
//
// Within an FTL, one Gecko instance serves as the validity store of a single
// flash plane or engine shard; its state is guarded by the owning shard's
// lock.
package gecko
