// Package ftl implements the flash translation layers studied in the
// GeckoFTL paper: GeckoFTL itself (the paper's contribution) and the four
// state-of-the-art page-associative FTLs it is compared against (DFTL,
// LazyFTL, µ-FTL and IB-FTL).
//
// All five share the same skeleton -- a flash-resident page-associative
// translation table with a Global Mapping Directory and an LRU cache of
// mapping entries, a block manager that separates user, translation and
// metadata blocks, and a garbage collector driven by a Blocks Validity
// Counter -- and differ along two axes (Section 5.3): how they store
// page-validity metadata and how they survive a power failure. Options.FTL
// names one of them (a model.FTLKind). New builds its validity store and
// copies its row of kindFacts, which says the rest of what it is, and
// OptionsFor (or GeckoFTLOptions and its four siblings) adds the FTL's own
// victim policy:
//
//	FTL       validity store     battery  dirty bound  runtime checkpoints  victim policy   names
//	DFTL      PVB in RAM         yes      none         no                   greedy          dftl
//	LazyFTL   PVB in RAM         no       C/10         no                   greedy          lazyftl, lazy
//	uFTL      PVB in flash       yes      none         no                   greedy          muftl, mu, uftl, mu-ftl
//	IB-FTL    validity log       no       C/10         no                   greedy          ibftl, ib, ib-ftl
//	GeckoFTL  Logarithmic Gecko  no       none         yes                  metadata-aware  geckoftl, gecko, ""
//
// Cache size, garbage collection, wear and the Logarithmic Gecko shape are
// Options fields any of the five may set.
//
// # The validity store
//
// The store New builds is the only record of which one an FTL has: no label
// says it again. Every store implements all of ValidityStore (report a page
// invalid, record an erase, answer a GC query, RAM bytes, drop RAM at a
// crash); the flash-resident PVB and the page validity log keep their RAM
// state with the flash image, so their CrashRAM does nothing and recovery
// charges the scan that would rebuild it. A GC query is QueryInto: the store
// overwrites every bit of a bitmap the caller owns, the garbage collector's
// per drain (gcState) or recovery's one for all blocks, so answering a victim
// allocates nothing; each store's exported Query is the same answer in a new
// bitmap. The three stores whose pages live in flash also implement
// flashStore (list, test and relocate live pages), which recovery and greedy
// garbage collection assert. Calls only Logarithmic Gecko has — buffer
// flushes, directory recovery, the validity scan and checkpoints — assert
// f.validity.(*gecko.Gecko) where they are made. TestValidityStoreContract
// pins the contract once per store.
//
// # Mapping to the paper
//
//   - FTL.Write / FTL.Read: "Serving Application Writes/Reads" (Section 4),
//     including GeckoFTL's lazy identification of invalid pages through the
//     UIP flag (Section 4.1).
//   - blockManager: the user/translation/metadata block groups of Figure 8
//     and the Blocks Validity Counter (Appendix B); its victim policies are
//     the greedy baseline, GeckoFTL's metadata-aware policy that never
//     migrates metadata blocks (Section 4.2), and a cost-benefit policy
//     (age times invalid fraction) that extends the paper. Victim selection
//     is deterministic: ties always resolve to the lowest block ID.
//   - translationTable: the flash-resident page-associative mapping with its
//     Global Mapping Directory and synchronization operations.
//   - FTL.Recover: the power-failure recovery protocols, including
//     GeckoFTL's runtime checkpoints that bound the backwards scan
//     (Section 4.3, Appendix C).
//   - The validity store of each FTL is the first axis of the paper's
//     comparison: Logarithmic Gecko (package gecko), the RAM- or
//     flash-resident PVB (package pvb), or IB-FTL's page validity log
//     (package pvl).
//
// # Beyond the paper: hot/cold separation and wear
//
// Options.HotColdSeparation splits the user group into two write frontiers.
// A per-LPN heat classifier (heat.go) with exponentially-decayed write
// counts routes each application write to the hot or cold frontier, and
// garbage-collection migrations always land on the cold one, so blocks fill
// with pages of similar lifetimes — the data-placement lever that lowers
// write-amplification on skewed workloads. Options.WearAwareAllocation
// makes the block manager hand out the least-erased free block first,
// narrowing the device's erase-count spread (its lifetime); the per-block
// erase counters are RAM mirrors of the device's truth, re-based during
// recovery.
//
// # Beyond the paper: the sharded Engine
//
// The paper's algorithms are single-threaded. Engine scales them to
// multi-channel devices (see the flash package's topology support): it
// partitions the device into one contiguous block range per channel, runs an
// independent FTL per partition, stripes logical pages across the shards,
// and serves batched IO (ReadBatch/WriteBatch/TrimBatch) as one bucket of
// pages per shard, drained on the caller's goroutine against one arrival
// instant; the channels' parallelism is in the device's per-die clocks. Because
// every shard owns its translation map,
// block manager and validity store outright, the only shared state is the
// device itself, which latches per die; the whole engine is safe for
// concurrent use and -race clean.
//
// The engine also crashes and recovers as a unit: Engine.PowerFail drops the
// shared power rail abruptly (mid-batch operations fail with
// flash.ErrPowerFailed; battery configurations flush first), and
// Engine.Recover runs every shard's recovery procedure, one after another on
// the calling goroutine. Each shard is its own flash power domain and scans
// only its own partition's dies, so the simulated recoveries overlap and
// recovery wall-clock shrinks with the channel count. The aggregated
// EngineRecoveryReport breaks the work down per shard and reports the
// slowest-shard critical path next to the single-plane serial cost.
package ftl
