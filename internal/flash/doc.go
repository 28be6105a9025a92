// Package flash implements a discrete-event NAND flash device simulator.
//
// The simulator models the architectural parameters and idiosyncrasies that
// the GeckoFTL paper (Dayan, Bonnet, Idreos; SIGMOD 2016) relies on:
//
//   - the device consists of K blocks of B pages of P bytes each;
//   - the minimum read/write granularity is one page;
//   - a page cannot be rewritten before its block is erased;
//   - writes within a block must be sequential;
//   - every page has a spare area that can be written once per page
//     life-cycle and read independently (and much more cheaply) than the
//     page itself;
//   - page reads, page writes, spare-area reads and block erases have
//     asymmetric costs.
//
// The device does not store user payloads (the FTL algorithms under study
// never inspect payload bytes); it stores per-page state and spare-area
// metadata, and it accounts every internal IO by purpose so that the
// simulation harness can compute the write-amplification breakdowns reported
// in the paper's evaluation section.
//
// # Channel/die topology
//
// Real flash devices at the capacities GeckoFTL targets (hundreds of
// gigabytes to terabytes) are not a single serialized plane: they gang
// multiple channels, each with several dies, and independent dies execute
// page and erase operations in parallel. Config carries this topology as
// Channels x DiesPerChannel; blocks are assigned to dies in contiguous
// ranges (Config.DieOfBlock). NewDevice stores each block's die index beside
// the block's state, so an operation finds the die it latches without
// dividing; DieOfBlock itself serves partitioning and construction. Each
// die is serialized by exactly one latch — operations on different dies
// proceed concurrently under separate latches, while operations on the same
// die serialize, exactly as a real die's ready/busy line would force them
// to. Per-die IO counters give SimulatedTime, the sum of all die-busy time
// (the single-plane serial cost used by the paper's write-amplification
// experiments), and DieTimes, each die's share of it, which the channel
// sweep reports as load balance.
//
// A Partition is a view of a contiguous block range of a Device, and it is
// the only view an FTL programs against: ftl.New takes one. The ftl.Engine
// gives each of its shards one partition aligned to a channel's die range, so
// that shards never contend on a die, and a lone FTL runs on a partition that
// spans the whole device. Besides page IO, a partition answers the
// controller's per-block bookkeeping (write pointer, erase and read counts,
// the bad-block table), records host trims, and keeps its own power domain
// and clocks: the write sequence that stamps its pages and the arrival clock
// its IO starts from, so a shard's stamps and latencies follow from its own
// operations alone. The Device keeps its own page IO and sequence, the
// counters, the shared power rail and the fault plan, for callers that drive
// flash without an FTL. A partition owns the latch of the dies
// it touches (Partition.Latch; partitions sharing a die share it): Device
// calls on those dies take it, and the partition's own methods take no lock,
// because their caller holds it — an engine shard, for a whole host
// operation — or is the partition's only user. A host operation on a shard
// therefore acquires one mutex, not one per flash operation.
package flash
