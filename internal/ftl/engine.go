package ftl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"geckoftl/internal/flash"
	"geckoftl/internal/queue"
	"geckoftl/internal/stats"
)

// Engine is a concurrency-safe, sharded FTL frontend for multi-channel
// devices. It partitions the device's blocks into one contiguous range per
// shard (aligned with the channel/die layout when the block count divides
// evenly) and runs an independent FTL instance on each partition. Logical
// pages are striped across shards (shard = lpn mod shards), so each shard
// owns its own translation map, block manager, garbage collector and
// page-validity store — there is no shared mutable FTL state between shards,
// only the device underneath.
//
// A host operation on a shard takes one mutex: the latch of the shard's
// partition (flash.Partition.Latch), held for the whole operation. The same
// latch serializes the partition's dies, so the flash IO the operation
// issues through the partition takes no lock of its own, and a
// flash.Device call on those dies (a Snapshot's counters) waits for the
// operation to end. Shards that share a die (a block count the dies do not
// divide) share one latch and serialize.
//
// Single-page Read/Write and the batched ReadBatch/WriteBatch are safe for
// concurrent use from any number of goroutines. A batch runs on its caller's
// goroutine, one shard's pages after another's; the device's channel
// parallelism lives in its per-die virtual clocks, not in host goroutines:
// with S shards on S channels, the busiest die sees roughly 1/S of the IO
// and the batch's simulated time is that die's.
type Engine struct {
	dev           *flash.Device
	opts          Options
	shards        []*engineShard
	perShardPages int64
	logicalPages  int64

	// powerMu guards failed: the engine-wide crashed/recovered state
	// transitions of PowerFail and Recover. recovering, which Recover waits
	// on for its shards, is the engine's so that a recovery allocates none.
	powerMu    sync.Mutex
	failed     bool
	recovering sync.WaitGroup

	// batches recycles runBatch's scratch; see batch.
	batches sync.Pool

	// fingerprint is checkpointFingerprint's, which the configuration fixes.
	fingerprint uint64
}

// engineShard pairs one FTL instance with the lock that serializes it. The
// FTL itself (like the paper's algorithms) is single-threaded; the shard
// lock is the concurrency boundary.
type engineShard struct {
	// mu is the latch of the shard's partition, not a mutex of the shard's
	// own: holding it serializes the FTL and the partition's dies at once.
	// Adjacent shards that share a die share it.
	mu  *sync.Mutex
	ftl *FTL

	// Per-shard latency histograms, guarded by mu like the FTL itself.
	// Recording locally and merging on demand (LatencyStats) keeps the hot
	// path free of cross-shard contention.
	readLat  *stats.Histogram
	writeLat *stats.Histogram
	trimLat  *stats.Histogram
	// stallLat records the full service time of host operations (writes or
	// trims) that performed any garbage-collection work; maxStall tracks the
	// largest GC-only stall component (FTL.LastWriteGCStall) any single
	// operation absorbed.
	stallLat *stats.Histogram
	maxStall time.Duration

	// recovery and recoverErr are the shard's outcome of an engine-wide
	// Recover, written by the shard's recovery (engineShard.recover) and
	// read once all of them are done.
	recovery   RecoveryReport
	recoverErr error
}

// observe records the service time of the operation that just completed on
// the shard: the completion instant of the shard's dies minus the round's
// arrival instant, which includes queueing behind earlier operations of the
// same round on the same dies. Callers hold the shard lock.
func (sh *engineShard) observe(arrival time.Duration, kind flash.HostOp) {
	latency := sh.ftl.Device().BusyUntil() - arrival
	if latency < 0 {
		latency = 0
	}
	if kind == flash.HostRead {
		sh.readLat.Record(latency)
		return
	}
	if kind == flash.HostTrim {
		sh.trimLat.Record(latency)
	} else {
		sh.writeLat.Record(latency)
	}
	// Writes and trims both run the garbage-collection scheduler, so both
	// can absorb a GC stall.
	if stall, _ := sh.ftl.LastWriteGCStall(); stall > 0 {
		sh.stallLat.Record(latency)
		if stall > sh.maxStall {
			sh.maxStall = stall
		}
	}
}

// NewEngine creates an engine with the given number of shards over the
// device. shards <= 0 selects one shard per channel. Each shard receives
// Blocks/shards blocks, rounded down to a whole number of dies when the
// geometry allows it; trailing remainder blocks are left unused so that
// every shard exposes the same number of logical pages (required for LPN
// striping). Die alignment matters beyond load balance: shards sharing a die
// share its latch, so they serialize, and they pollute each other's
// die-scoped IO accounting (see flash.Partition), notably the per-shard
// recovery timings.
func NewEngine(dev *flash.Device, opts Options, shards int) (*Engine, error) {
	cfg := dev.Config()
	if shards <= 0 {
		shards = cfg.NumChannels()
	}
	blocksPerShard := cfg.Blocks / shards
	if cfg.Blocks%cfg.Dies() == 0 {
		if perDie := cfg.Blocks / cfg.Dies(); blocksPerShard > perDie {
			blocksPerShard -= blocksPerShard % perDie
		}
	}
	if blocksPerShard < 1 {
		return nil, fmt.Errorf("ftl: %d shards over %d blocks leaves empty shards", shards, cfg.Blocks)
	}
	e := &Engine{dev: dev, opts: opts}
	for i := 0; i < shards; i++ {
		part, err := dev.Partition(flash.BlockID(i*blocksPerShard), blocksPerShard)
		if err != nil {
			return nil, err
		}
		f, err := New(part, opts)
		if err != nil {
			return nil, fmt.Errorf("ftl: shard %d: %w", i, err)
		}
		e.shards = append(e.shards, &engineShard{
			mu:       part.Latch(),
			ftl:      f,
			readLat:  stats.NewHistogram(),
			writeLat: stats.NewHistogram(),
			trimLat:  stats.NewHistogram(),
			stallLat: stats.NewHistogram(),
		})
	}
	e.perShardPages = e.shards[0].ftl.LogicalPages()
	e.logicalPages = e.perShardPages * int64(shards)
	e.batches.New = func() any { return &batch{starts: make([]int, shards+1)} }
	e.fingerprint = e.checkpointFingerprint()
	return e, nil
}

// Name returns the display name of the sharded configuration.
func (e *Engine) Name() string {
	if len(e.shards) == 1 {
		return e.opts.FTL.String()
	}
	return fmt.Sprintf("%s/%d", e.opts.FTL, len(e.shards))
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Shard returns the FTL instance of shard i, for inspection by tests and
// experiments. Callers must not drive it while batches are in flight.
func (e *Engine) Shard(i int) *FTL { return e.shards[i].ftl }

// LogicalPages returns the number of logical pages the engine exposes: the
// sum over shards (slightly below the whole-device figure when the block
// count does not divide evenly by the shard count).
func (e *Engine) LogicalPages() int64 { return e.logicalPages }

// shardOf routes a logical page to its shard: LPNs are striped so that
// consecutive pages land on different shards (and therefore different
// channels), which spreads both sequential and uniform workloads.
func (e *Engine) shardOf(lpn flash.LPN) (int, flash.LPN, error) {
	if lpn < 0 || int64(lpn) >= e.logicalPages {
		return 0, 0, outOfRangeErr(lpn, e.logicalPages)
	}
	n := int64(len(e.shards))
	return int(int64(lpn) % n), flash.LPN(int64(lpn) / n), nil
}

// outOfRangeErr formats the range error off the hot path: fmt.Errorf boxes
// its arguments into interfaces, which would otherwise charge every in-range
// routing call two heap escapes. noinline keeps it cold — inlined back into
// shardOf, the boxing would come back with it.
//
//go:noinline
func outOfRangeErr(lpn flash.LPN, logicalPages int64) error {
	return fmt.Errorf("ftl: logical page %d out of range [0,%d): %w", lpn, logicalPages, flash.ErrOutOfRange)
}

// ShardOf routes a logical page to its shard index without issuing IO; the
// async submission queue uses it to pick a per-shard queue. The error matches
// flash.ErrOutOfRange for pages outside [0, LogicalPages()).
func (e *Engine) ShardOf(lpn flash.LPN) (int, error) {
	s, _, err := e.shardOf(lpn)
	return s, err
}

// ShardClock returns shard s's current virtual completion instant: the
// busy-until of the shard's own plane. It takes neither the shard lock nor the
// die latches — the die clocks are atomics that only grow — so reading it
// never contends with operations on any shard; a reading that races an
// in-flight operation on the same shard is a lower bound. The queue NewQueue
// builds reads it under the shard's latch, where it is exact.
func (e *Engine) ShardClock(s int) time.Duration {
	return e.shards[s].ftl.Device().BusyUntil()
}

// ShardAdvanceArrival ratchets shard s's arrival clock forward to at least t,
// so the shard's next operation starts no earlier than t even on idle dies.
// Open-loop drivers stamp each operation's generated arrival instant with it
// before executing the op; closed-loop drivers stamp the completion instant
// of the op the caller waited on, modeling the host-side dependency chain.
func (e *Engine) ShardAdvanceArrival(s int, t time.Duration) {
	e.shards[s].ftl.Device().AdvanceArrival(t)
}

// SyncArrival advances every shard's arrival clock to the device's latest
// die completion and returns it: runBatch's arrival instant for a batch, so an
// operation's latency charges queueing behind its round on its die but not
// idle time from before the round. It takes no lock.
func (e *Engine) SyncArrival() time.Duration {
	now := e.dev.BusyUntil()
	for _, sh := range e.shards {
		sh.ftl.Device().AdvanceArrival(now)
	}
	return now
}

// writeSeq returns the sum of the shards' write sequences, which grows with
// every page any shard programs: a checkpoint's staleness mark.
func (e *Engine) writeSeq() uint64 {
	var sum uint64
	for _, sh := range e.shards {
		sum += sh.ftl.Device().WriteSeq()
	}
	return sum
}

// Do serves one host operation of the given kind: the single-op body behind
// Write, Read and Trim, and what the submission queue executes. Safe for
// concurrent use.
//
// A single-page operation's arrival instant is stamped on the shard's own
// plane (Partition.SyncArrival, not the engine-wide SyncArrival), under the
// shard's latch: its recorded latency is the operation's service time plus
// any queueing behind operations already on the shard's dies — IO cannot
// start before the stamp even on an idle die of a multi-die shard — without
// charging it work from other shards' dies. A wait for the latch behind
// another caller is host scheduling, not device time, and is not part of
// the recorded latency: stamped before the latch, the same operations would
// record latencies that depend on which goroutine won it.
func (e *Engine) Do(kind flash.HostOp, lpn flash.LPN) error {
	s, local, err := e.shardOf(lpn)
	if err != nil {
		return err
	}
	sh := e.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.doNow(kind, local)
}

// doNow is Do's body: it stamps the operation's arrival on the shard's plane
// and executes it. Callers hold the shard lock; the submission queue's Exec
// calls it under the latch the queue already holds, with the shard the queue
// routed the page to.
func (sh *engineShard) doNow(kind flash.HostOp, local flash.LPN) error {
	return sh.do(kind, local, sh.ftl.Device().SyncArrival())
}

// do executes one operation on the shard's FTL and, when it succeeds, records
// its service time against arrival. Callers hold the shard lock.
func (sh *engineShard) do(kind flash.HostOp, lpn flash.LPN, arrival time.Duration) error {
	var err error
	switch kind {
	case flash.HostRead:
		err = sh.ftl.Read(lpn)
	case flash.HostTrim:
		err = sh.ftl.Trim(lpn)
	default:
		err = sh.ftl.Write(lpn)
	}
	if err == nil {
		sh.observe(arrival, kind)
	}
	return err
}

// NewQueue builds a submission queue over the engine: admission control of
// the given depth per shard, measuring the shard's virtual backlog in units of
// the device's page-program latency, in front of Do's body, which executes
// each admitted request on the submitting goroutine. The queue's shard lock is
// the shard's latch, so a submission takes that one lock for its admission,
// its execution and the queue's books, and the shard's clock cannot move
// between the admission that reads it and the execution. This is the one
// place the queue's hooks are wired to an engine.
func (e *Engine) NewQueue(depth int, policy queue.Policy) (*queue.Engine, error) {
	return queue.New(queue.Config{
		Shards:  len(e.shards),
		Depth:   depth,
		Policy:  policy,
		Quantum: e.dev.Config().Latency.PageWrite,
		ShardOf: e.ShardOf,
		Exec: func(s int, req queue.Request) error {
			return e.shards[s].doNow(req.Kind, req.LPN/flash.LPN(len(e.shards)))
		},
		Clock:   e.ShardClock,
		Advance: e.ShardAdvanceArrival,
		Latch:   func(s int) *sync.Mutex { return e.shards[s].mu },
	})
}

// Write serves one application write.
func (e *Engine) Write(lpn flash.LPN) error { return e.Do(flash.HostWrite, lpn) }

// Read serves one application read.
func (e *Engine) Read(lpn flash.LPN) error { return e.Do(flash.HostRead, lpn) }

// WriteBatch writes every logical page in lpns on the calling goroutine,
// grouped by shard and with one arrival instant for the whole batch, and
// joins the shards' errors. Pages of the same shard are written in slice
// order; callers must not rely on the order across shards, as on a real
// multi-channel controller. Cancelling ctx stops each shard's sub-batch
// between operations: pages already written stay written, the rest are
// skipped, and the joined error matches ctx.Err() under errors.Is. A nil ctx
// disables cancellation.
func (e *Engine) WriteBatch(ctx context.Context, lpns []flash.LPN) error {
	return e.runBatch(ctx, flash.HostWrite, lpns)
}

// ReadBatch reads every logical page in lpns, grouped by shard as for
// WriteBatch. Cancellation semantics as for WriteBatch.
func (e *Engine) ReadBatch(ctx context.Context, lpns []flash.LPN) error {
	return e.runBatch(ctx, flash.HostRead, lpns)
}

// TrimBatch trims every logical page in lpns, grouped by shard as for
// WriteBatch. Cancellation semantics as for WriteBatch.
func (e *Engine) TrimBatch(ctx context.Context, lpns []flash.LPN) error {
	return e.runBatch(ctx, flash.HostTrim, lpns)
}

// Mapped reports whether a logical page currently maps to flash-resident
// data: false for never-written and trimmed pages. Like FTL.Mapped it issues
// no simulated IO; it serves tests, examples and audits.
func (e *Engine) Mapped(lpn flash.LPN) (bool, error) {
	s, local, err := e.shardOf(lpn)
	if err != nil {
		return false, err
	}
	sh := e.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ftl.Mapped(local)
}

// batch is the scratch of one runBatch call: the batch's pages grouped by
// shard. Engines recycle them (Engine.batches), so a batch in steady state
// allocates none of it, and concurrent callers each borrow their own.
type batch struct {
	// locals holds the batch's shard-local LPNs grouped by shard, slice order
	// preserved within a shard: shard s's bucket is
	// locals[starts[s]:starts[s+1]].
	locals []flash.LPN
	starts []int
}

// bucket groups lpns by shard into b, a counting sort: one pass counts each
// shard's pages (and reports routing errors up front, before any IO is
// issued), a prefix sum turns the counts into each bucket's end, and a
// backward pass fills the buckets from their ends, which leaves starts[s] at
// the bucket's start and the pages of a shard in slice order.
func (e *Engine) bucket(b *batch, lpns []flash.LPN) error {
	clear(b.starts)
	for _, lpn := range lpns {
		s, _, err := e.shardOf(lpn)
		if err != nil {
			return err
		}
		b.starts[s]++
	}
	end := 0
	for s := range e.shards {
		end += b.starts[s]
		b.starts[s] = end
	}
	b.starts[len(e.shards)] = end
	if cap(b.locals) < len(lpns) {
		b.locals = make([]flash.LPN, len(lpns))
	}
	b.locals = b.locals[:len(lpns)]
	for i := len(lpns) - 1; i >= 0; i-- {
		s, local, _ := e.shardOf(lpns[i]) // in range: the first pass checked
		b.starts[s]--
		b.locals[b.starts[s]] = local
	}
	return nil
}

// runBatch buckets a batch of one kind by shard and drains every non-empty
// bucket through runBucket on the calling goroutine, in ascending shard
// order. A shard that fails stops early, the other shards still run, and the
// failed shards' errors are returned joined in shard order. No goroutine is
// started: every die keeps its own virtual clock, so the simulated time
// overlaps across channels whichever goroutine drains a bucket, and a
// goroutine per bucket cost more host CPU than it saved (docs/benchmarks.md,
// "Batches on the calling goroutine"). Host concurrency is the callers':
// batches from several goroutines overlap, each holding one shard lock at a
// time.
//
// The batch's arrival instant is taken once, before the first bucket, so
// every operation's recorded latency is measured against the same virtual
// "now": the n-th operation of a bucket is charged the queueing behind its n-1
// predecessors on the shard's dies, exactly as a host keeping a queue of
// depth len(batch) would observe. Overlapping batches from concurrent callers
// ratchet every shard's arrival clock and so charge each other's queueing, as
// overlapping arrivals at a real device would.
func (e *Engine) runBatch(ctx context.Context, kind flash.HostOp, lpns []flash.LPN) error {
	b := e.batches.Get().(*batch)
	defer e.batches.Put(b)
	if err := e.bucket(b, lpns); err != nil {
		return err
	}
	arrival := e.SyncArrival()
	var errs []error
	for s := range e.shards {
		if b.starts[s] == b.starts[s+1] {
			continue
		}
		if err := e.runBucket(ctx, b.locals[b.starts[s]:b.starts[s+1]], kind, s, arrival); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	return errors.Join(errs...)
}

// runBucket drains one shard's bucket sequentially, holding the shard's lock,
// and returns the shard's first error. It re-checks ctx before every
// operation — a batch observed to be cancelled stops at an operation boundary
// on every shard instead of running to completion, and the cancelled shards
// report ctx.Err().
func (e *Engine) runBucket(ctx context.Context, pages []flash.LPN, kind flash.HostOp, s int, arrival time.Duration) error {
	sh := e.shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, lpn := range pages {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := sh.do(kind, lpn, arrival); err != nil {
			return err
		}
	}
	return nil
}

// Flush forces all dirty state of every shard to flash. On a power-failed
// engine it fails fast with flash.ErrPowerFailed rather than vacuously
// succeeding over the crash-emptied RAM state.
func (e *Engine) Flush() error {
	e.powerMu.Lock()
	failed := e.failed
	e.powerMu.Unlock()
	if failed {
		return flash.ErrPowerFailed
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.ftl.Flush()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// EngineStats is the engine-wide instrumentation report: the shards' logical
// operation counters summed and their per-operation latency distributions
// merged. Latencies are simulated service times under the device's cost
// model — the time from an operation's batch arrival to its last IO
// completing, including queueing behind its die — so the report is
// deterministic and host-independent.
type EngineStats struct {
	// Ops is the shards' logical operation counters summed.
	Ops Stats
	// Reads, Writes and Trims are the service-time distributions of
	// successful single-page and batched operations since the last reset.
	Reads, Writes, Trims stats.Summary
	// GCStalledWrites is the service-time distribution of the subset of host
	// operations (writes and trims) that performed garbage-collection work
	// (migrations or erases).
	GCStalledWrites stats.Summary
	// MaxGCStall is the largest GC stall any single host operation absorbed:
	// the device time its GC migrations and erases consumed, excluding the
	// operation's own IO. Under GCIncremental this is the quantity bounded
	// by model.IncrementalGCStallBound.
	MaxGCStall time.Duration
}

// LatencyStats merges every shard's latency histograms (and sums the logical
// counters) into an engine-wide report. It may run concurrently with
// batches; like Stats, the snapshot is per-shard consistent.
func (e *Engine) LatencyStats() EngineStats {
	reads, writes, trims, stalled := stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram(), stats.NewHistogram()
	var out EngineStats
	for _, sh := range e.shards {
		sh.mu.Lock()
		reads.Merge(sh.readLat)
		writes.Merge(sh.writeLat)
		trims.Merge(sh.trimLat)
		stalled.Merge(sh.stallLat)
		if sh.maxStall > out.MaxGCStall {
			out.MaxGCStall = sh.maxStall
		}
		out.Ops.add(sh.ftl.Stats())
		sh.mu.Unlock()
	}
	out.Reads = reads.Summary()
	out.Writes = writes.Summary()
	out.Trims = trims.Summary()
	out.GCStalledWrites = stalled.Summary()
	return out
}

// ResetLatencyStats empties every shard's latency histograms, typically
// after a warm-up phase so that a measured window's distribution excludes
// cold-start behaviour. Logical operation counters are not reset.
func (e *Engine) ResetLatencyStats() {
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.readLat.Reset()
		sh.writeLat.Reset()
		sh.trimLat.Reset()
		sh.stallLat.Reset()
		sh.maxStall = 0
		sh.mu.Unlock()
	}
}

// Stats returns the shards' logical operation counters summed.
func (e *Engine) Stats() Stats {
	var total Stats
	for _, sh := range e.shards {
		sh.mu.Lock()
		total.add(sh.ftl.Stats())
		sh.mu.Unlock()
	}
	return total
}

// RAMBytes returns the integrated-RAM footprint summed over shards.
func (e *Engine) RAMBytes() int64 {
	var total int64
	for _, sh := range e.shards {
		sh.mu.Lock()
		total += sh.ftl.RAMBytes()
		sh.mu.Unlock()
	}
	return total
}

// CheckConsistency audits every shard's translation map against the flash
// contents (see FTL.CheckConsistency). The engine must be quiesced.
func (e *Engine) CheckConsistency() error {
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.ftl.CheckConsistency()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// add accumulates other into s.
func (s *Stats) add(other Stats) {
	s.LogicalWrites += other.LogicalWrites
	s.LogicalReads += other.LogicalReads
	s.LogicalTrims += other.LogicalTrims
	s.TrimmedPages += other.TrimmedPages
	s.GCOperations += other.GCOperations
	s.GCMigrations += other.GCMigrations
	s.UIPSkips += other.UIPSkips
	s.SyncOperations += other.SyncOperations
	s.Checkpoints += other.Checkpoints
	s.MetadataBlockErases += other.MetadataBlockErases
	s.ForcedSyncs += other.ForcedSyncs
	s.GCFallbacks += other.GCFallbacks
	s.HotWrites += other.HotWrites
	s.ColdWrites += other.ColdWrites
	s.ProgramRetries += other.ProgramRetries
	s.BadBlocks += other.BadBlocks
	s.ScrubOperations += other.ScrubOperations
}

// CheckConsistency verifies the FTL's translation invariants against the
// flash contents: every mapped logical page must point at a programmed
// physical page whose spare area records that logical page, and no two
// logical pages may share a physical page. The concurrency tests run it
// after quiescing a hammered engine; it issues spare-area reads accounted
// under flash.PurposeRecovery.
func (f *FTL) CheckConsistency() error {
	// owned has a bit per physical page of the shard, set once a logical page
	// maps to it. A page out of range fails the spare read below instead.
	pages := flash.PPN(f.cfg.Blocks) * flash.PPN(f.cfg.PagesPerBlock)
	owned := make([]uint64, (pages+63)/64)
	for lpn := flash.LPN(0); int64(lpn) < f.logicalPages; lpn++ {
		ppn := f.mappedPPN(lpn)
		if ppn == flash.InvalidPPN {
			continue
		}
		if ppn >= 0 && ppn < pages {
			if owned[ppn/64]&(1<<uint(ppn%64)) != 0 {
				prev := flash.LPN(0)
				for f.mappedPPN(prev) != ppn {
					prev++
				}
				return fmt.Errorf("ftl: logical pages %d and %d both map to physical page %d", prev, lpn, ppn)
			}
			owned[ppn/64] |= 1 << uint(ppn%64)
		}
		spare, written, err := f.dev.ReadSpare(ppn, flash.PurposeRecovery)
		if err != nil {
			return fmt.Errorf("ftl: auditing logical page %d: %w", lpn, err)
		}
		if !written {
			return fmt.Errorf("ftl: logical page %d maps to unprogrammed physical page %d", lpn, ppn)
		}
		if spare.Logical != lpn {
			return fmt.Errorf("ftl: physical page %d holds logical page %d, but the map says %d", ppn, spare.Logical, lpn)
		}
	}
	return nil
}

// mappedPPN returns where lpn's newest mapping points: its cached entry, or
// else the translation table.
func (f *FTL) mappedPPN(lpn flash.LPN) flash.PPN {
	if e, ok := f.cache.Peek(lpn); ok {
		return e.Physical
	}
	return f.table.FlashEntry(lpn)
}
