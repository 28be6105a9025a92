package geckoftl

import (
	"time"

	"geckoftl/internal/queue"
	"geckoftl/internal/stats"
)

// LatencySummary is a stable summary of a simulated service-time
// distribution — operation count, mean, 50th/90th/99th/99.9th percentiles and
// maximum of the time from an operation's arrival to its last IO completing
// under the device's cost model, queueing behind its die included.
// Deterministic and host-independent.
type LatencySummary = stats.Summary

// OpCounts are the logical operations the device has served.
type OpCounts struct {
	// Writes, Reads and Trims count host operations since Open.
	Writes, Reads, Trims int64
	// TrimmedPages counts physical pages invalidated on behalf of trims.
	TrimmedPages int64
}

// GCStats describe the garbage collector's work since Open.
type GCStats struct {
	// Collections counts victim blocks reclaimed.
	Collections int64
	// Migrations counts valid pages copied out of victims.
	Migrations int64
	// UIPSkips counts victim pages identified as unidentified-invalid just
	// before migration and therefore skipped (Section 4.1 of the paper).
	UIPSkips int64
	// Fallbacks counts writes on which the incremental collector broke its
	// step budget and fell back to an unbounded inline reclaim; a healthy
	// incremental configuration keeps this at zero.
	Fallbacks int64
	// MaxStall is the largest garbage-collection stall any single host
	// operation absorbed since the last ResetStats.
	MaxStall time.Duration
}

// QueueStats describe the asynchronous submission path (Device.SubmitWrite
// and friends): the queue configuration (WithQueueDepth,
// WithAdmissionPolicy), the fates of submitted operations since Open — shed
// ones failed their Tickets with ErrQueueFull — and the arrival-to-completion
// latency distribution on the virtual timeline (a round's submissions arrive
// together, see SubmitWrite) since Open or the last ResetStats. Rounds are
// device-wide, so the distribution repeats from run to run only when a single
// goroutine submits.
type QueueStats = queue.Stats

// Snapshot is a stable, self-consistent view of the device's statistics:
// logical operation counts, write-amplification over the current measurement
// window, RAM footprint, and per-operation latency percentiles.
type Snapshot struct {
	// Ops counts the logical operations served since Open.
	Ops OpCounts
	// GC describes the garbage collector's work since Open.
	GC GCStats
	// Checkpoints counts runtime checkpoints taken since Open.
	Checkpoints int64

	// BadBlocks is the number of blocks currently retired as grown bad
	// blocks (failed or worn-out erases): permanently lost capacity. It is a
	// gauge read from the per-block state, so it survives power failures
	// without double-counting.
	BadBlocks int64
	// ProgramRetries counts page programs that failed and were retried on
	// the next frontier page since Open.
	ProgramRetries int64
	// Scrubs counts read-disturb scrubs since Open: blocks relocated because
	// their read count reached the configured scrub threshold.
	Scrubs int64

	// WriteAmplification is the measured write-amplification of the current
	// window (since Open or the last ResetStats): internal page writes plus
	// internal page reads weighted by the write/read latency ratio, per
	// logical write. UserWA, TranslationWA and ValidityWA break it down by
	// component as in the paper's Figure 13 (bottom).
	WriteAmplification                float64
	UserWA, TranslationWA, ValidityWA float64
	// WindowWrites is the number of logical writes in the window the
	// write-amplification figures describe.
	WindowWrites int64

	// MinEraseCount and MaxEraseCount are the smallest and largest per-block
	// erase counts across the device, and EraseSpread is their difference:
	// the wear-evenness figure the endurance experiments track. MeanEraseCount
	// is the average. All four read the device's own wear state, so they are
	// cumulative since Open and survive power failures.
	MinEraseCount, MaxEraseCount int
	EraseSpread                  int
	MeanEraseCount               float64

	// RAMBytes is the FTL's integrated-RAM footprint under the paper's
	// models (mapping cache, GMD, BVC, page-validity store, wear state,
	// heat classifier).
	RAMBytes int64
	// CheckpointBytes is the encoded size of the most recent metadata
	// checkpoint written to the WithCheckpointPath file; zero when
	// checkpointing is disabled or none has been written yet.
	CheckpointBytes int64
	// SimulatedTime is the total device time consumed since Open, summed
	// over dies (the serial single-plane cost).
	SimulatedTime time.Duration

	// WriteLatency, ReadLatency and TrimLatency summarize per-operation
	// service times since Open or the last ResetStats.
	WriteLatency, ReadLatency, TrimLatency LatencySummary
	// GCStalledWrites summarizes the service times of the host operations
	// that performed garbage-collection work.
	GCStalledWrites LatencySummary

	// Queue describes the asynchronous submission path; its counters stay
	// zero on a device that only used the synchronous methods.
	Queue QueueStats
}

// Snapshot captures the device's statistics. It may run concurrently with
// operations; the snapshot is shard-consistent (quiesce the device for an
// exact global instant).
func (d *Device) Snapshot() Snapshot {
	es := d.eng.LatencyStats()
	ops := es.Ops
	counters := d.dev.Counters()
	d.baseMu.Lock()
	window := counters.Sub(d.baseCounters)
	windowWrites := ops.LogicalWrites - d.baseStats.LogicalWrites
	d.baseMu.Unlock()
	delta := d.dev.Config().Latency.WriteReadRatio()
	minErase, maxErase, meanErase := d.dev.BlocksEndurance()
	d.ckptMu.Lock()
	ckptBytes := d.ckptBytes
	d.ckptMu.Unlock()
	userWA, translationWA, validityWA := window.WABreakdown(windowWrites, delta)

	return Snapshot{
		Ops: OpCounts{
			Writes:       ops.LogicalWrites,
			Reads:        ops.LogicalReads,
			Trims:        ops.LogicalTrims,
			TrimmedPages: ops.TrimmedPages,
		},
		GC: GCStats{
			Collections: ops.GCOperations,
			Migrations:  ops.GCMigrations,
			UIPSkips:    ops.UIPSkips,
			Fallbacks:   ops.GCFallbacks,
			MaxStall:    es.MaxGCStall,
		},
		Checkpoints:        ops.Checkpoints,
		BadBlocks:          ops.BadBlocks,
		ProgramRetries:     ops.ProgramRetries,
		Scrubs:             ops.ScrubOperations,
		WriteAmplification: window.WriteAmplification(windowWrites, delta),
		UserWA:             userWA,
		TranslationWA:      translationWA,
		ValidityWA:         validityWA,
		WindowWrites:       windowWrites,
		MinEraseCount:      minErase,
		MaxEraseCount:      maxErase,
		EraseSpread:        maxErase - minErase,
		MeanEraseCount:     meanErase,
		RAMBytes:           d.eng.RAMBytes(),
		CheckpointBytes:    ckptBytes,
		SimulatedTime:      d.dev.SimulatedTime(),
		WriteLatency:       es.Writes,
		ReadLatency:        es.Reads,
		TrimLatency:        es.Trims,
		GCStalledWrites:    es.GCStalledWrites,
		Queue:              d.q.Stats(),
	}
}

// ResetStats starts a fresh measurement window: write-amplification and the
// latency distributions, the submission queue's included, are measured from
// this point on, typically after a warm-up phase so steady-state behaviour is
// reported. Cumulative operation counts (Snapshot.Ops, Snapshot.GC counters,
// the queue's counters) are not reset.
func (d *Device) ResetStats() {
	d.baseMu.Lock()
	d.baseCounters = d.dev.Counters()
	d.baseStats = d.eng.Stats()
	d.baseMu.Unlock()
	d.eng.ResetLatencyStats()
	d.q.ResetLatency()
}
