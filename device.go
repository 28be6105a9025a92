package geckoftl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/queue"
)

// LPN is a logical page number: the host-visible block-device address space
// is the half-open range [0, Device.LogicalPages()).
type LPN = flash.LPN

// Device is a simulated flash block device: a multi-channel NAND device with
// a sharded flash translation layer on top, opened by Open. All methods are
// safe for concurrent use.
//
// The device is a simulator: operations execute synchronously under a
// virtual device-time model (no wall-clock sleeping), and the latencies
// Snapshot reports are simulated service times, deterministic for a given
// request sequence. Contexts are honoured at operation boundaries: an
// operation observed to be cancelled before dispatch returns the context's
// error and performs no IO.
type Device struct {
	eng    *ftl.Engine
	dev    *flash.Device
	closed atomic.Bool

	// base anchors Snapshot's windowed metrics (write-amplification) at Open
	// or the last ResetStats; baseMu makes Snapshot and ResetStats safe to
	// call from any goroutine.
	baseMu       sync.Mutex
	baseCounters flash.Counters
	baseStats    ftl.Stats

	// checkpointPath, when set by WithCheckpointPath, is where Close/Flush
	// persist the metadata checkpoint and where Open/Restart load it from.
	checkpointPath string
	// checkpointLock is the held host-side lock on checkpointPath, released
	// at Close; nil when checkpointing is disabled.
	checkpointLock *checkpoint.Lock

	// q is the submission engine behind Submit* (async.go).
	q *queue.Engine

	// ckptBufMu guards ckptBuf and ckptFile, the storage the device keeps
	// for its checkpoints: every checkpoint is encoded into ckptBuf, and a
	// warm restart reads the file back into it and decodes it into
	// ckptFile, so a restart allocates neither. Nothing restored from the
	// file aliases them.
	ckptBufMu sync.Mutex
	ckptBuf   []byte
	ckptFile  checkpoint.File

	// ckptMu guards the checkpoint bookkeeping below.
	ckptMu sync.Mutex
	// ckptLoad is the outcome of the most recent checkpoint load attempt.
	ckptLoad CheckpointLoad
	// ckptBytes is the size of the most recently written checkpoint.
	ckptBytes int64
}

// Open builds a device from functional options: geometry, topology, a named
// FTL scheme and its cache budget (or a fully explicit FTLOptions), faults,
// checkpoint path, submission queue. Defaults: a 256-block device of 32 pages
// of 1 KB at 70% over-provisioning, one channel, GeckoFTL with a 1024-entry
// mapping cache, inline GC.
//
// Errors are classified under ErrInvalidConfig.
func Open(opts ...Option) (*Device, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, wrapErr(err)
		}
	}
	ftlOpts, err := cfg.ftlOptions()
	if err != nil {
		return nil, wrapErr(err)
	}
	dev, err := flash.NewDevice(cfg.flashConfig())
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	if cfg.faults != nil {
		if err := dev.SetFaultPlan(*cfg.faults); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
	}
	eng, err := ftl.NewEngine(dev, ftlOpts, cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	q, err := eng.NewQueue(cfg.queueDepth, cfg.queueAdmission)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidConfig, err)
	}
	d := &Device{eng: eng, dev: dev, q: q, checkpointPath: cfg.checkpointPath}
	if d.checkpointPath != "" {
		// Own the path for this device's lifetime: a second Open of the same
		// path fails fast with ErrCheckpointLocked instead of the two devices
		// silently clobbering each other's checkpoints.
		lock, err := checkpoint.Acquire(d.checkpointPath)
		if err != nil {
			return nil, wrapErr(err)
		}
		d.checkpointLock = lock
		if err := d.loadCheckpointAtOpen(); err != nil {
			_ = lock.Release()
			return nil, err
		}
	}
	return d, nil
}

// loadCheckpointAtOpen attempts to start warm from the configured
// checkpoint file. A missing file is an ordinary cold start; a found
// checkpoint that fails any validation — magic, version, checksums, or the
// stale-sequence check against device truth (a freshly opened simulated
// device is blank, so any checkpoint describing written flash is stale) —
// is recorded in CheckpointLoad and the device proceeds cold, never
// half-loaded. Only an internal failure of the fallback itself is an error.
func (d *Device) loadCheckpointAtOpen() error {
	file := new(checkpoint.File)
	bytes, err := checkpoint.ReadFile(file, d.checkpointPath, nil)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		d.setCheckpointLoad(CheckpointLoad{Attempted: true, Err: checkpointErr(err)})
		return nil
	}
	// Validate read-only first: a checkpoint that does not match this
	// device falls back cold without any state having been touched.
	if err := d.eng.ValidateCheckpoint(file); err != nil {
		d.setCheckpointLoad(CheckpointLoad{Attempted: true, Bytes: bytes, Err: checkpointErr(err)})
		return nil
	}
	// The checkpoint matches device truth: import it through the restart
	// path (drop RAM state, restore from the file).
	if err := d.eng.PowerFail(); err != nil {
		return wrapErr(err)
	}
	if err := d.eng.RestoreCheckpoint(file); err != nil {
		d.setCheckpointLoad(CheckpointLoad{Attempted: true, Bytes: bytes, Err: checkpointErr(err)})
		if _, rerr := d.eng.Recover(); rerr != nil {
			return wrapErr(rerr)
		}
		return nil
	}
	d.setCheckpointLoad(CheckpointLoad{Attempted: true, Loaded: true, Bytes: bytes})
	return nil
}

// CheckpointLoad describes the outcome of the most recent attempt to load a
// metadata checkpoint, at Open or during Restart.
type CheckpointLoad struct {
	// Attempted reports that a checkpoint was found and considered.
	Attempted bool
	// Loaded reports that the checkpoint passed every validation and the
	// device started warm from it.
	Loaded bool
	// Bytes is the checkpoint's encoded size.
	Bytes int64
	// Err is the reason a considered checkpoint was rejected, classified
	// under ErrCheckpointInvalid; nil when Loaded or when nothing was found.
	Err error
}

// CheckpointLoad returns the outcome of the most recent checkpoint load
// attempt. The zero value means no checkpoint was found or configured.
func (d *Device) CheckpointLoad() CheckpointLoad {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	return d.ckptLoad
}

// setCheckpointLoad records a checkpoint load outcome.
func (d *Device) setCheckpointLoad(l CheckpointLoad) {
	d.ckptMu.Lock()
	d.ckptLoad = l
	d.ckptMu.Unlock()
}

// writeCheckpoint exports and persists the metadata checkpoint; Close and
// Flush call it after a successful flush. Configurations that cannot be
// checkpointed (non-Gecko schemes, battery devices) skip silently, as does
// a power failure racing the export — Close tolerates exactly that race on
// the flush itself.
func (d *Device) writeCheckpoint() error {
	if d.checkpointPath == "" {
		return nil
	}
	d.ckptBufMu.Lock()
	defer d.ckptBufMu.Unlock()
	data, err := d.eng.EncodeCheckpoint(d.ckptBuf[:0])
	switch {
	case err == nil:
	case errors.Is(err, ftl.ErrCheckpointUnsupported), errors.Is(err, flash.ErrPowerFailed):
		return nil
	default:
		return wrapErr(err)
	}
	d.ckptBuf = data
	if err := checkpoint.WriteFile(d.checkpointPath, data); err != nil {
		return err
	}
	d.ckptMu.Lock()
	d.ckptBytes = int64(len(data))
	d.ckptMu.Unlock()
	return nil
}

// guard rejects operations on closed devices and honours the context.
func (d *Device) guard(ctx context.Context) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// LogicalPages returns the number of logical pages the device exposes.
func (d *Device) LogicalPages() int64 { return d.eng.LogicalPages() }

// Geometry describes an open device: the physical layout and the logical
// capacity derived from it.
type Geometry struct {
	Blocks, PagesPerBlock, PageSizeBytes int
	Channels, DiesPerChannel             int
	OverProvision                        float64
	LogicalPages                         int64
	FTL                                  string
	Shards                               int
}

// Geometry reports the device's resolved configuration.
func (d *Device) Geometry() Geometry {
	cfg := d.dev.Config()
	return Geometry{
		Blocks:         cfg.Blocks,
		PagesPerBlock:  cfg.PagesPerBlock,
		PageSizeBytes:  cfg.PageSize,
		Channels:       cfg.NumChannels(),
		DiesPerChannel: cfg.Dies() / cfg.NumChannels(),
		OverProvision:  cfg.OverProvision,
		LogicalPages:   d.eng.LogicalPages(),
		FTL:            d.eng.Shard(0).Name(),
		Shards:         d.eng.Shards(),
	}
}

// Write updates one logical page.
func (d *Device) Write(ctx context.Context, lpn LPN) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	return wrapErr(d.eng.Write(lpn))
}

// Read reads one logical page. Reading a never-written or trimmed page
// succeeds and returns zeroes without flash IO.
func (d *Device) Read(ctx context.Context, lpn LPN) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	return wrapErr(d.eng.Read(lpn))
}

// Trim discards the logical page range [start, start+count): the host
// declares the pages' contents dead. Trimmed pages read as zeroes and their
// physical before-images become invalid pages the garbage collector reclaims
// for free. Like writes, trims become durable at the next Flush (or natural
// synchronization); a trim followed immediately by PowerFail may come back
// mapped, matching a real device's non-flushed TRIM.
func (d *Device) Trim(ctx context.Context, start LPN, count int) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	if count < 0 || start < 0 || int64(start)+int64(count) > d.eng.LogicalPages() {
		return fmt.Errorf("%w: trim range [%d,%d) of %d logical pages", ErrOutOfRange, start, int64(start)+int64(count), d.eng.LogicalPages())
	}
	// A short range's page list stays on the stack; TrimBatch keeps none of
	// it.
	var short [16]LPN
	lpns := short[:min(count, len(short))]
	if count > len(short) {
		lpns = make([]LPN, count)
	}
	for i := range lpns {
		lpns[i] = start + LPN(i)
	}
	return wrapErr(d.eng.TrimBatch(ctx, lpns))
}

// WriteBatch updates every logical page in lpns as one arrival at the device:
// the pages are grouped by the engine's shards and run on the calling
// goroutine, and the simulated time overlaps across channels because every
// die keeps its own clock. Pages of the same shard are written in slice
// order; callers must not rely on the order across shards, as on a real
// multi-channel controller. Batches from several goroutines may overlap.
//
// ctx is honoured throughout the batch, not only at entry: every shard
// re-checks it between operations, so cancelling mid-batch stops each
// shard's remaining sub-batch at an operation boundary. Pages already
// written stay written (and durable per the usual Flush contract); the
// returned error matches ctx.Err() under errors.Is.
func (d *Device) WriteBatch(ctx context.Context, lpns []LPN) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	return wrapErr(d.eng.WriteBatch(ctx, lpns))
}

// ReadBatch reads every logical page in lpns as one arrival, grouped by shard
// as for WriteBatch. Cancellation semantics as for WriteBatch.
func (d *Device) ReadBatch(ctx context.Context, lpns []LPN) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	return wrapErr(d.eng.ReadBatch(ctx, lpns))
}

// TrimBatch trims every logical page in lpns as one arrival, grouped by shard
// as for WriteBatch. Cancellation semantics as for WriteBatch.
func (d *Device) TrimBatch(ctx context.Context, lpns []LPN) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	return wrapErr(d.eng.TrimBatch(ctx, lpns))
}

// Flush forces all dirty state — mapping entries, page-validity buffers — to
// flash, making every completed write and trim durable against power
// failure. With WithCheckpointPath configured it also persists a fresh
// metadata checkpoint, so a later Open of the same path starts warm.
func (d *Device) Flush(ctx context.Context) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	if err := d.eng.Flush(); err != nil {
		return wrapErr(err)
	}
	return d.writeCheckpoint()
}

// Mapped reports whether a logical page currently holds host data: false
// for never-written and trimmed pages. It is an inspection helper (no
// simulated IO is charged), useful in tests and audits.
func (d *Device) Mapped(lpn LPN) (bool, error) {
	if d.closed.Load() {
		return false, ErrClosed
	}
	mapped, err := d.eng.Mapped(lpn)
	return mapped, wrapErr(err)
}

// Close flushes dirty state and marks the device closed; subsequent
// operations return ErrClosed. Closing a power-failed device skips the flush
// (there is no power to flush with) and still closes. With
// WithCheckpointPath configured, a clean Close writes the shutdown
// checkpoint after the flush; a power-failed Close writes nothing, so the
// path holds at most the previous (still atomic, still loadable) checkpoint.
func (d *Device) Close(ctx context.Context) error {
	// Honour the context before latching the closed state: a cancelled
	// Close must stay retryable, or the promised final flush could never
	// run.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if d.closed.Swap(true) {
		return ErrClosed
	}
	// Stop the submission path first: a submission already executing
	// finishes and none starts after, so nothing lands after the flush and
	// checkpoint below.
	d.q.Close()
	err := d.closeFlush()
	if rerr := d.checkpointLock.Release(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// closeFlush is Close's flush-and-checkpoint step.
func (d *Device) closeFlush() error {
	if err := d.eng.Flush(); err != nil {
		if wrapped := wrapErr(err); errors.Is(wrapped, ErrPowerFailed) {
			return nil
		}
		return wrapErr(err)
	}
	return d.writeCheckpoint()
}

// PowerFail simulates a power failure. Without a battery the rail is cut
// abruptly: operations in flight fail with ErrPowerFailed, all RAM state is
// lost, flash survives. DFTL and µ-FTL have a battery (their FTLKind carries
// it), so their dirty state is flushed before the rail drops. A second
// PowerFail before Recover returns ErrPowerFailed.
func (d *Device) PowerFail() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if err := d.eng.PowerFail(); err != nil {
		return fmt.Errorf("%w: %w", ErrPowerFailed, err)
	}
	return nil
}

// RecoveryReport describes a completed Recover: the wall-clock of the
// parallel per-shard recovery (the slowest shard's duration), what a
// serialized scan would have cost, the IO spent, and one ShardRecovery per
// shard. Its Speedup method returns SerialTime/WallClock.
type RecoveryReport = ftl.EngineRecoveryReport

// ShardRecovery is one engine shard's share of a recovery: the shard index
// (the channel index under the default one-shard-per-channel layout) and the
// shard's own duration, IO and recreated mapping entries.
type ShardRecovery = ftl.ShardRecoveryReport

// Recover restores the device after PowerFail, running each shard's recovery
// procedure (GeckoRec for GeckoFTL) concurrently across channels. It returns
// a report of the work done, or an error when no PowerFail preceded it.
// Synchronized (flushed) writes and trims are guaranteed to survive; dirty
// state from the crash window is recovered by the bounded backwards scan
// where possible.
//
// A successful Recover starts a fresh measurement window, exactly as
// ResetStats would: the recovery scan's own IO (reported in the
// RecoveryReport) is orders of magnitude larger than a write's, and charging
// it to the host window would let one post-recovery Snapshot report a
// write-amplification wildly disconnected from the workload — or mix windows
// split by the crash. Cumulative counters (Snapshot.Ops, Snapshot.GC) are
// unaffected.
func (d *Device) Recover(ctx context.Context) (*RecoveryReport, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	rep, err := d.eng.Recover()
	if err != nil {
		return nil, wrapErr(err)
	}
	// Re-base the measurement window (see above): without this, the window
	// inherited from before the crash still counts the recovery IO and the
	// pre-crash writes, and a Snapshot taken after further traffic reports a
	// write-amplification for a window no workload ever produced.
	d.ResetStats()
	return rep, nil
}

// RestartReport describes a completed Restart: whether the device came back
// warm from its shutdown checkpoint, and what the restart cost.
type RestartReport struct {
	// Warm reports that the restart restored all FTL metadata from the
	// shutdown checkpoint instead of running GeckoRec.
	Warm bool
	// CheckpointBytes is the encoded size of the shutdown checkpoint, zero
	// when checkpointing is unsupported for this configuration.
	CheckpointBytes int64
	// WallClock is the restart's cost: for a warm restart, the modeled host
	// time to read and apply the checkpoint (model.WarmRestart); for a cold
	// fallback, the simulated GeckoRec recovery wall-clock.
	WallClock time.Duration
	// Fallback is the classified reason the warm path was not taken
	// (errors.Is ErrCheckpointInvalid); nil when Warm.
	Fallback error
	// Recovery is the cold fallback's recovery report; nil when Warm.
	Recovery *RecoveryReport
}

// Restart simulates a clean shutdown and reboot on the same device: flush,
// write the shutdown checkpoint, drop all RAM state, and come back up. With
// a valid checkpoint the restart is warm — every piece of FTL metadata is
// restored from the checkpoint at host-read speed, with zero flash IO. If
// the checkpoint cannot be taken (ErrCheckpointUnsupported configurations),
// written, or loaded, Restart falls back to GeckoRec cold recovery and
// reports why in RestartReport.Fallback; a bad checkpoint is never an
// error. The checkpoint is encoded once into the buffer the device keeps for
// it, the file written from it and reloaded into it, and each shard decodes
// it into its own RAM: nothing restored aliases the buffer, which the next
// checkpoint overwrites. Like Recover, a completed Restart starts a
// fresh measurement window. Restarting a power-failed device fails with
// ErrPowerFailed — use Recover for crashes; Restart models the orderly
// reboot.
func (d *Device) Restart(ctx context.Context) (*RestartReport, error) {
	if err := d.guard(ctx); err != nil {
		return nil, err
	}
	if err := d.eng.Flush(); err != nil {
		return nil, wrapErr(err)
	}
	d.ckptBufMu.Lock()
	defer d.ckptBufMu.Unlock()
	var (
		file     *checkpoint.File
		bytes    int64
		fallback error
	)
	switch data, err := d.eng.EncodeCheckpoint(d.ckptBuf[:0]); {
	case errors.Is(err, ftl.ErrCheckpointUnsupported):
		fallback = checkpointErr(err)
	case err != nil:
		return nil, wrapErr(err)
	default:
		d.ckptBuf, file = data, &d.ckptFile
		bytes = int64(len(data))
		if d.checkpointPath != "" {
			// Persist the shutdown checkpoint and reload it through the real
			// file path, into the same buffer, so the restart exercises the
			// same bytes a later Open would see.
			if err := checkpoint.WriteFile(d.checkpointPath, data); err != nil {
				return nil, err
			}
			d.ckptMu.Lock()
			d.ckptBytes = bytes
			d.ckptMu.Unlock()
			_, err = checkpoint.ReadFile(file, d.checkpointPath, data)
		} else {
			err = checkpoint.DecodeInto(file, data)
		}
		if err != nil {
			file, fallback = nil, checkpointErr(err)
		}
	}
	// The reboot: the rail drops and every RAM structure is lost.
	if err := d.eng.PowerFail(); err != nil {
		return nil, wrapErr(err)
	}
	if file != nil {
		if err := d.eng.RestoreCheckpoint(file); err != nil {
			file, fallback = nil, checkpointErr(err)
		}
	}
	if file != nil {
		d.setCheckpointLoad(CheckpointLoad{Attempted: true, Loaded: true, Bytes: bytes})
		d.ResetStats()
		return &RestartReport{
			Warm:            true,
			CheckpointBytes: bytes,
			WallClock:       model.WarmRestart(bytes).WallClock,
		}, nil
	}
	rep, err := d.Recover(ctx)
	if err != nil {
		return nil, err
	}
	d.setCheckpointLoad(CheckpointLoad{Attempted: bytes > 0, Bytes: bytes, Err: fallback})
	return &RestartReport{
		CheckpointBytes: bytes,
		WallClock:       rep.WallClock,
		Fallback:        fallback,
		Recovery:        rep,
	}, nil
}

// CheckConsistency audits every shard's translation map against the flash
// contents: every mapped logical page must point at a programmed physical
// page that names it, and no two logical pages may share a physical page.
// The device must be quiesced. Tests and the recovery examples run it after
// crashes.
func (d *Device) CheckConsistency() error {
	if d.closed.Load() {
		return ErrClosed
	}
	return wrapErr(d.eng.CheckConsistency())
}
