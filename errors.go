package geckoftl

import (
	"errors"
	"fmt"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/queue"
)

// The public error taxonomy. Every data-path failure a Device method returns
// — closed device, lost power, bad address, rejected configuration — matches
// exactly one of these sentinels under errors.Is (or is a context error from
// the caller's ctx); the sentinels wrap the internal errors they classify,
// so the full internal chain stays inspectable. Misuse and audit failures
// outside the taxonomy (Recover without a preceding PowerFail, a failed
// CheckConsistency) are returned as descriptive errors matching none of the
// sentinels.
var (
	// ErrClosed is returned by operations on a Device after Close.
	ErrClosed = errors.New("geckoftl: device is closed")
	// ErrPowerFailed is returned while the device is in the power-failed
	// state: by operations issued between PowerFail and a successful
	// Recover, and by a second PowerFail.
	ErrPowerFailed = errors.New("geckoftl: device is power-failed")
	// ErrOutOfRange is returned for logical pages outside [0, LogicalPages).
	ErrOutOfRange = errors.New("geckoftl: logical page out of range")
	// ErrInvalidConfig is returned by Open for option combinations the
	// device or FTL rejects, and by the workload constructors and flag
	// parsers (WorkloadByName, NewZipfian, ParseGCMode, ...) for rejected
	// parameters.
	ErrInvalidConfig = errors.New("geckoftl: invalid configuration")
	// ErrReadDecayed is returned by Read when the page's payload decayed
	// from read disturb before the FTL relocated it. It only arises under a
	// fault plan with a ReadDisturbLimit (WithFaultPlan) and signals real
	// data loss; set FTLOptions.ScrubReadThreshold below the limit to
	// prevent it.
	ErrReadDecayed = errors.New("geckoftl: page payload decayed before scrub")
	// ErrCheckpointInvalid classifies a rejected metadata checkpoint: bad
	// magic, version skew, truncation, a checksum mismatch, or a stale
	// content sequence versus device truth. It is never returned by Open or
	// Restart — a rejected checkpoint falls back to a cold start / GeckoRec
	// — but is inspectable via CheckpointLoad.Err and RestartReport.Fallback
	// under errors.Is.
	ErrCheckpointInvalid = errors.New("geckoftl: checkpoint file is invalid")
	// ErrCheckpointLocked is returned by Open when the WithCheckpointPath
	// file is already locked by another live device: two devices flushing
	// checkpoints to one path would silently corrupt each other's warm
	// restarts, so the second Open fails fast instead.
	ErrCheckpointLocked = errors.New("geckoftl: checkpoint path is locked by another device")
	// ErrQueueFull is delivered through a Ticket when the shedding admission
	// policy (AdmitShed) drops an asynchronous submission whose shard backlog
	// exceeded the queue depth's budget; the drop is counted in
	// Snapshot.Queue.Shed.
	ErrQueueFull = errors.New("geckoftl: submission queue is full")
)

// checkpointErr classifies a checkpoint load failure under
// ErrCheckpointInvalid, keeping the internal chain inspectable.
func checkpointErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrCheckpointInvalid) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCheckpointInvalid, err)
}

// configErr classifies a parameter-validation error from an internal
// constructor or parser under ErrInvalidConfig. The raw internal error stays
// in the chain for its message.
func configErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrInvalidConfig) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
}

// wrapErr classifies an internal error under the public taxonomy. Errors
// already carrying a public sentinel pass through untouched.
func wrapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrClosed), errors.Is(err, ErrPowerFailed),
		errors.Is(err, ErrOutOfRange), errors.Is(err, ErrInvalidConfig),
		errors.Is(err, ErrReadDecayed), errors.Is(err, ErrCheckpointInvalid),
		errors.Is(err, ErrCheckpointLocked), errors.Is(err, ErrQueueFull):
		return err
	case errors.Is(err, flash.ErrPowerFailed):
		return fmt.Errorf("%w: %w", ErrPowerFailed, err)
	case errors.Is(err, flash.ErrOutOfRange):
		return fmt.Errorf("%w: %w", ErrOutOfRange, err)
	case errors.Is(err, flash.ErrReadDecayed):
		return fmt.Errorf("%w: %w", ErrReadDecayed, err)
	case errors.Is(err, checkpoint.ErrLocked):
		return fmt.Errorf("%w: %w", ErrCheckpointLocked, err)
	case errors.Is(err, queue.ErrFull):
		return fmt.Errorf("%w: %w", ErrQueueFull, err)
	case errors.Is(err, queue.ErrClosed):
		return fmt.Errorf("%w: %w", ErrClosed, err)
	default:
		return err
	}
}
