package model

import "time"

// Warm-restart cost model. A clean shutdown writes a metadata checkpoint to
// the host; the next start reads it back at host bandwidth and rebuilds RAM
// state with zero flash IO, so warm-restart time is a function of the
// checkpoint's size rather than of device capacity — the quantity GeckoRec
// can only bound, a checkpoint eliminates.
const (
	// CheckpointReadBandwidth is the assumed host read bandwidth for the
	// checkpoint file, in bytes per second (1 GiB/s: a modest host flash
	// device or NVMe namespace reserved for controller metadata).
	CheckpointReadBandwidth = int64(1) << 30
	// CheckpointBaseLatency is the fixed cost of a warm restart before the
	// first byte: opening the file, header validation, and the controller
	// queries that confirm the checkpoint matches device truth.
	CheckpointBaseLatency = 100 * time.Microsecond
)

// Per-record encoded sizes of the checkpoint format (mirroring
// internal/ftl's section encoders); the estimate is a close lower bound of
// the real file, which adds per-section framing and the engine header.
const (
	checkpointBlockRecordBytes = 30
	checkpointGMDRecordBytes   = 8
	checkpointCacheRecordBytes = 17
)

// CheckpointSize estimates the encoded size in bytes of a metadata
// checkpoint for a device with the given parameters: per-block state, the
// GMD, up to C cached mapping entries, and (when hot/cold separation is on,
// which the estimate assumes off) per-LPN heat state.
func CheckpointSize(p Parameters) int64 {
	return p.Blocks*checkpointBlockRecordBytes +
		p.TranslationPages()*checkpointGMDRecordBytes +
		p.CacheEntries*checkpointCacheRecordBytes
}

// WarmRestartEstimate is the modeled cost of loading a checkpoint at start.
type WarmRestartEstimate struct {
	// Bytes is the checkpoint size the estimate was computed for.
	Bytes int64
	// WallClock is the modeled time to read and import the checkpoint.
	WallClock time.Duration
}

// WarmRestart models a warm restart from a checkpoint of the given size:
// the fixed validation latency plus the file read at host bandwidth.
func WarmRestart(bytes int64) WarmRestartEstimate {
	return WarmRestartEstimate{
		Bytes:     bytes,
		WallClock: CheckpointBaseLatency + time.Duration(bytes*int64(time.Second)/CheckpointReadBandwidth),
	}
}
