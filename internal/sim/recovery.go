package sim

import (
	"fmt"
	"slices"
	"time"

	"geckoftl/internal/model"
)

// RecoveryPoint is one measurement of the engine-wide recovery sweep: a
// sharded engine is crashed after a steady-state fill and the cost of
// rebuilding every shard is recorded, next to the analytic model's
// prediction for the same configuration.
type RecoveryPoint struct {
	// Dimension names the axis this point varies: "channels" (recovery
	// parallelism), "checkpoint" (the cache capacity C, which sets the
	// checkpoint interval and the 2C backwards-scan bound), or "capacity"
	// (device blocks, comparing FTLs whose recovery grows with capacity
	// against GeckoFTL's bounded scan).
	Dimension string
	// FTL is the engine's shard configuration.
	FTL string
	// Channels, Dies and Shards describe the topology.
	Channels, Dies, Shards int
	// Blocks is the device size of this point.
	Blocks int
	// CacheEntries is the engine-wide mapping-cache budget (divided across
	// shards).
	CacheEntries int
	// PreWrites is the number of logical writes issued before the crash.
	PreWrites int64
	// WallClock and SerialTime are the engine recovery's slowest-shard
	// critical path and summed per-shard cost (see ftl.EngineRecoveryReport).
	WallClock, SerialTime time.Duration
	// Speedup is SerialTime/WallClock.
	Speedup float64
	// SpareReads, PageReads and PageWrites total the recovery IO.
	SpareReads, PageReads, PageWrites int64
	// RecoveredEntries is the number of mapping entries recreated by the
	// shards' bounded backwards scans.
	RecoveredEntries int
	// ModelWall and ModelSerial are the analytic model.EngineRecovery
	// prediction for the same geometry, shard count and cache budget. The
	// simulation and the model use different device fills, so compare
	// trends, not absolute values.
	ModelWall, ModelSerial time.Duration
}

// RecoverySweep measures engine-wide crash recovery across three axes:
// recovery parallelism (channel count), checkpoint interval (cache capacity)
// and device capacity (GeckoFTL versus LazyFTL). Every point fills a sharded
// engine to steady state, power-fails it, recovers it, verifies consistency,
// and reports the recovery cost next to the analytic model's prediction.
//
// The qualitative trends mirror model.Recovery: wall-clock shrinks with the
// channel count (the per-shard scan shrinks and shards recover in parallel),
// the backwards scan is bounded by the checkpointed 2C spare reads, and
// LazyFTL's recovery grows with capacity while GeckoFTL's cache recovery
// stays bounded.
//
// It reads p.Channels, the parallelism dimension (empty means 1,2,4,8). The
// device and cache grow until the widest point keeps workable shards, and the
// grown values apply to every point.
func RecoverySweep(p Params) ([]RecoveryPoint, error) {
	channels := p.Channels
	if len(channels) == 0 {
		channels = []int{1, 2, 4, 8}
	}
	maxChannels := slices.Max(channels)
	scale := p.Scale.workable(maxChannels)

	var points []RecoveryPoint
	for _, c := range channels {
		pt, err := recoveryPoint("channels", scale, model.GeckoFTL, c)
		if err != nil {
			return nil, fmt.Errorf("sim: recovery sweep, %d channels: %w", c, err)
		}
		points = append(points, pt)
	}
	// The checkpoint dimension runs at the widest channel count with half
	// and double the scale's cache budget (the channels dimension already
	// covers the budget itself).
	for _, cache := range []int{scale.CacheEntries / 2, scale.CacheEntries * 2} {
		at := scale
		at.CacheEntries = cache
		pt, err := recoveryPoint("checkpoint", at, model.GeckoFTL, maxChannels)
		if err != nil {
			return nil, fmt.Errorf("sim: recovery sweep, cache %d: %w", cache, err)
		}
		points = append(points, pt)
	}
	for _, factor := range capacityFactors {
		at := scale
		at.Device.Blocks *= factor
		for _, kind := range []model.FTLKind{model.GeckoFTL, model.LazyFTL} {
			pt, err := recoveryPoint("capacity", at, kind, 1)
			if err != nil {
				return nil, fmt.Errorf("sim: recovery sweep, %v x%d capacity: %w", kind, factor, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// recoveryPoint fills one sharded engine to steady state, crashes it,
// recovers it and audits the result.
func recoveryPoint(dimension string, scale ExperimentScale, kind model.FTLKind, channels int) (RecoveryPoint, error) {
	run, err := newEngineRun(runSpec{scale: scale, channels: channels, kind: kind, batchPerDie: deepBatchPerDie})
	if err != nil {
		return RecoveryPoint{}, err
	}
	// Fill the device past capacity so the crash interrupts steady-state
	// garbage collection with a realistic population of dirty entries.
	pre, err := run.warm()
	if err != nil {
		return RecoveryPoint{}, err
	}
	eng := run.eng
	if err := eng.PowerFail(); err != nil {
		return RecoveryPoint{}, err
	}
	report, err := eng.Recover()
	if err != nil {
		return RecoveryPoint{}, err
	}
	if err := eng.CheckConsistency(); err != nil {
		return RecoveryPoint{}, fmt.Errorf("post-recovery audit: %w", err)
	}
	est := model.EngineRecovery(kind, run.modelParams(), eng.Shards())

	return RecoveryPoint{
		Dimension:        dimension,
		FTL:              eng.Name(),
		Channels:         channels,
		Dies:             run.cfg.Dies(),
		Shards:           eng.Shards(),
		Blocks:           run.cfg.Blocks,
		CacheEntries:     run.scale.CacheEntries,
		PreWrites:        pre,
		WallClock:        report.WallClock,
		SerialTime:       report.SerialTime,
		Speedup:          report.Speedup(),
		SpareReads:       report.SpareReads,
		PageReads:        report.PageReads,
		PageWrites:       report.PageWrites,
		RecoveredEntries: report.RecoveredMappingEntries,
		ModelWall:        est.WallClock,
		ModelSerial:      est.SerialTime,
	}, nil
}
