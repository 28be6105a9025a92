package sim

import (
	"fmt"
	"time"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/model"
)

// RestartPoint is one measurement of the restart sweep: the same filled,
// flushed GeckoFTL engine is restarted twice — warm, importing the metadata
// checkpoint it wrote at shutdown (zero flash IO, cost set by reading the
// checkpoint at host bandwidth), and cold, running GeckoRec as if the
// checkpoint had been lost — and the two wall-clocks are compared.
type RestartPoint struct {
	// Channels and Shards describe the topology; Blocks the device size.
	Channels, Shards, Blocks int
	// CacheEntries is the engine-wide mapping-cache budget.
	CacheEntries int
	// PreWrites is the number of logical writes issued before the shutdown.
	PreWrites int64
	// CheckpointBytes is the encoded size of the checkpoint file the warm
	// path loads.
	CheckpointBytes int64
	// WarmWallClock is the modeled warm-restart time: checkpoint read at
	// host bandwidth plus validation, with zero flash IO (the import itself
	// consumes no simulated device time).
	WarmWallClock time.Duration
	// ColdWallClock and ColdSerial are the measured GeckoRec recovery of the
	// identical state: slowest-shard critical path and summed per-shard cost.
	ColdWallClock, ColdSerial time.Duration
	// Speedup is ColdWallClock/WarmWallClock.
	Speedup float64
	// ModelWarm and ModelCold are the analytic predictions for the same
	// geometry: model.WarmRestart over the predicted checkpoint size versus
	// model.EngineRecovery for GeckoFTL. Compare trends, not absolutes.
	ModelWarm, ModelCold time.Duration
}

// restartChannels is the topology of every restart point: warm restart cost
// is capacity- and parallelism-independent, so the sweep varies capacity and
// pins the width.
const restartChannels = 1

// RestartSweep measures warm versus cold restart across device sizes. Every
// point fills a GeckoFTL engine to steady state, flushes it, exports the
// shutdown checkpoint, reboots warm from it (auditing consistency), then
// crashes and recovers the same state cold with GeckoRec. Cold recovery
// scans grow with device capacity even though GeckoRec bounds the
// per-structure work; the warm restore costs only the checkpoint read, so
// warm beats cold at every size and the gap widens with capacity.
func RestartSweep(scale ExperimentScale) ([]RestartPoint, error) {
	scale = scale.workable(restartChannels)
	var points []RestartPoint
	for _, factor := range capacityFactors {
		at := scale
		at.Device.Blocks *= factor
		p, err := restartPoint(at)
		if err != nil {
			return nil, fmt.Errorf("sim: restart sweep, x%d capacity: %w", factor, err)
		}
		points = append(points, p)
	}
	return points, nil
}

// restartPoint fills one engine, shuts it down cleanly, restarts it warm
// from its checkpoint, then crashes and recovers the same state cold.
func restartPoint(scale ExperimentScale) (RestartPoint, error) {
	run, err := newEngineRun(runSpec{scale: scale, channels: restartChannels, batchPerDie: deepBatchPerDie})
	if err != nil {
		return RestartPoint{}, err
	}
	pre, err := run.warm()
	if err != nil {
		return RestartPoint{}, err
	}
	eng := run.eng

	// Clean shutdown: flush dirty state, then export the checkpoint the
	// warm restart will load.
	if err := eng.Flush(); err != nil {
		return RestartPoint{}, fmt.Errorf("shutdown flush: %w", err)
	}
	file, err := eng.ExportCheckpoint()
	if err != nil {
		return RestartPoint{}, fmt.Errorf("checkpoint export: %w", err)
	}
	size := int64(checkpoint.Size(file))

	// Warm restart: reboot (drop all RAM state) and import the checkpoint.
	if err := eng.PowerFail(); err != nil {
		return RestartPoint{}, err
	}
	if err := eng.RestoreCheckpoint(file); err != nil {
		return RestartPoint{}, fmt.Errorf("warm restore: %w", err)
	}
	if err := eng.CheckConsistency(); err != nil {
		return RestartPoint{}, fmt.Errorf("post-warm-restore audit: %w", err)
	}

	// Cold restart of the identical state: crash again and run GeckoRec.
	report, err := run.crash()
	if err != nil {
		return RestartPoint{}, fmt.Errorf("cold restart: %w", err)
	}

	warm := model.WarmRestart(size)
	mp := run.modelParams()
	cold := model.EngineRecovery(model.GeckoFTL, mp, eng.Shards())

	speedup := 0.0
	if warm.WallClock > 0 {
		speedup = float64(report.WallClock) / float64(warm.WallClock)
	}
	return RestartPoint{
		Channels:        restartChannels,
		Shards:          eng.Shards(),
		Blocks:          run.cfg.Blocks,
		CacheEntries:    run.scale.CacheEntries,
		PreWrites:       pre,
		CheckpointBytes: size,
		WarmWallClock:   warm.WallClock,
		ColdWallClock:   report.WallClock,
		ColdSerial:      report.SerialTime,
		Speedup:         speedup,
		ModelWarm:       model.WarmRestart(model.CheckpointSize(mp)).WallClock,
		ModelCold:       cold.WallClock,
	}, nil
}
