package sim

import (
	"context"
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// MinSweepShardBlocks is the fewest blocks a sweep allows per shard. Below
// roughly this size a GeckoFTL shard's fixed overheads (active blocks, GC
// reserve, Gecko runs) eat the over-provisioned space and garbage collection
// cannot converge.
const MinSweepShardBlocks = 32

// minSweepShardCache is the fewest mapping-cache entries a sweep allows per
// shard.
const minSweepShardCache = 16

// The dimensions the sweeps hold fixed.
const (
	// sweepChannels is the engine width of the sweeps that vary garbage
	// collection, trims or frontiers rather than topology.
	sweepChannels = 2
	// shallowBatchPerDie is the queue depth those sweeps keep per die:
	// shallow, so the recorded latencies are dominated by GC stalls rather
	// than by queueing behind batchmates.
	shallowBatchPerDie = 2
	// deepBatchPerDie is the queue depth of the throughput sweep and of the
	// fills before a crash: deep enough that every die stays busy.
	deepBatchPerDie = 8
)

var (
	// sweepWorkloads are the write patterns the latency and wear sweeps
	// cross with their other dimensions.
	sweepWorkloads = []string{"uniform", "zipfian", "hotcold"}
	// capacityFactors are the device-size multipliers of the recovery and
	// restart sweeps' capacity dimension.
	capacityFactors = []int{1, 2, 4}
)

// workable grows the device and the engine-wide cache budget until a point
// with the given channel count keeps workable shards. Shards that are too
// small live-lock their garbage collector (every victim stays nearly fully
// valid), and a cache budget divided too thinly rounds to nothing. A sweep
// grows its scale once, for its widest point, and runs every point on the
// grown values: that keeps the points comparable and the total RAM budget
// constant instead of silently giving wide points extra room.
func (s ExperimentScale) workable(channels int) ExperimentScale {
	if min := MinSweepShardBlocks * channels; s.Device.Blocks < min {
		s.Device.Blocks = min
	}
	if min := minSweepShardCache * channels; s.CacheEntries < min {
		s.CacheEntries = min
	}
	return s
}

// runSpec describes one engine run.
type runSpec struct {
	// scale sizes the device, the engine-wide cache budget (divided across
	// shards, so the total RAM budget does not depend on the width) and
	// seeds the workload; it is grown to stay workable at this width.
	scale ExperimentScale
	// channels is the engine width; it overrides scale.Device.Channels.
	channels int
	// kind is the shard's FTL (the zero value is GeckoFTL), and tune, when
	// set, adjusts its options.
	kind model.FTLKind
	tune func(*ftl.Options)
	// workload names the page stream ("" means uniform) and trims is the
	// fraction of host operations that are trims of random pages.
	workload string
	trims    float64
	// batchPerDie is the number of operations dispatched per engine batch
	// for every die of the device: the queue depth the host keeps.
	batchPerDie int
}

// engineRun is the one stack every engine sweep measures: a simulated
// device, the sharded engine over it and the seeded host workload.
type engineRun struct {
	dev   *flash.Device
	eng   *ftl.Engine
	gen   workload.Generator
	cfg   flash.Config
	scale ExperimentScale
	batch int
}

// newEngineRun builds the stack a spec describes.
func newEngineRun(s runSpec) (*engineRun, error) {
	scale := s.scale.workable(s.channels)
	spec := scale.Device
	spec.Channels = s.channels
	dev, err := spec.NewDevice()
	if err != nil {
		return nil, err
	}
	opts := ftl.OptionsFor(s.kind, scale.CacheEntries/s.channels)
	if s.tune != nil {
		s.tune(&opts)
	}
	eng, err := ftl.NewEngine(dev, opts, 0)
	if err != nil {
		return nil, err
	}
	gen, err := workload.ByName(s.workload, eng.LogicalPages(), scale.Seed)
	if err != nil {
		return nil, err
	}
	if s.trims != 0 {
		if gen, err = workload.NewTrimming(gen, eng.LogicalPages(), s.trims, scale.Seed+1); err != nil {
			return nil, err
		}
	}
	cfg := dev.Config()
	return &engineRun{dev: dev, eng: eng, gen: gen, cfg: cfg, scale: scale, batch: s.batchPerDie * cfg.Dies()}, nil
}

// pump dispatches batches until the target number of logical writes has been
// served. Interleaved trims ride along without counting; reads are dropped,
// matching the paper's write-only accounting.
func (r *engineRun) pump(target int64) error {
	ctx := context.Background()
	var done int64
	for done < target {
		_, writes, trims := workload.SplitBatch(workload.TakeBatch(r.gen, r.batch))
		if len(trims) > 0 {
			if err := r.eng.TrimBatch(ctx, trims); err != nil {
				return err
			}
		}
		if len(writes) == 0 {
			continue
		}
		if err := r.eng.WriteBatch(ctx, writes); err != nil {
			return err
		}
		done += int64(len(writes))
	}
	return nil
}

// warm overwrites the logical space twice, so that whatever follows runs in
// (or crashes out of) steady-state garbage collection. It returns the number
// of writes it targeted.
func (r *engineRun) warm() (int64, error) {
	pre := 2 * r.eng.LogicalPages()
	if err := r.pump(pre); err != nil {
		return pre, fmt.Errorf("warm-up: %w", err)
	}
	return pre, nil
}

// window is what one measured stretch of an engine run did.
type window struct {
	// writes is the number of logical writes served.
	writes int64
	// io is the device IO issued, by operation and purpose.
	io flash.Counters
	// before and after are the engine's logical counters at the edges.
	before, after ftl.Stats
	// latency holds the service-time distributions of the stretch.
	latency ftl.EngineStats
	// delta is the device's write/read cost ratio.
	delta float64
}

// measure serves target further logical writes and reports what they cost.
func (r *engineRun) measure(target int64) (window, error) {
	r.eng.ResetLatencyStats()
	w := window{before: r.eng.Stats(), delta: r.cfg.Latency.WriteReadRatio()}
	ioBefore := r.dev.Counters()
	if err := r.pump(target); err != nil {
		return w, fmt.Errorf("measurement: %w", err)
	}
	w.io = r.dev.Counters().Sub(ioBefore)
	w.after = r.eng.Stats()
	w.latency = r.eng.LatencyStats()
	w.writes = w.after.LogicalWrites - w.before.LogicalWrites
	return w, nil
}

// wa is the write-amplification of the window.
func (w window) wa() float64 { return w.io.WriteAmplification(w.writes, w.delta) }

// breakdown splits the window's write-amplification by purpose as in
// Figure 13 bottom.
func (w window) breakdown() (user, translation, validity float64) {
	return w.io.WABreakdown(w.writes, w.delta)
}

// modelParams describes the run's geometry, latencies and engine-wide cache
// budget to the analytic models.
func (r *engineRun) modelParams() model.Parameters {
	p := model.Default()
	p.Blocks = int64(r.cfg.Blocks)
	p.PagesPerBlock = int64(r.cfg.PagesPerBlock)
	p.PageSize = int64(r.cfg.PageSize)
	p.OverProvision = r.cfg.OverProvision
	p.CacheEntries = int64(r.scale.CacheEntries)
	p.Latency = r.cfg.Latency
	return p
}
