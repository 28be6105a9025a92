package sim

import (
	"context"
	"fmt"
	"time"

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
	// maxErase, when positive, is every block's erase budget, and faults is
	// the fault plan installed before the FTL formats the device.
	maxErase int
	faults   flash.FaultPlan
}

// engineRun is the one stack every FTL-level experiment measures: a
// simulated device, the sharded engine over it and the seeded host workload.
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
	cfg := spec.Config()
	cfg.MaxEraseCount = s.maxErase
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	if err := dev.SetFaultPlan(s.faults); err != nil {
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
	cfg = dev.Config()
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
// (or crashes out of) steady-state garbage collection. Two uniform passes
// map only 1-e^-2, about 86.5 %, of the logical pages, so write
// amplification is still climbing when it returns (ROADMAP item 18). It
// returns the number of writes it targeted.
func (r *engineRun) warm() (int64, error) {
	pre := 2 * r.eng.LogicalPages()
	if err := r.pump(pre); err != nil {
		return pre, fmt.Errorf("warm-up: %w", err)
	}
	return pre, nil
}

// window is what one measured stretch of an engine run did. open anchors it
// and close turns every anchor into the stretch's delta.
type window struct {
	// run is the engine run measured.
	run *engineRun
	// writes is the number of logical writes served.
	writes int64
	// io is the device IO issued, by operation and purpose.
	io flash.Counters
	// before and after are the engine's logical counters at the edges.
	before, after ftl.Stats
	// latency holds the service-time distributions of the stretch.
	latency ftl.EngineStats
	// elapsed is the device's simulated time and dies each die's busy time.
	elapsed time.Duration
	dies    []time.Duration
}

// open warms the run and anchors a window at the end of the warm-up. It
// makes the one check of the scale's measured window size.
func (r *engineRun) open() (*window, error) {
	if r.scale.MeasureWrites <= 0 {
		return nil, fmt.Errorf("measure writes %d must be positive", r.scale.MeasureWrites)
	}
	if _, err := r.warm(); err != nil {
		return nil, err
	}
	r.eng.ResetLatencyStats()
	return &window{
		run:     r,
		before:  r.eng.Stats(),
		io:      r.dev.Counters(),
		elapsed: r.dev.SimulatedTime(),
		dies:    r.dev.DieTimes(),
	}, nil
}

// close ends the window.
func (w *window) close() {
	r := w.run
	w.after = r.eng.Stats()
	w.writes = w.after.LogicalWrites - w.before.LogicalWrites
	w.io = r.dev.Counters().Sub(w.io)
	w.elapsed = r.dev.SimulatedTime() - w.elapsed
	for d, busy := range r.dev.DieTimes() {
		w.dies[d] = busy - w.dies[d]
	}
	w.latency = r.eng.LatencyStats()
}

// measure builds the run a spec describes, warms it, serves the scale's
// MeasureWrites further logical writes and reports what they cost.
func measure(s runSpec) (*engineRun, *window, error) {
	run, err := newEngineRun(s)
	if err != nil {
		return nil, nil, err
	}
	w, err := run.open()
	if err != nil {
		return nil, nil, err
	}
	if err := run.pump(run.scale.MeasureWrites); err != nil {
		return nil, nil, fmt.Errorf("measurement: %w", err)
	}
	w.close()
	return run, w, nil
}

// wa is the write-amplification of the window.
func (w *window) wa() float64 {
	return w.io.WriteAmplification(w.writes, w.run.cfg.Latency.WriteReadRatio())
}

// breakdown splits the window's write-amplification by purpose as in
// Figure 13 bottom.
func (w *window) breakdown() (user, translation, validity float64) {
	return w.io.WABreakdown(w.writes, w.run.cfg.Latency.WriteReadRatio())
}

// crash power-fails the run, recovers it and audits the recovered state.
func (r *engineRun) crash() (*ftl.EngineRecoveryReport, error) {
	if err := r.eng.PowerFail(); err != nil {
		return nil, err
	}
	report, err := r.eng.Recover()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	if err := r.eng.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("post-recovery audit: %w", err)
	}
	return report, nil
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
