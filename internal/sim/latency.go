package sim

import (
	"fmt"
	"time"

	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/stats"
)

// LatencyPoint is one row of the latency sweep: the sharded GeckoFTL engine
// run under one workload with one victim policy and one GC scheduling mode,
// reporting the measured window's write-latency distribution next to the
// analytic worst-case-stall bound.
type LatencyPoint struct {
	// Workload, Policy and GCMode name the configuration of this point.
	Workload, Policy, GCMode string
	// GCPagesPerWrite is the incremental step budget (also reported for
	// inline points, where it is ignored by the FTL).
	GCPagesPerWrite int
	// Channels is the engine width.
	Channels int
	// Writes is the number of logical writes in the measured window.
	Writes int64
	// WA is the measured write-amplification of the window; incremental
	// scheduling must not buy latency with extra IO, so the sweep's
	// acceptance bar keeps it within 5% of the inline mode.
	WA float64
	// Write is the per-write service-time distribution (queueing behind the
	// die included, see ftl.EngineStats).
	Write stats.Summary
	// GCStalledWrites is the service-time distribution of writes that
	// performed garbage-collection work.
	GCStalledWrites stats.Summary
	// MaxGCStall is the largest GC stall any single write absorbed.
	MaxGCStall time.Duration
	// ModelStallBound is the analytic worst-case stall: per write under
	// incremental scheduling (model.IncrementalGCStallBound, a hard bound),
	// per victim under inline scheduling (model.InlineGCStallBound, which
	// measured inline stalls may exceed when one write reclaims several
	// victims).
	ModelStallBound time.Duration
	// GCFallbacks counts writes on which the incremental collector broke its
	// budget by falling back to inline reclaim; zero for a healthy
	// configuration, and always zero for inline points.
	GCFallbacks int64
}

// LatencySweep measures per-write tail latency of the sharded GeckoFTL
// engine across {GC mode} x {victim policy} x {workload}. Every point runs
// the same measured window after a two-full-overwrite warm-up, so the
// distributions reflect steady-state garbage collection. The headline
// comparison is inline versus incremental scheduling: incremental mode must
// cut the p99.9 write latency (the GC stall moves out of the tail) while
// keeping write-amplification within 5%, and its measured worst-case stall
// must stay within the analytic bound.
//
// It reads p.Policies (empty means metadata-aware and greedy), p.GCModes
// (empty means inline and incremental) and p.GCPagesPerWrite, the incremental
// step budget (0 selects ftl.DefaultGCPagesPerWrite).
func LatencySweep(p Params) ([]LatencyPoint, error) {
	policies := p.Policies
	if len(policies) == 0 {
		policies = []ftl.VictimPolicy{ftl.VictimMetadataAware, ftl.VictimGreedy}
	}
	modes := p.GCModes
	if len(modes) == 0 {
		modes = []ftl.GCMode{ftl.GCInline, ftl.GCIncremental}
	}
	var points []LatencyPoint
	for _, wl := range sweepWorkloads {
		for _, policy := range policies {
			for _, mode := range modes {
				pt, err := latencyPoint(p, wl, policy, mode)
				if err != nil {
					return nil, fmt.Errorf("sim: latency sweep (%s, %v, %v): %w", wl, policy, mode, err)
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// latencyPoint measures one configuration.
func latencyPoint(params Params, wl string, policy ftl.VictimPolicy, mode ftl.GCMode) (LatencyPoint, error) {
	run, w, err := measure(runSpec{
		scale: params.Scale, channels: sweepChannels, workload: wl, batchPerDie: shallowBatchPerDie,
		tune: func(o *ftl.Options) {
			o.VictimPolicy = policy
			o.GCMode = mode
			o.GCPagesPerWrite = params.GCPagesPerWrite
		},
	})
	if err != nil {
		return LatencyPoint{}, err
	}
	p := LatencyPoint{
		Workload:        wl,
		Policy:          policy.String(),
		GCMode:          mode.String(),
		GCPagesPerWrite: run.eng.Shard(0).Options().GCPagesPerWrite,
		Channels:        sweepChannels,
		Writes:          w.writes,
		WA:              w.wa(),
		Write:           w.latency.Writes,
		GCStalledWrites: w.latency.GCStalledWrites,
		MaxGCStall:      w.latency.MaxGCStall,
		GCFallbacks:     w.after.GCFallbacks - w.before.GCFallbacks,
	}
	if mode == ftl.GCIncremental {
		p.ModelStallBound = model.IncrementalGCStallBound(run.cfg.Latency, p.GCPagesPerWrite)
	} else {
		p.ModelStallBound = model.InlineGCStallBound(run.cfg.Latency, run.cfg.PagesPerBlock)
	}
	return p, nil
}
