package sim

import (
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
)

// WearPoint is one row of the wear sweep: the sharded GeckoFTL engine run
// under one workload with one victim policy and one frontier configuration,
// reporting measured write-amplification next to the device's erase-count
// spread — the endurance half of the paper's "where the FTL places data
// decides throughput and lifetime" claim.
type WearPoint struct {
	// Workload and Policy name the write pattern and victim policy.
	Workload, Policy string
	// Frontier is "single" (one user write frontier, the pre-separation
	// baseline) or "hotcold" (per-temperature frontiers driven by the heat
	// classifier).
	Frontier string
	// WearAware reports whether free blocks were handed out
	// coldest-erase-count first.
	WearAware bool
	// Channels is the engine width.
	Channels int
	// Writes is the number of logical writes in the measured window, and
	// HotWrites the subset the heat classifier routed to the hot frontier
	// (zero on single-frontier points).
	Writes, HotWrites int64
	// WA is the measured write-amplification of the window (claim
	// wear.separation-wins).
	WA float64
	// UserWA, TranslationWA and ValidityWA break WA down by purpose.
	UserWA, TranslationWA, ValidityWA float64
	// Erases counts the block erases of the measured window.
	Erases int64
	// MinErase, MaxErase and EraseSpread describe the device's per-block
	// erase counts at the end of the run (cumulative: warm-up included,
	// identically for every point). EraseSpread = MaxErase - MinErase is
	// the wear-evenness figure wear-aware allocation must not worsen.
	MinErase, MaxErase, EraseSpread int
	// ModelSingleWA and ModelSeparatedWA are the analytic user-data
	// write-amplification predictions for the two frontier configurations
	// under the workload's two-class approximation (model.SeparationParams);
	// they predict the direction of the win, not the absolute level.
	ModelSingleWA, ModelSeparatedWA float64
}

// HotPercent is the share of the window's writes the heat classifier routed
// to the hot frontier, in percent: a derived column of the text table.
func (p WearPoint) HotPercent() float64 {
	if p.Writes == 0 {
		return 0
	}
	return 100 * float64(p.HotWrites) / float64(p.Writes)
}

// wearConfig is one frontier configuration of the sweep. Wear-aware
// allocation is measured against the separated configuration (same
// frontiers, different free-block order) so the erase-spread comparison
// isolates the allocation change.
type wearConfig struct {
	frontier  string
	hotCold   bool
	wearAware bool
}

func wearConfigs() []wearConfig {
	return []wearConfig{
		{frontier: "single"},
		{frontier: "hotcold", hotCold: true},
		{frontier: "hotcold", hotCold: true, wearAware: true},
	}
}

// twoClassApprox maps a workload name to the two-class skew approximation
// the analytic model runs on: hotcold is exact by construction (20% of pages
// take 80% of writes), zipfian's top quintile carries ~90% of a
// skew-1.2 Zipf distribution's mass, and uniform has no skew.
func twoClassApprox(wl string, overProvision float64) (model.SeparationParams, bool) {
	p := model.SeparationParams{OverProvision: overProvision}
	switch wl {
	case "uniform":
		p.HotPageFraction, p.HotWriteShare = 0.5, 0.5
	case "zipfian":
		p.HotPageFraction, p.HotWriteShare = 0.2, 0.9
	case "hotcold", "hot-cold":
		p.HotPageFraction, p.HotWriteShare = 0.2, 0.8
	default:
		return p, false
	}
	return p, true
}

// WearSweep measures write-amplification and erase-count spread of the
// sharded GeckoFTL engine across {frontier configuration} x {victim policy}
// x {workload}. Every point runs the same measured window after a
// two-full-overwrite warm-up, so it reflects steady-state garbage
// collection. The headline comparisons: hot/cold separation must strictly
// lower WA on skewed workloads at the same policy, and wear-aware allocation
// must not widen the erase-count spread of the configuration it extends. It
// reads p.Policies (empty means metadata-aware and cost-benefit).
func WearSweep(p Params) ([]WearPoint, error) {
	policies := p.Policies
	if len(policies) == 0 {
		policies = []ftl.VictimPolicy{ftl.VictimMetadataAware, ftl.VictimCostBenefit}
	}
	var points []WearPoint
	for _, wl := range sweepWorkloads {
		for _, policy := range policies {
			for _, cfg := range wearConfigs() {
				pt, err := wearPoint(p.Scale, wl, policy, cfg)
				if err != nil {
					return nil, fmt.Errorf("sim: wear sweep (%s, %v, %s): %w", wl, policy, cfg.frontier, err)
				}
				points = append(points, pt)
			}
		}
	}
	return points, nil
}

// wearPoint measures one configuration.
func wearPoint(scale ExperimentScale, wl string, policy ftl.VictimPolicy, wc wearConfig) (WearPoint, error) {
	run, w, err := measure(runSpec{
		scale: scale, channels: sweepChannels, workload: wl, batchPerDie: shallowBatchPerDie,
		tune: func(o *ftl.Options) {
			o.VictimPolicy = policy
			o.HotColdSeparation = wc.hotCold
			o.WearAwareAllocation = wc.wearAware
		},
	})
	if err != nil {
		return WearPoint{}, err
	}
	minErase, maxErase, _ := run.dev.BlocksEndurance()
	p := WearPoint{
		Workload:    wl,
		Policy:      policy.String(),
		Frontier:    wc.frontier,
		WearAware:   wc.wearAware,
		Channels:    sweepChannels,
		Writes:      w.writes,
		HotWrites:   w.after.HotWrites - w.before.HotWrites,
		WA:          w.wa(),
		Erases:      w.io.TotalOp(flash.OpErase),
		MinErase:    minErase,
		MaxErase:    maxErase,
		EraseSpread: maxErase - minErase,
	}
	p.UserWA, p.TranslationWA, p.ValidityWA = w.breakdown()
	if mp, ok := twoClassApprox(wl, run.cfg.OverProvision); ok {
		if p.ModelSingleWA, err = model.SingleFrontierWA(mp); err != nil {
			return WearPoint{}, err
		}
		if p.ModelSeparatedWA, err = model.SeparatedFrontierWA(mp); err != nil {
			return WearPoint{}, err
		}
	}
	return p, nil
}
