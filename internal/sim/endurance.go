package sim

import (
	"errors"
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/workload"
)

// EndurancePoint is one row of the endurance sweep: a device with a finite
// per-block erase budget and a fault-injection plan, driven until it dies,
// reporting its lifetime in host writes.
type EndurancePoint struct {
	// Workload names the write pattern.
	Workload string
	// Policy is "baseline" (LIFO free-block reuse, no wear-leveling) or
	// "wear-aware" (coldest-erase-count-first allocation plus the Appendix D
	// gradual-scan wear-leveler).
	Policy string
	// WearAware reports whether the point ran the wear-aware policy.
	WearAware bool
	// FaultRate is the injected program-failure probability per page program
	// (erase failures are injected at half this rate).
	FaultRate float64
	// MaxEraseCount is the per-block erase budget.
	MaxEraseCount int
	// Lifetime is the number of host writes served before the device died of
	// capacity exhaustion. The sweep's acceptance bars: strictly decreasing
	// in FaultRate at fixed policy, strictly larger for wear-aware at fixed
	// rate.
	Lifetime int64
	// BadBlocks and ProgramRetries describe the fault damage at death.
	BadBlocks, ProgramRetries int64
	// EraseSpread is the erase-count spread at death: how unevenly the
	// budget was consumed.
	EraseSpread int
	// Capped reports that the run hit the write cap instead of dying; a
	// capped Lifetime is a lower bound, not a lifetime.
	Capped bool
}

const (
	// enduranceMaxErase is the per-block erase budget.
	enduranceMaxErase = 24
	// enduranceWorkload is the write pattern: skew is what separates
	// wear-aware allocation from LIFO reuse, because a skewed stream recycles
	// hot blocks while stranding budget in cold ones.
	enduranceWorkload = "zipfian"
)

// enduranceFaultRates are the program-failure rates swept. Rates share the
// scale's seed, so the injected failure sets are nested across rates (a
// failure at rate r also fails at every r' > r), which keeps the lifetime
// trend monotone by construction rather than by luck.
var enduranceFaultRates = []float64{0, 0.02, 0.08}

// capacityExhausted reports the errors that mean the device died of lost
// capacity — the expected end of an endurance run.
func capacityExhausted(err error) bool { return errors.Is(err, ftl.ErrNoSpace) }

// EnduranceSweep measures device lifetime — host writes served until capacity
// exhaustion — across {fault rate} x {allocation policy} on a device with a
// finite per-block erase budget. Every point drives the same workload stream
// into a fresh device until the FTL can no longer make space, the endurance
// counterpart of the paper's claim that placement decides lifetime as well as
// throughput: the budget a policy strands in cold blocks is budget the device
// dies without spending. The scale sizes the device and cache and seeds the
// workload and fault plan; MeasureWrites is not used: endurance runs until
// death.
func EnduranceSweep(scale ExperimentScale) ([]EndurancePoint, error) {
	var points []EndurancePoint
	for _, wearAware := range []bool{false, true} {
		for _, rate := range enduranceFaultRates {
			p, err := endurancePoint(scale, rate, wearAware)
			if err != nil {
				return nil, fmt.Errorf("sim: endurance (fault=%.2f, wearAware=%v): %w", rate, wearAware, err)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// endurancePoint drives one device to death.
func endurancePoint(scale ExperimentScale, rate float64, wearAware bool) (EndurancePoint, error) {
	run, err := newEngineRun(runSpec{
		scale: scale, channels: 1, workload: enduranceWorkload,
		maxErase: enduranceMaxErase,
		faults:   flash.FaultPlan{Seed: scale.Seed, ProgramFailRate: rate, EraseFailRate: rate / 2},
		tune: func(o *ftl.Options) {
			o.WearAwareAllocation = wearAware
			o.WearLeveling = wearAware
		},
	})
	if err != nil {
		return EndurancePoint{}, err
	}
	// Runaway guard: the device cannot program more pages than its total
	// erase budget allows; 3x that in host writes is unreachable.
	cap := 3 * int64(run.cfg.Blocks) * int64(run.cfg.PagesPerBlock) * enduranceMaxErase

	policy := "baseline"
	if wearAware {
		policy = "wear-aware"
	}
	p := EndurancePoint{
		Workload:      enduranceWorkload,
		Policy:        policy,
		WearAware:     wearAware,
		FaultRate:     rate,
		MaxEraseCount: enduranceMaxErase,
	}
	for p.Lifetime < cap {
		op := run.gen.Next()
		if op.Kind != workload.OpWrite {
			continue
		}
		if err := run.eng.Write(op.Page); err != nil {
			if capacityExhausted(err) {
				break
			}
			return EndurancePoint{}, err
		}
		p.Lifetime++
	}
	p.Capped = p.Lifetime >= cap
	st := run.eng.Stats()
	p.BadBlocks = st.BadBlocks
	p.ProgramRetries = st.ProgramRetries
	minErase, maxE, _ := run.dev.BlocksEndurance()
	p.EraseSpread = maxE - minErase
	return p, nil
}
