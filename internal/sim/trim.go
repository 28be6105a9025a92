package sim

import (
	"fmt"

	"geckoftl/internal/stats"
)

// TrimPoint is one row of the trim sweep: the sharded GeckoFTL engine run
// under the same write workload with an increasing fraction of host trims
// interleaved. Trims supply the garbage collector with invalid pages for
// free, so write-amplification must fall as the trim fraction rises — the
// host-visible half of the paper's GC cost model.
type TrimPoint struct {
	// Workload names the write pattern the trims are interleaved with.
	Workload string
	// TrimFraction is the fraction of host operations that are trims.
	TrimFraction float64
	// Channels is the engine width.
	Channels int
	// Writes and Trims count the logical operations of the measured window.
	Writes, Trims int64
	// TrimmedPages counts the physical before-images invalidated on behalf
	// of the window's trims (identified eagerly or by GeckoFTL's lazy path).
	TrimmedPages int64
	// WA is the measured write-amplification of the window, per logical
	// write (claim trim.wa-falls).
	WA float64
	// UserWA, TranslationWA and ValidityWA break WA down by purpose.
	UserWA, TranslationWA, ValidityWA float64
	// Write is the per-write service-time distribution of the window.
	Write stats.Summary
	// Trim is the per-trim service-time distribution of the window. Under
	// GeckoFTL trims are RAM-only until the next synchronization, so the
	// distribution is dominated by zeroes plus the occasional eviction sync
	// or GC step.
	Trim stats.Summary
}

// TrimSweep measures write-amplification of the sharded GeckoFTL engine as
// the host supplies an increasing fraction of trims. Every point runs the
// same measured window (counted in logical writes) after a
// two-full-overwrite warm-up at the point's own trim fraction, so each
// point is measured in its steady state. It reads p.Workload (empty means
// uniform) and p.TrimFractions (empty means 0, 0.1, 0.2, 0.3).
func TrimSweep(p Params) ([]TrimPoint, error) {
	wl := p.Workload
	if wl == "" {
		wl = "uniform"
	}
	fractions := p.TrimFractions
	if len(fractions) == 0 {
		fractions = []float64{0, 0.1, 0.2, 0.3}
	}
	for _, f := range fractions {
		if f < 0 || f >= 1 {
			return nil, fmt.Errorf("sim: trim fraction %g out of range [0,1)", f)
		}
	}
	var points []TrimPoint
	for _, f := range fractions {
		pt, err := trimPoint(p.Scale, wl, f)
		if err != nil {
			return nil, fmt.Errorf("sim: trim sweep (%s, f=%.2f): %w", wl, f, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

// trimPoint measures one trim fraction.
func trimPoint(scale ExperimentScale, wl string, fraction float64) (TrimPoint, error) {
	_, w, err := measure(runSpec{
		scale: scale, channels: sweepChannels, workload: wl, trims: fraction, batchPerDie: shallowBatchPerDie,
	})
	if err != nil {
		return TrimPoint{}, err
	}
	p := TrimPoint{
		Workload:     wl,
		TrimFraction: fraction,
		Channels:     sweepChannels,
		Writes:       w.writes,
		Trims:        w.after.LogicalTrims - w.before.LogicalTrims,
		TrimmedPages: w.after.TrimmedPages - w.before.TrimmedPages,
		WA:           w.wa(),
		Write:        w.latency.Writes,
		Trim:         w.latency.Trims,
	}
	p.UserWA, p.TranslationWA, p.ValidityWA = w.breakdown()
	return p, nil
}
