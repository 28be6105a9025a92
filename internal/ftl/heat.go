package ftl

import (
	"math"
)

// The heat-classifier tuning. The half-life is expressed as a fraction of the
// logical address space: with halfLife = logicalPages/2 a page rewritten once
// per full-device overwrite decays to ~1.33 steady-state heat and stays cold,
// while a page rewritten four times as often (the hot set of an 80/20
// workload) reaches ~3.4 and crosses the threshold.
const (
	heatHalfLifeDivisor = 2
	heatThreshold       = 2.0
)

// heatClassifier routes user writes to the hot or cold write frontier. It
// keeps an exponentially-decayed write count per logical page: on every write
// the page's heat decays by 2^(-Δ/halfLife) — Δ being the logical writes
// since the page was last written — and gains one. Pages whose heat reaches
// the threshold are rewritten faster than the decay horizon and classified
// hot.
//
// The decay is computed lazily at touch time from a per-page last-write
// clock, so the classifier costs O(1) per write and no background sweeps. A
// hardware FTL would store the heat in a few bits of fixed-point per entry;
// the RAM model charges 4 bytes per logical page (16-bit heat, 16-bit
// truncated clock).
type heatClassifier struct {
	enabled  bool
	halfLife float64

	// clock counts user writes; heat and last hold per-LPN state indexed by
	// shard-local logical page number.
	clock int64
	heat  []float32
	last  []int64
}

// newHeatClassifier sizes a classifier for logicalPages pages.
func newHeatClassifier(enabled bool, logicalPages int64) *heatClassifier {
	h := &heatClassifier{enabled: enabled}
	if !enabled {
		return h
	}
	h.halfLife = math.Max(1, float64(logicalPages)/heatHalfLifeDivisor)
	h.heat = make([]float32, logicalPages)
	h.last = make([]int64, logicalPages)
	return h
}

// classify records a write to the logical page and returns its temperature.
func (h *heatClassifier) classify(lpn int64) Temperature {
	if !h.enabled {
		return TempCold
	}
	h.clock++
	decayed := float64(h.heat[lpn]) * math.Exp2(-float64(h.clock-h.last[lpn])/h.halfLife)
	next := decayed + 1
	h.heat[lpn] = float32(next)
	h.last[lpn] = h.clock
	if next >= heatThreshold {
		return TempHot
	}
	return TempCold
}

// RAMBytes is the integrated-RAM footprint charged for the classifier: 4
// bytes per logical page when enabled (see the type comment).
func (h *heatClassifier) RAMBytes() int64 {
	if !h.enabled {
		return 0
	}
	return int64(len(h.heat)) * 4
}

// CrashRAM drops the classifier's state, as a power failure would. Heat is
// advisory: losing it only means post-recovery writes start cold and re-warm.
func (h *heatClassifier) CrashRAM() {
	if !h.enabled {
		return
	}
	h.clock = 0
	for i := range h.heat {
		h.heat[i] = 0
		h.last[i] = 0
	}
}
