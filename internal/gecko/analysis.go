package gecko

import "math"

// CostModel holds the analytical per-operation IO costs of Table 1 of the
// paper for a page-validity scheme. Costs are expressed in flash reads and
// flash writes per operation; fractional values arise from amortization.
type CostModel struct {
	// UpdateReads and UpdateWrites are the amortized flash reads and writes
	// caused by one update (one page invalidation report).
	UpdateReads, UpdateWrites float64
	// QueryReads and QueryWrites are the flash reads and writes caused by
	// one garbage-collection operation (the GC query plus, for Logarithmic
	// Gecko, the erase-flag insertion it performs).
	QueryReads, QueryWrites float64
	// RAMBytes is the integrated RAM the scheme needs.
	RAMBytes int64
}

// WriteAmplification returns the scheme's contribution to write-amplification
// for a workload in which every logical write produces one page-validity
// update and gcPerWrite garbage-collection operations, with delta the
// write/read latency ratio.
func (m CostModel) WriteAmplification(gcPerWrite, delta float64) float64 {
	if delta <= 0 {
		delta = 1
	}
	perUpdate := m.UpdateWrites + m.UpdateReads/delta
	perGC := m.QueryWrites + m.QueryReads/delta
	return perUpdate + gcPerWrite*perGC
}

// AnalyticalCost returns the Table 1 cost model of this Logarithmic Gecko
// configuration.
//
// An update is amortized over the merges the entry participates in: each
// merge copies V entries per flash write, each entry participates in O(T)
// merges per level, and it crosses L = log_T(K*S/V) levels, so the amortized
// update cost is (T/V)*L reads and writes. A GC query reads one page per
// level and inserts one erase entry, whose cost equals an update's.
func (c Config) AnalyticalCost() CostModel {
	t := float64(c.SizeRatio)
	v := float64(c.EntriesPerPage())
	l := float64(c.Levels())
	perEntry := t / v * l
	return CostModel{
		UpdateReads:  perEntry,
		UpdateWrites: perEntry,
		QueryReads:   l,
		QueryWrites:  perEntry,
		RAMBytes:     c.AnalyticalRAMBytes(),
	}
}

// AnalyticalRAMBytes returns the Appendix B estimate of the integrated RAM
// needed by Logarithmic Gecko: the run directories (two 4-byte integers per
// Gecko page, and at most 2*K*S/V Gecko pages exist) plus the flush buffer
// (one flash page), plus the additional merge buffers when multi-way merging
// is enabled.
func (c Config) AnalyticalRAMBytes() int64 {
	geckoPages := 2 * float64(c.MaxEntries()) / float64(c.EntriesPerPage())
	directories := int64(math.Ceil(geckoPages)) * 8
	buffers := int64(c.PageSize) * 1
	if c.MultiWayMerge {
		buffers = int64(c.PageSize) * int64(2+c.Levels())
	}
	return directories + buffers
}

// FlashPVBCost returns the Table 1 cost model of the baseline that stores the
// Page Validity Bitmap in flash (the µ-FTL approach): every update reads and
// rewrites one PVB page, every GC query reads one PVB page, and the only
// integrated RAM needed is a directory of PVB page locations.
func FlashPVBCost(blocks, pagesPerBlock, pageSize int) CostModel {
	pvbBytes := int64(blocks) * int64(pagesPerBlock) / 8
	pvbPages := float64(pvbBytes) / float64(pageSize)
	return CostModel{
		UpdateReads:  1,
		UpdateWrites: 1,
		QueryReads:   1,
		QueryWrites:  0,
		RAMBytes:     int64(math.Ceil(pvbPages)) * 8,
	}
}

// RAMPVBCost returns the Table 1 cost model of the baseline that keeps the
// Page Validity Bitmap in integrated RAM (the DFTL / LazyFTL approach): no
// IO at all, but B*K/8 bytes of integrated RAM.
func RAMPVBCost(blocks, pagesPerBlock int) CostModel {
	return CostModel{
		RAMBytes: int64(blocks) * int64(pagesPerBlock) / 8,
	}
}

// OptimalSizeRatio returns the size ratio minimizing the analytical
// write-amplification for the given GC-query-to-update ratio and write/read
// cost asymmetry. The paper's Section 5.1 finds T = 2 for its default
// configuration; this helper lets the tuning example explore other regimes.
func OptimalSizeRatio(cfg Config, gcPerWrite, delta float64, maxT int) int {
	bestT, bestWA := 2, math.Inf(1)
	for t := 2; t <= maxT; t++ {
		c := cfg
		c.SizeRatio = t
		wa := c.AnalyticalCost().WriteAmplification(gcPerWrite, delta)
		if wa < bestWA {
			bestT, bestWA = t, wa
		}
	}
	return bestT
}
