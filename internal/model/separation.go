package model

import (
	"fmt"
	"math"
)

// SeparationParams describes a two-class (hot/cold) update workload over a
// user-data region, in the terms the hot/cold-separation model needs.
type SeparationParams struct {
	// OverProvision is r, the logical-to-physical ratio of the user region.
	OverProvision float64
	// HotPageFraction is the fraction of logical pages in the hot class.
	HotPageFraction float64
	// HotWriteShare is the fraction of application writes that hit the hot
	// class. HotWriteShare == HotPageFraction means no skew.
	HotWriteShare float64
}

// Validate checks the parameters.
func (p SeparationParams) Validate() error {
	switch {
	case p.OverProvision <= 0 || p.OverProvision >= 1:
		return fmt.Errorf("model: over-provision %g out of range (0,1)", p.OverProvision)
	case p.HotPageFraction <= 0 || p.HotPageFraction >= 1:
		return fmt.Errorf("model: hot page fraction %g out of range (0,1)", p.HotPageFraction)
	case p.HotWriteShare <= 0 || p.HotWriteShare >= 1:
		return fmt.Errorf("model: hot write share %g out of range (0,1)", p.HotWriteShare)
	}
	return nil
}

// The hot/cold separation model predicts the user-data write-amplification
// of a single mixed write frontier versus per-temperature frontiers, under
// the classic rotation approximation (Desnoyers-style mean-field analysis):
//
//   - The frontier writes blocks in sequence and reclaims them one full
//     rotation of the region later, so a page written now is examined for
//     migration after T = P/WA application writes (P physical pages, WA
//     frontier pages written per application write).
//   - A class-c page is overwritten as a Poisson process with rate
//     λ_c = share_c / pages_c per application write, so it is still valid at
//     reclaim with probability exp(-λ_c·T) and is then migrated, re-entering
//     the frontier.
//
// Balancing the per-class flows (fresh writes plus re-circulated migrations)
// against reclaim gives the fixed point solved by mixedWA below:
//
//	WA = Σ_c w_c / (1 - exp(-λ_c · P/WA))
//
// Mixing is what the model charges for: cold pages ride the hot pages'
// short rotation, survive it almost surely, and are re-copied every lap.
// Separated frontiers give each class its own region and therefore its own
// rotation period; the optimal static split of the physical space (found
// numerically) is the model's stand-in for the self-balancing split a greedy
// victim selector converges to. The model covers user data only — the
// translation and page-validity components of measured write-amplification
// ride on top — and its absolute figures lean on the rotation approximation,
// so experiments compare its *trends* (single versus separated on the same
// workload), not its absolute values.

// classWA is the single-class fixed point: WA = 1/(1 - exp(-1/(r·WA))),
// the mixedWA formula with one class of over-provision ratio r.
func classWA(r float64) float64 {
	return mixedWA([]float64{1}, []float64{1 / r})
}

// mixedWA solves WA = Σ_c w_c/(1 - exp(-λ_c·T)), T = P/WA, by fixed-point
// iteration. shares are the per-class write shares (summing to 1) and
// lambdaP the per-class overwrite rates scaled by the physical size of the
// region (λ_c·P), which is how the callers' ratios naturally arrive.
func mixedWA(shares, lambdaP []float64) float64 {
	wa := 1.0
	for iter := 0; iter < 5000; iter++ {
		next := 0.0
		for c := range shares {
			x := lambdaP[c] / wa // λ_c · T
			d := 1 - math.Exp(-x)
			if d < 1e-12 {
				d = 1e-12
			}
			next += shares[c] / d
		}
		// next-wa is the true fixed-point residual; damp the step because
		// the raw iteration oscillates near r -> 1.
		if math.Abs(next-wa) < 1e-9 {
			return next
		}
		wa = (wa + next) / 2
	}
	return wa
}

// SingleFrontierWA predicts the user write-amplification of one mixed write
// frontier serving both classes.
func SingleFrontierWA(p SeparationParams) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	r := p.OverProvision
	// Normalize the region to P = 1 physical page; N = r logical pages.
	lambdaHot := p.HotWriteShare / (p.HotPageFraction * r)
	lambdaCold := (1 - p.HotWriteShare) / ((1 - p.HotPageFraction) * r)
	return mixedWA(
		[]float64{p.HotWriteShare, 1 - p.HotWriteShare},
		[]float64{lambdaHot, lambdaCold},
	), nil
}

// SeparatedFrontierWA predicts the user write-amplification of
// per-temperature write frontiers: each class runs in its own region and the
// physical space is split between the regions to minimize the write-share
// weighted total, which is the split a global greedy victim selector
// converges toward.
func SeparatedFrontierWA(p SeparationParams) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	r := p.OverProvision
	nHot := p.HotPageFraction * r // logical pages per physical page of the whole region
	nCold := (1 - p.HotPageFraction) * r
	best := math.Inf(1)
	const steps = 400
	for i := 1; i < steps; i++ {
		pHot := nHot + (1-r)*float64(i)/steps // hot region: its pages plus a share of the OP
		pCold := 1 - pHot
		if pCold <= nCold {
			continue
		}
		wa := p.HotWriteShare*classWA(nHot/pHot) + (1-p.HotWriteShare)*classWA(nCold/pCold)
		if wa < best {
			best = wa
		}
	}
	return best, nil
}
