package sim

import (
	"math"
	"testing"

	"geckoftl/internal/model"
)

// TestRecoveryExperimentsAgree requires the recovery simulation, which warms
// each FTL the way the sweeps do before crashing it, to agree with the
// recovery sweep's one-channel capacity point on the same scale.
func TestRecoveryExperimentsAgree(t *testing.T) {
	scale := FullScale()
	results, err := RecoverySimulation(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []model.FTLKind{model.GeckoFTL, model.LazyFTL} {
		sweep, err := recoveryPoint("capacity", scale, kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Name != kind.String() {
				continue
			}
			if diff := math.Abs(float64(r.Duration-sweep.WallClock)) / float64(sweep.WallClock); diff > 0.05 {
				t.Errorf("%v: recovery simulation %v, recovery sweep %v (%.1f %% apart, want <= 5 %%)",
					kind, r.Duration, sweep.WallClock, 100*diff)
			}
		}
	}
}
