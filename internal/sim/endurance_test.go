package sim

import (
	"testing"

	"geckoftl/internal/ftl"
)

// TestCostBenefitOutlivesMetadataAware pins the win the cost-benefit victim
// policy is kept for: on the endurance workload (zipfian, a 24-erase budget,
// one channel, no faults, no wear-aware allocation) it serves at least 3 %
// more host writes before the device dies than the metadata-aware greedy
// policy does. Its age clock is the shard's own write sequence, so the row
// also exercises that clock on one shard.
func TestCostBenefitOutlivesMetadataAware(t *testing.T) {
	scale := QuickScale()
	greedy, err := endurancePoint(scale, 0, false, ftl.VictimMetadataAware)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := endurancePoint(scale, 0, false, ftl.VictimCostBenefit)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Capped || cb.Capped {
		t.Fatalf("a run hit the write cap: metadata-aware %+v, cost-benefit %+v", greedy, cb)
	}
	t.Logf("lifetime in host writes: metadata-aware %d, cost-benefit %d", greedy.Lifetime, cb.Lifetime)
	if gain := float64(cb.Lifetime)/float64(greedy.Lifetime) - 1; gain < 0.03 {
		t.Errorf("cost-benefit lifetime %d is %+.1f %% against metadata-aware %d, want at least +3 %%",
			cb.Lifetime, 100*gain, greedy.Lifetime)
	}
}
