package sim

import (
	"testing"

	"geckoftl/internal/ftl"
)

// TestEnduranceSweepTrends pins the endurance experiment's two directional
// claims at quick scale: device lifetime strictly shrinks as the injected
// fault rate grows (at fixed policy), and wear-aware allocation plus
// wear-leveling strictly outlives LIFO reuse (at fixed fault rate) on a
// skewed workload. The sweep is fully deterministic — seeded workload,
// seeded fault hazards nested across rates — so strict inequalities are
// stable, not flaky.
func TestEnduranceSweepTrends(t *testing.T) {
	points, err := EnduranceSweep(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6 (2 policies x 3 fault rates)", len(points))
	}
	byPolicy := map[string][]EndurancePoint{}
	for _, p := range points {
		if p.Capped {
			t.Errorf("%v hit the write cap; lifetime is not a death", p)
		}
		if p.Lifetime <= 0 {
			t.Errorf("%v died before serving a single write", p)
		}
		byPolicy[p.Policy] = append(byPolicy[p.Policy], p)
	}
	for policy, pts := range byPolicy {
		for i := 1; i < len(pts); i++ {
			if pts[i].FaultRate <= pts[i-1].FaultRate {
				t.Fatalf("%s: fault rates not increasing: %v", policy, pts)
			}
			if pts[i].Lifetime >= pts[i-1].Lifetime {
				t.Errorf("%s: lifetime %d at fault=%.2f not below %d at fault=%.2f",
					policy, pts[i].Lifetime, pts[i].FaultRate, pts[i-1].Lifetime, pts[i-1].FaultRate)
			}
		}
		// Faults leave damage behind: nonzero rates must show retries.
		for _, p := range pts {
			if p.FaultRate > 0 && p.ProgramRetries == 0 {
				t.Errorf("%s: fault=%.2f recorded no program retries", policy, p.FaultRate)
			}
		}
	}
	base, wear := byPolicy["baseline"], byPolicy["wear-aware"]
	if len(base) != 3 || len(wear) != 3 {
		t.Fatalf("policies unbalanced: baseline=%d wear-aware=%d", len(base), len(wear))
	}
	for i := range base {
		if wear[i].Lifetime <= base[i].Lifetime {
			t.Errorf("fault=%.2f: wear-aware lifetime %d does not beat baseline %d",
				base[i].FaultRate, wear[i].Lifetime, base[i].Lifetime)
		}
	}
	// With no faults injected, wear-aware allocation must also spend the
	// budget more evenly than LIFO reuse.
	if wear[0].EraseSpread >= base[0].EraseSpread {
		t.Errorf("fault-free erase spread: wear-aware %d not below baseline %d",
			wear[0].EraseSpread, base[0].EraseSpread)
	}
}

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
