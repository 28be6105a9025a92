package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// TestWearSweepTrends pins the wear sweep's two headline claims at quick
// scale: hot/cold separation strictly lowers write-amplification on skewed
// workloads (the tentpole win, with the analytic model predicting the same
// direction), and wear-aware allocation narrows — never widens — the
// erase-count spread of the configuration it extends.
func TestWearSweepTrends(t *testing.T) {
	points, err := WearSweep(Params{Scale: QuickScale()})
	if err != nil {
		t.Fatal(err)
	}
	// 3 workloads x 2 policies x 3 frontier configurations.
	if len(points) != 3*2*3 {
		t.Fatalf("expected 18 points, got %d", len(points))
	}

	type key struct{ wl, policy string }
	single := map[key]WearPoint{}
	separated := map[key]WearPoint{}
	separatedWear := map[key]WearPoint{}
	for _, p := range points {
		k := key{p.Workload, p.Policy}
		switch {
		case p.Frontier == "single":
			single[k] = p
		case p.Frontier == "hotcold" && !p.WearAware:
			separated[k] = p
		case p.Frontier == "hotcold" && p.WearAware:
			separatedWear[k] = p
		default:
			t.Fatalf("unexpected configuration %q/wearAware=%v", p.Frontier, p.WearAware)
		}
		if p.Writes <= 0 {
			t.Errorf("%s/%s/%s: no writes measured", p.Workload, p.Policy, p.Frontier)
		}
		if p.WA < 1 {
			t.Errorf("%s/%s/%s: WA %.3f below 1", p.Workload, p.Policy, p.Frontier, p.WA)
		}
		if p.Erases <= 0 {
			t.Errorf("%s/%s/%s: steady-state window saw no erases", p.Workload, p.Policy, p.Frontier)
		}
		if p.EraseSpread != p.MaxErase-p.MinErase || p.EraseSpread < 0 {
			t.Errorf("%s/%s/%s: inconsistent erase spread %d (min %d, max %d)",
				p.Workload, p.Policy, p.Frontier, p.EraseSpread, p.MinErase, p.MaxErase)
		}
	}

	for k, base := range single {
		sep, ok := separated[k]
		if !ok {
			t.Fatalf("%v: missing separated point", k)
		}
		skewed := k.wl != "uniform"
		if skewed && !(sep.WA < base.WA) {
			t.Errorf("%s/%s: hot/cold separation did not lower WA (single %.3f, hotcold %.3f)",
				k.wl, k.policy, base.WA, sep.WA)
		}
		if base.HotWrites != 0 {
			t.Errorf("%s/%s: single-frontier point reports %d hot writes", k.wl, k.policy, base.HotWrites)
		}
		if skewed && (sep.HotWrites <= 0 || sep.HotWrites >= sep.Writes) {
			t.Errorf("%s/%s: classifier routed %d of %d writes hot; expected a proper split",
				k.wl, k.policy, sep.HotWrites, sep.Writes)
		}
		if !skewed && sep.WA > base.WA*1.10 {
			t.Errorf("%s/%s: separation cost more than 10%% WA on an unskewed workload (single %.3f, hotcold %.3f)",
				k.wl, k.policy, base.WA, sep.WA)
		}
		// The analytic model must predict the measured direction.
		if skewed && !(base.ModelSeparatedWA < base.ModelSingleWA) {
			t.Errorf("%s: model does not predict a separation win (single %.3f, separated %.3f)",
				k.wl, base.ModelSingleWA, base.ModelSeparatedWA)
		}
	}

	for k, sep := range separated {
		aware, ok := separatedWear[k]
		if !ok {
			t.Fatalf("%v: missing wear-aware point", k)
		}
		if aware.EraseSpread > sep.EraseSpread {
			t.Errorf("%s/%s: wear-aware allocation widened the erase spread (%d > %d)",
				k.wl, k.policy, aware.EraseSpread, sep.EraseSpread)
		}
		// Wear-aware allocation reorders the free pool; it must not change
		// how much work is done, only where it lands. Allow a small
		// tolerance for the different victim geometries it induces.
		if aware.WA > sep.WA*1.10 {
			t.Errorf("%s/%s: wear-aware allocation cost more than 10%% WA (%.3f vs %.3f)",
				k.wl, k.policy, aware.WA, sep.WA)
		}
	}
}

// TestWearSweepDeterministic pins same seed, same bytes on a multi-shard
// engine at every victim policy: the cost-benefit policy ages blocks on the
// shard's own program clock, so how the Go scheduler interleaves sibling
// shards inside a batch must not reach any row.
func TestWearSweepDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for run := 0; run < 5; run++ {
		runtime.GOMAXPROCS(1 + run%2)
		points, err := WearSweep(Params{Scale: QuickScale()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Fatalf("run %d (GOMAXPROCS %d) diverged from run 0:\n%s\n%s", run, 1+run%2, got, first)
		}
	}
}
