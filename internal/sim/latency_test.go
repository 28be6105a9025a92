package sim

import (
	"math"
	"testing"

	"geckoftl/internal/ftl"
)

// TestLatencySweepTrends pins the acceptance bars of the latency experiment:
// under zipfian skew the incremental GC scheduler must deliver strictly
// lower p99.9 write latency than inline scheduling at both victim policies,
// write-amplification must stay within 5%, and the measured worst-case GC
// stall of every incremental point must respect the analytic bound.
func TestLatencySweepTrends(t *testing.T) {
	points, err := LatencySweep(Params{Scale: QuickScale()})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3*2*2 {
		t.Fatalf("expected 12 points, got %d", len(points))
	}

	type key struct{ wl, policy string }
	inline := map[key]LatencyPoint{}
	incremental := map[key]LatencyPoint{}
	for _, p := range points {
		k := key{p.Workload, p.Policy}
		switch p.GCMode {
		case ftl.GCInline.String():
			inline[k] = p
		case ftl.GCIncremental.String():
			incremental[k] = p
		default:
			t.Fatalf("unexpected GC mode %q", p.GCMode)
		}
		if p.Writes <= 0 || p.Write.Count != p.Writes {
			t.Errorf("%s/%s/%s: recorded %d write latencies for %d writes",
				p.Workload, p.Policy, p.GCMode, p.Write.Count, p.Writes)
		}
		if p.GCStalledWrites.Count == 0 {
			t.Errorf("%s/%s/%s: steady-state window saw no GC-stalled writes", p.Workload, p.Policy, p.GCMode)
		}
	}

	for k, inc := range incremental {
		inl, ok := inline[k]
		if !ok {
			t.Fatalf("no inline counterpart for %v", k)
		}
		// The incremental budget is a hard bound (no fallbacks, measured
		// stall within the model's prediction).
		if inc.GCFallbacks != 0 {
			t.Errorf("%v: incremental GC fell back to inline %d times", k, inc.GCFallbacks)
		}
		if inc.MaxGCStall > inc.ModelStallBound {
			t.Errorf("%v: measured worst-case stall %v exceeds the model bound %v",
				k, inc.MaxGCStall, inc.ModelStallBound)
		}
		// Bounded stalls must not cost IO: WA within 5% of inline on the
		// skewed workloads the acceptance bar names. Uniform random updates
		// are the adversarial worst case for the early-engagement headroom
		// (every block of lead is slack the collector cannot use), so they
		// get a looser 10% bar.
		waBar := 0.05
		if k.wl == "uniform" {
			waBar = 0.10
		}
		if math.Abs(inc.WA-inl.WA)/inl.WA > waBar {
			t.Errorf("%v: incremental WA %.4f deviates more than %.0f%% from inline WA %.4f",
				k, inc.WA, 100*waBar, inl.WA)
		}
		// The headline claim, pinned under zipfian skew: the tail moves down.
		if k.wl == "zipfian" && inc.Write.P999 >= inl.Write.P999 {
			t.Errorf("%v: incremental p99.9 %v not strictly below inline p99.9 %v",
				k, inc.Write.P999, inl.Write.P999)
		}
		// Incremental scheduling spreads the same reclaim work over more
		// writes: more writes observe a (small) stall.
		if inc.GCStalledWrites.Count <= inl.GCStalledWrites.Count {
			t.Errorf("%v: incremental stalled-write count %d not above inline %d",
				k, inc.GCStalledWrites.Count, inl.GCStalledWrites.Count)
		}
	}
}

// TestLatencySweepValidatesInput mirrors the other sweeps' input checking.
func TestLatencySweepValidatesInput(t *testing.T) {
	if _, err := LatencySweep(Params{}); err == nil {
		t.Fatal("expected an error for a zero measured window")
	}
}
