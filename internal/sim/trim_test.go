package sim

import "testing"

// TestTrimSweepTrends pins the acceptance bar of the trim experiment: at a
// fixed workload, write-amplification falls strictly and monotonically as
// the host trim fraction rises, because every trimmed page is an invalid
// page the garbage collector no longer has to discover or migrate around.
func TestTrimSweepTrends(t *testing.T) {
	points, err := TrimSweep(Params{Scale: QuickScale()})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expected 4 points, got %d", len(points))
	}
	for i, p := range points {
		if p.Writes <= 0 {
			t.Errorf("point %d measured no writes", i)
		}
		if p.TrimFraction == 0 {
			if p.Trims != 0 || p.TrimmedPages != 0 {
				t.Errorf("zero-fraction point reported %d trims, %d trimmed pages", p.Trims, p.TrimmedPages)
			}
			continue
		}
		if p.Trims == 0 {
			t.Errorf("f=%.2f point issued no trims", p.TrimFraction)
		}
		if p.TrimmedPages == 0 {
			t.Errorf("f=%.2f point invalidated no pages", p.TrimFraction)
		}
		if p.Trim.Count != p.Trims {
			t.Errorf("f=%.2f: recorded %d trim latencies for %d trims", p.TrimFraction, p.Trim.Count, p.Trims)
		}
	}
	for i := 1; i < len(points); i++ {
		prev, cur := points[i-1], points[i]
		if cur.TrimFraction <= prev.TrimFraction {
			t.Fatalf("sweep fractions not increasing: %.2f then %.2f", prev.TrimFraction, cur.TrimFraction)
		}
		if cur.WA >= prev.WA {
			t.Errorf("WA not strictly decreasing with trim fraction: f=%.2f WA=%.4f vs f=%.2f WA=%.4f",
				prev.TrimFraction, prev.WA, cur.TrimFraction, cur.WA)
		}
	}
}

// TestTrimSweepValidatesInput mirrors the other sweeps' input checking.
func TestTrimSweepValidatesInput(t *testing.T) {
	if _, err := TrimSweep(Params{}); err == nil {
		t.Fatal("expected an error for a zero measured window")
	}
	scale := QuickScale()
	if _, err := TrimSweep(Params{Scale: scale, Workload: "nope"}); err == nil {
		t.Fatal("expected an error for an unknown workload")
	}
	if _, err := TrimSweep(Params{Scale: scale, TrimFractions: []float64{1.5}}); err == nil {
		t.Fatal("expected an error for an out-of-range trim fraction")
	}
}
