package sim

import "testing"

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
