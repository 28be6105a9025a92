package sim

import "testing"

// TestLatencySweepValidatesInput mirrors the other sweeps' input checking.
func TestLatencySweepValidatesInput(t *testing.T) {
	if _, err := LatencySweep(Params{}); err == nil {
		t.Fatal("expected an error for a zero measured window")
	}
}
