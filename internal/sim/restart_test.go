package sim

import "testing"

// TestRestartSweepTrends pins the headline claim of the checkpoint
// subsystem: a warm restart from the shutdown checkpoint beats GeckoRec's
// cold recovery wall-clock at every device size, in both the measurement
// and the analytic model.
func TestRestartSweepTrends(t *testing.T) {
	points, err := RestartSweep(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	for i, p := range points {
		if p.CheckpointBytes <= 0 {
			t.Errorf("point %d (blocks %d): checkpoint of %d bytes", i, p.Blocks, p.CheckpointBytes)
		}
		if p.WarmWallClock <= 0 {
			t.Errorf("point %d (blocks %d): non-positive warm wall clock %v", i, p.Blocks, p.WarmWallClock)
		}
		if p.WarmWallClock >= p.ColdWallClock {
			t.Errorf("point %d (blocks %d): warm restart %v not faster than cold recovery %v",
				i, p.Blocks, p.WarmWallClock, p.ColdWallClock)
		}
		if p.ModelWarm >= p.ModelCold {
			t.Errorf("point %d (blocks %d): model predicts warm %v not faster than cold %v",
				i, p.Blocks, p.ModelWarm, p.ModelCold)
		}
		if p.Speedup <= 1 {
			t.Errorf("point %d (blocks %d): speedup %.2f, want > 1", i, p.Blocks, p.Speedup)
		}
		if i > 0 && p.Blocks <= points[i-1].Blocks {
			t.Errorf("point %d: blocks %d not growing past %d", i, p.Blocks, points[i-1].Blocks)
		}
	}
	// The cold scan grows with capacity; the warm restore grows only with
	// the metadata footprint. The absolute gap must widen with device size.
	first, last := points[0], points[len(points)-1]
	if last.ColdWallClock-last.WarmWallClock <= first.ColdWallClock-first.WarmWallClock {
		t.Errorf("warm/cold gap did not widen with capacity: %v at %d blocks, %v at %d blocks",
			first.ColdWallClock-first.WarmWallClock, first.Blocks,
			last.ColdWallClock-last.WarmWallClock, last.Blocks)
	}
}
