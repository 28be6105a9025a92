package sim

import "testing"

func TestChannelSweep(t *testing.T) {
	scale := QuickScale()
	scale.MeasureWrites = 2000
	points, err := ChannelSweep(Params{Scale: scale, Channels: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	one, four := points[0], points[1]
	if one.Channels != 1 || four.Channels != 4 {
		t.Fatalf("unexpected channel counts %d, %d", one.Channels, four.Channels)
	}
	if one.Speedup != 1 {
		t.Errorf("1-channel speedup = %f, want 1", one.Speedup)
	}
	// On one channel the wall-clock is the serial time; on four, well below.
	if one.WallTime != one.SerialTime {
		t.Errorf("1-channel wall %v != serial %v", one.WallTime, one.SerialTime)
	}
	if four.WallTime >= four.SerialTime/2 {
		t.Errorf("4-channel wall %v not under half of serial %v", four.WallTime, four.SerialTime)
	}
	if four.Speedup < 2 {
		t.Errorf("4-channel speedup %.2fx, want >= 2x", four.Speedup)
	}
	for _, p := range points {
		if p.Writes < scale.MeasureWrites {
			t.Errorf("%d channels measured %d writes, want >= %d", p.Channels, p.Writes, scale.MeasureWrites)
		}
		if p.WA < 1 {
			t.Errorf("%d channels WA %.3f, want >= 1", p.Channels, p.WA)
		}
		if p.Throughput <= 0 || p.ModelThroughput <= 0 {
			t.Errorf("%d channels throughput %.1f / model %.1f, want positive", p.Channels, p.Throughput, p.ModelThroughput)
		}
		if p.LoadImbalance < 1 {
			t.Errorf("%d channels load imbalance %.3f, want >= 1", p.Channels, p.LoadImbalance)
		}
	}
}

func TestChannelSweepWorkloads(t *testing.T) {
	scale := QuickScale()
	scale.MeasureWrites = 500
	for _, wl := range []string{"sequential", "zipfian", "hotcold"} {
		points, err := ChannelSweep(Params{Scale: scale, Channels: []int{2}, Workload: wl})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if points[0].Throughput <= 0 {
			t.Errorf("%s: non-positive throughput", wl)
		}
	}
	if _, err := ChannelSweep(Params{Scale: scale, Channels: []int{1}, Workload: "nope"}); err == nil {
		t.Error("expected unknown workload to fail")
	}
	var zero ExperimentScale
	if _, err := ChannelSweep(Params{Scale: zero}); err == nil {
		t.Error("expected zero MeasureWrites to fail instead of yielding NaN speedups")
	}
}

// TestChannelSweepSynchronousDies pins the honesty of the wall-clock: a
// single shard drives all of its dies synchronously, so with 1 channel the
// wall-clock equals the serial time no matter how many dies the channel has.
func TestChannelSweepSynchronousDies(t *testing.T) {
	scale := QuickScale()
	scale.MeasureWrites = 1000
	points, err := ChannelSweep(Params{Scale: scale, Channels: []int{1}, Dies: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.Dies != 4 {
		t.Fatalf("Dies = %d, want 4", p.Dies)
	}
	if p.WallTime != p.SerialTime {
		t.Errorf("1-shard wall %v != serial %v: wall-clock credits die overlap a synchronous shard cannot deliver", p.WallTime, p.SerialTime)
	}
}
