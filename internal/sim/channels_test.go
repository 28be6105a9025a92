package sim

import "testing"

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
