package sim

import (
	"reflect"
	"testing"
)

// TestQueueSweepDeterministic pins that the sweep's results are a pure
// function of its options: admission decisions and latency accounting happen
// on each shard's virtual timeline in submission order, so host goroutine
// scheduling must not leak into any row.
func TestQueueSweepDeterministic(t *testing.T) {
	opts := Params{Scale: QuickScale(), Depths: []int{8}}
	opts.Scale.MeasureWrites = 1500
	first, err := QueueSweep(opts)
	if err != nil {
		t.Fatalf("QueueSweep: %v", err)
	}
	second, err := QueueSweep(opts)
	if err != nil {
		t.Fatalf("QueueSweep (rerun): %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two runs with identical options diverged:\n%+v\n%+v", first, second)
	}
}
