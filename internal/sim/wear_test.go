package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

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
