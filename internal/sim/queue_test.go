package sim

import (
	"reflect"
	"testing"
)

// TestQueueSweepTrends pins the queue sweep's three headline claims at quick
// scale: (1) a caller keeping depth >= 8 operations in flight through the
// async queue beats the synchronous ceiling at equal caller concurrency;
// (2) delivered throughput tracks the offered rate below the model's
// saturation knee and lands within ~20% of the knee under 2x overload; and
// (3) at 2x overload the shedding admission policy keeps the completed
// operations' p99.9 within the admission budget's neighborhood — counting
// the drops — where the unbounded queue's tail grows with the backlog.
func TestQueueSweepTrends(t *testing.T) {
	points, err := QueueSweep(Params{Scale: QuickScale()})
	if err != nil {
		t.Fatalf("QueueSweep: %v", err)
	}

	var sync *QueuePoint
	closed := map[int]*QueuePoint{}
	var shedRows []*QueuePoint
	var waitRow, unboundedRow, burstyRow *QueuePoint
	for i := range points {
		p := &points[i]
		switch {
		case p.Mode == "closed" && p.Policy == "sync":
			sync = p
		case p.Mode == "closed":
			closed[p.Depth] = p
		case p.Mode == "open" && p.Policy == "shed" && p.Workload == "uniform+poisson":
			shedRows = append(shedRows, p)
		case p.Mode == "open" && p.Policy == "wait":
			waitRow = p
		case p.Mode == "open" && p.Policy == "unbounded":
			unboundedRow = p
		case p.Mode == "open" && p.Policy == "shed":
			burstyRow = p
		}
	}
	if sync == nil || waitRow == nil || unboundedRow == nil || burstyRow == nil || len(shedRows) < 2 {
		t.Fatalf("sweep rows missing: %+v", points)
	}

	// (1) Depth scaling: the async queue at depth >= 8 must beat the
	// synchronous chain, and throughput must not regress as depth grows.
	d8, ok := closed[8]
	if !ok {
		t.Fatal("no closed-loop depth-8 row")
	}
	if d8.Throughput < 1.5*sync.Throughput {
		t.Errorf("async depth 8 throughput %.0f not >= 1.5x sync %.0f", d8.Throughput, sync.Throughput)
	}
	if d1, ok := closed[1]; ok {
		if ratio := d1.Throughput / sync.Throughput; ratio < 0.95 || ratio > 1.05 {
			t.Errorf("depth 1 throughput %.0f should match sync %.0f (one op in flight is the synchronous chain)", d1.Throughput, sync.Throughput)
		}
	}
	prev := 0.0
	for _, d := range []int{1, 4, 8, 16} {
		p, ok := closed[d]
		if !ok {
			continue
		}
		if p.Throughput < 0.98*prev {
			t.Errorf("throughput regressed with depth: %.0f at depth %d after %.0f", p.Throughput, d, prev)
		}
		prev = p.Throughput
	}

	// (2) The knee. Below it, delivered tracks offered; at 2x overload,
	// delivered lands within ~20% of the model's prediction at the row's
	// measured write-amplification.
	overload := shedRows[0]
	for _, p := range shedRows {
		if p.Offered > overload.Offered {
			overload = p
		}
		if p.Offered < 0.8*p.ModelKnee {
			if rel := relErr(p.Throughput, p.Offered); rel > 0.2 {
				t.Errorf("below knee (offered %.0f): delivered %.0f off by %.0f%%", p.Offered, p.Throughput, 100*rel)
			}
		}
	}
	if overload.Offered < 1.5*overload.ModelKnee {
		t.Fatalf("no overload row: max offered %.0f vs knee %.0f", overload.Offered, overload.ModelKnee)
	}
	if rel := relErr(overload.Throughput, overload.ModelKnee); rel > 0.2 {
		t.Errorf("at 2x overload delivered %.0f is %.0f%% from model knee %.0f (want ~20%%)", overload.Throughput, 100*rel, overload.ModelKnee)
	}

	// (3) Admission control under overload: drops are counted, every offered
	// operation is accounted for, and the completed tail stays within the
	// admission budget's neighborhood instead of growing with the backlog.
	if overload.Shed == 0 {
		t.Error("2x overload with shedding admission shed nothing")
	}
	if got := overload.Completed + overload.Shed; got != overload.Ops {
		t.Errorf("overload row accounting: completed %d + shed %d != offered %d", overload.Completed, overload.Shed, overload.Ops)
	}
	if overload.Latency.P999 > 2*overload.DelayBound {
		t.Errorf("overload p99.9 %v exceeds twice the admission budget %v", overload.Latency.P999, overload.DelayBound)
	}
	if waitRow.Delayed == 0 {
		t.Error("2x overload with waiting admission delayed nothing")
	}
	if waitRow.Shed != 0 {
		t.Errorf("waiting admission shed %d operations", waitRow.Shed)
	}
	if waitRow.Latency.P999 > 2*waitRow.DelayBound {
		t.Errorf("wait-policy p99.9 %v exceeds twice the admission budget %v", waitRow.Latency.P999, waitRow.DelayBound)
	}
	if unboundedRow.Shed != 0 || unboundedRow.Delayed != 0 {
		t.Errorf("unbounded row engaged admission control: shed %d, delayed %d", unboundedRow.Shed, unboundedRow.Delayed)
	}
	if unboundedRow.Latency.P999 < 5*overload.Latency.P999 {
		t.Errorf("unbounded overload p99.9 %v should collapse well past the shedding policy's %v", unboundedRow.Latency.P999, overload.Latency.P999)
	}

	// The bursty stream at a nominal rate of the knee must still shed (its
	// burst phases offer several times the knee) while keeping the tail
	// bounded like the Poisson rows.
	if burstyRow.Shed == 0 {
		t.Error("bursty stream at the knee shed nothing despite burst phases over it")
	}
	if burstyRow.Latency.P999 > 2*burstyRow.DelayBound {
		t.Errorf("bursty p99.9 %v exceeds twice the admission budget %v", burstyRow.Latency.P999, burstyRow.DelayBound)
	}
}

// relErr returns |got-want|/want.
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	rel := (got - want) / want
	if rel < 0 {
		rel = -rel
	}
	return rel
}

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
