package ftl

import (
	"context"
	"testing"
	"time"

	"geckoftl/internal/flash"
	"geckoftl/internal/workload"
)

// newLatencyTestEngine builds a 4-channel engine for instrumentation tests.
func newLatencyTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	cfg := flash.ScaledConfig(128)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.Channels = 4
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dev, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineLatencyStats exercises the tentpole instrumentation end to end:
// batched writes and reads record one service-time observation each, the
// merged distributions behave sanely, queueing behind the die is visible in
// the tail, and resetting empties the histograms.
func TestEngineLatencyStats(t *testing.T) {
	eng := newLatencyTestEngine(t, GeckoFTLOptions(64))
	gen := workload.MustNewUniform(eng.LogicalPages(), 1)
	cfg := eng.dev.Config()

	batch := 4 * cfg.Dies()
	var writes int64
	for writes < 2*eng.LogicalPages() {
		_, targets, _ := workload.SplitBatch(workload.TakeBatch(gen, batch))
		if err := eng.WriteBatch(context.Background(), targets); err != nil {
			t.Fatal(err)
		}
		writes += int64(len(targets))
	}
	reads := make([]flash.LPN, 64)
	for i := range reads {
		reads[i] = gen.Next().Page
	}
	if err := eng.ReadBatch(context.Background(), reads); err != nil {
		t.Fatal(err)
	}

	es := eng.LatencyStats()
	if es.Writes.Count != writes {
		t.Fatalf("recorded %d write latencies for %d writes", es.Writes.Count, writes)
	}
	if es.Reads.Count != int64(len(reads)) {
		t.Fatalf("recorded %d read latencies for %d reads", es.Reads.Count, len(reads))
	}
	if es.Ops.LogicalWrites != writes {
		t.Fatalf("merged op counters report %d writes, want %d", es.Ops.LogicalWrites, writes)
	}
	// A write costs at least one page program; with 4 writes per shard per
	// batch, the p99 must show queueing above a single program.
	if es.Writes.P50 < cfg.Latency.PageWrite {
		t.Fatalf("p50 write latency %v below a single page program %v", es.Writes.P50, cfg.Latency.PageWrite)
	}
	if es.Writes.P99 < 2*cfg.Latency.PageWrite {
		t.Fatalf("p99 write latency %v shows no queueing behind the die", es.Writes.P99)
	}
	if !(es.Writes.P50 <= es.Writes.P99 && es.Writes.P99 <= es.Writes.Max) {
		t.Fatalf("write percentiles not monotonic: %v", es.Writes)
	}
	// Two full overwrites force steady-state GC, so stalled writes exist,
	// are a subset of all writes, and sit in the slow part of the
	// distribution.
	if es.GCStalledWrites.Count == 0 || es.GCStalledWrites.Count >= es.Writes.Count {
		t.Fatalf("GC-stalled write count %d out of range (0, %d)", es.GCStalledWrites.Count, es.Writes.Count)
	}
	if es.MaxGCStall <= 0 {
		t.Fatal("no GC stall recorded despite steady-state GC")
	}
	if es.GCStalledWrites.Max > es.Writes.Max {
		t.Fatalf("stalled-write max %v exceeds overall max %v", es.GCStalledWrites.Max, es.Writes.Max)
	}

	eng.ResetLatencyStats()
	es = eng.LatencyStats()
	if es.Writes.Count != 0 || es.Reads.Count != 0 || es.MaxGCStall != 0 {
		t.Fatalf("reset left observations behind: %+v", es)
	}
}

// TestEngineSingleOpLatencyMultiDie guards the single-page path on
// multi-die shards: a write landing on an idle die must not start before
// the shard's arrival stamp, so no successful write can record less than
// one page program. (Regression: without the partition arrival floor,
// alternate writes on a 2-die shard recorded zero latency.)
func TestEngineSingleOpLatencyMultiDie(t *testing.T) {
	cfg := flash.ScaledConfig(128)
	cfg.PagesPerBlock = 16
	cfg.PageSize = 512
	cfg.Channels = 1
	cfg.DiesPerChannel = 2
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(dev, GeckoFTLOptions(64), 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewUniform(eng.LogicalPages(), 2)
	for i := int64(0); i < 2*eng.LogicalPages(); i++ {
		if err := eng.Write(gen.Next().Page); err != nil {
			t.Fatal(err)
		}
	}
	es := eng.LatencyStats()
	if es.Writes.Count == 0 {
		t.Fatal("no write latencies recorded")
	}
	// Every write issues at least one page program after its arrival stamp,
	// so even the median cannot undercut a single program (with the
	// regression, roughly half the writes recorded zero and dragged the
	// median to zero).
	if es.Writes.P50 < cfg.Latency.PageWrite {
		t.Fatalf("p50 single-op write latency %v below one page program %v (zero-latency regression)",
			es.Writes.P50, cfg.Latency.PageWrite)
	}
}

// TestEngineLatencyDeterministic pins that recorded latencies are derived
// from the simulated clock, not the host: two identical runs produce
// identical distributions even though goroutine interleavings differ.
func TestEngineLatencyDeterministic(t *testing.T) {
	run := func() (s struct {
		w, g struct{ p50, p999, max time.Duration }
	}) {
		eng := newLatencyTestEngine(t, GeckoFTLOptions(64))
		gen := workload.MustNewUniform(eng.LogicalPages(), 9)
		batch := 4 * eng.dev.Config().Dies()
		var writes int64
		for writes < 2*eng.LogicalPages() {
			_, targets, _ := workload.SplitBatch(workload.TakeBatch(gen, batch))
			if err := eng.WriteBatch(context.Background(), targets); err != nil {
				t.Fatal(err)
			}
			writes += int64(len(targets))
		}
		es := eng.LatencyStats()
		s.w.p50, s.w.p999, s.w.max = es.Writes.P50, es.Writes.P999, es.Writes.Max
		s.g.p50, s.g.p999, s.g.max = es.GCStalledWrites.P50, es.GCStalledWrites.P999, es.GCStalledWrites.Max
		return s
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("latency distributions not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestEngineSyncArrival pins the batch arrival instant: the device's latest
// die completion, which every shard's arrival clock is advanced to, so a
// shard idle since an earlier batch does not start the next one in the past.
func TestEngineSyncArrival(t *testing.T) {
	eng := newLatencyTestEngine(t, GeckoFTLOptions(64))
	// Writes to shard 0 alone leave the other shards' dies idle at zero.
	for lpn := flash.LPN(0); lpn < 64; lpn += flash.LPN(eng.Shards()) {
		if err := eng.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	busy := eng.dev.BusyUntil()
	if busy <= 0 || eng.ShardClock(1) != 0 {
		t.Fatalf("before the sync: device busy until %v, shard 1 at %v; want shard 0's work and an idle shard 1", busy, eng.ShardClock(1))
	}
	if got := eng.SyncArrival(); got != busy {
		t.Fatalf("SyncArrival = %v, want the latest die completion %v", got, busy)
	}
	for s := range eng.Shards() {
		if got := eng.ShardClock(s); got != busy {
			t.Errorf("shard %d clock %v after the sync, want %v", s, got, busy)
		}
	}
}
