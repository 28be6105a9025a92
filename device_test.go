package geckoftl_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"geckoftl"
)

func open(t *testing.T, opts ...geckoftl.Option) *geckoftl.Device {
	t.Helper()
	dev, err := geckoftl.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestOpenDefaults(t *testing.T) {
	dev := open(t)
	g := dev.Geometry()
	if g.Blocks != 256 || g.PagesPerBlock != 32 || g.PageSizeBytes != 1024 {
		t.Errorf("unexpected default geometry %+v", g)
	}
	if g.FTL != "GeckoFTL" || g.Shards != 1 {
		t.Errorf("unexpected default FTL %q / shards %d", g.FTL, g.Shards)
	}
	if g.LogicalPages != dev.LogicalPages() || g.LogicalPages <= 0 {
		t.Errorf("logical pages %d inconsistent", g.LogicalPages)
	}
}

func TestOpenOptions(t *testing.T) {
	lazy := geckoftl.LazyFTLOptions(512)
	lazy.GCMode = geckoftl.GCIncremental
	dev := open(t,
		geckoftl.WithGeometry(512, 16, 512),
		geckoftl.WithChannels(4, 2),
		geckoftl.WithOverProvision(0.6),
		geckoftl.WithFTLOptions(lazy),
	)
	g := dev.Geometry()
	if g.Channels != 4 || g.DiesPerChannel != 2 || g.Shards != 4 {
		t.Errorf("unexpected topology %+v", g)
	}
	if g.FTL != "LazyFTL/4" && g.FTL != "LazyFTL" {
		t.Errorf("unexpected FTL name %q", g.FTL)
	}
}

func TestOpenInvalidConfig(t *testing.T) {
	// FTL-level settings travel in FTLOptions and are validated by the FTL.
	withFTL := func(set func(*geckoftl.FTLOptions)) geckoftl.Option {
		o := geckoftl.GeckoFTLOptions(256)
		set(&o)
		return geckoftl.WithFTLOptions(o)
	}
	cases := [][]geckoftl.Option{
		{geckoftl.WithGeometry(0, 32, 1024)},
		{geckoftl.WithOverProvision(1.5)},
		{geckoftl.WithChannels(0, 1)},
		{geckoftl.WithFTL("nope")},
		{geckoftl.WithCacheEntries(0)},
		{withFTL(func(o *geckoftl.FTLOptions) { o.GCPagesPerWrite = -1 })},
		{withFTL(func(o *geckoftl.FTLOptions) { o.GCMode = geckoftl.GCMode(99) })},
		{withFTL(func(o *geckoftl.FTLOptions) { o.VictimPolicy = geckoftl.VictimPolicy(99) })},
		{withFTL(func(o *geckoftl.FTLOptions) { o.ScrubReadThreshold = -1 })},
		{geckoftl.WithShards(0)},
		// A valid option set whose engine construction fails: more shards
		// than blocks.
		{geckoftl.WithGeometry(8, 16, 512), geckoftl.WithShards(16)},
	}
	for i, opts := range cases {
		if _, err := geckoftl.Open(opts...); !errors.Is(err, geckoftl.ErrInvalidConfig) {
			t.Errorf("case %d: Open returned %v, want errors.Is(..., ErrInvalidConfig)", i, err)
		}
	}
}

func TestClosedDevice(t *testing.T) {
	ctx := context.Background()
	dev := open(t)
	if err := dev.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(ctx); !errors.Is(err, geckoftl.ErrClosed) {
		t.Errorf("second Close returned %v, want ErrClosed", err)
	}
	if err := dev.Write(ctx, 0); !errors.Is(err, geckoftl.ErrClosed) {
		t.Errorf("Write after Close returned %v, want ErrClosed", err)
	}
	if err := dev.Trim(ctx, 0, 1); !errors.Is(err, geckoftl.ErrClosed) {
		t.Errorf("Trim after Close returned %v, want ErrClosed", err)
	}
	if _, err := dev.Mapped(0); !errors.Is(err, geckoftl.ErrClosed) {
		t.Errorf("Mapped after Close returned %v, want ErrClosed", err)
	}
	if err := dev.PowerFail(); !errors.Is(err, geckoftl.ErrClosed) {
		t.Errorf("PowerFail after Close returned %v, want ErrClosed", err)
	}
	if _, err := dev.Recover(ctx); !errors.Is(err, geckoftl.ErrClosed) {
		t.Errorf("Recover after Close returned %v, want ErrClosed", err)
	}
}

func TestOutOfRange(t *testing.T) {
	ctx := context.Background()
	dev := open(t)
	end := geckoftl.LPN(dev.LogicalPages())
	if err := dev.Write(ctx, end); !errors.Is(err, geckoftl.ErrOutOfRange) {
		t.Errorf("Write(end) returned %v, want ErrOutOfRange", err)
	}
	if err := dev.Read(ctx, -1); !errors.Is(err, geckoftl.ErrOutOfRange) {
		t.Errorf("Read(-1) returned %v, want ErrOutOfRange", err)
	}
	if err := dev.Trim(ctx, end-1, 2); !errors.Is(err, geckoftl.ErrOutOfRange) {
		t.Errorf("Trim over the end returned %v, want ErrOutOfRange", err)
	}
	if err := dev.WriteBatch(ctx, []geckoftl.LPN{0, end}); !errors.Is(err, geckoftl.ErrOutOfRange) {
		t.Errorf("WriteBatch with bad page returned %v, want ErrOutOfRange", err)
	}
}

func TestPowerFailTaxonomy(t *testing.T) {
	ctx := context.Background()
	dev := open(t)
	if err := dev.Write(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(ctx, 1); !errors.Is(err, geckoftl.ErrPowerFailed) {
		t.Errorf("Write while failed returned %v, want ErrPowerFailed", err)
	}
	if err := dev.Flush(ctx); !errors.Is(err, geckoftl.ErrPowerFailed) {
		t.Errorf("Flush while failed returned %v, want ErrPowerFailed", err)
	}
	if err := dev.PowerFail(); !errors.Is(err, geckoftl.ErrPowerFailed) {
		t.Errorf("second PowerFail returned %v, want ErrPowerFailed", err)
	}
	report, err := dev.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.UsedBattery {
		t.Error("GeckoFTL recovery reported battery use")
	}
	if err := dev.Write(ctx, 1); err != nil {
		t.Errorf("write after recovery: %v", err)
	}
	if _, err := dev.Recover(ctx); err == nil {
		t.Error("Recover without PowerFail accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	dev := open(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := dev.Write(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Write with cancelled ctx returned %v, want context.Canceled", err)
	}
	if err := dev.Trim(ctx, 0, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("Trim with cancelled ctx returned %v, want context.Canceled", err)
	}
	if _, err := dev.Recover(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Recover with cancelled ctx returned %v, want context.Canceled", err)
	}
}

func TestTrimAndSnapshot(t *testing.T) {
	ctx := context.Background()
	dev := open(t, geckoftl.WithChannels(2, 1), geckoftl.WithCacheEntries(512))
	lp := dev.LogicalPages()

	var lpns []geckoftl.LPN
	for i := int64(0); i < lp; i++ {
		lpns = append(lpns, geckoftl.LPN(i))
	}
	if err := dev.WriteBatch(ctx, lpns); err != nil {
		t.Fatal(err)
	}
	if err := dev.Trim(ctx, 0, 64); err != nil {
		t.Fatal(err)
	}
	for lpn := geckoftl.LPN(0); lpn < 64; lpn++ {
		mapped, err := dev.Mapped(lpn)
		if err != nil {
			t.Fatal(err)
		}
		if mapped {
			t.Fatalf("page %d still mapped after Trim", lpn)
		}
		if err := dev.Read(ctx, lpn); err != nil {
			t.Fatalf("read of trimmed page: %v", err)
		}
	}
	if mapped, _ := dev.Mapped(64); !mapped {
		t.Error("page 64 (outside the trimmed range) reads as unmapped")
	}

	snap := dev.Snapshot()
	if snap.Ops.Writes != lp || snap.Ops.Trims != 64 {
		t.Errorf("snapshot ops = %+v, want %d writes / 64 trims", snap.Ops, lp)
	}
	if snap.Ops.TrimmedPages == 0 && snap.Ops.Trims > 0 {
		// Lazy identification may defer some, but a flush settles all.
		if err := dev.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		snap = dev.Snapshot()
	}
	if snap.Ops.TrimmedPages != 64 {
		t.Errorf("TrimmedPages = %d, want 64", snap.Ops.TrimmedPages)
	}
	if snap.WriteAmplification < 1 {
		t.Errorf("write-amplification %.3f below 1", snap.WriteAmplification)
	}
	if snap.WriteLatency.Count != lp {
		t.Errorf("write latency count %d, want %d", snap.WriteLatency.Count, lp)
	}
	if snap.TrimLatency.Count != 64 {
		t.Errorf("trim latency count %d, want 64", snap.TrimLatency.Count)
	}
	if snap.RAMBytes <= 0 || snap.SimulatedTime <= 0 {
		t.Errorf("RAM %d / simulated time %v not positive", snap.RAMBytes, snap.SimulatedTime)
	}

	dev.ResetStats()
	snap = dev.Snapshot()
	if snap.WindowWrites != 0 || snap.WriteLatency.Count != 0 {
		t.Errorf("ResetStats did not clear the window: %+v", snap)
	}
	if snap.Ops.Writes != lp {
		t.Errorf("ResetStats cleared cumulative ops: %+v", snap.Ops)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteAfterTrim(t *testing.T) {
	ctx := context.Background()
	dev := open(t)
	if err := dev.Write(ctx, 7); err != nil {
		t.Fatal(err)
	}
	if err := dev.Trim(ctx, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := dev.Write(ctx, 7); err != nil {
		t.Fatal(err)
	}
	mapped, err := dev.Mapped(7)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped {
		t.Error("page unmapped after rewrite")
	}
}

func TestCloseWithCancelledContextIsRetryable(t *testing.T) {
	dev := open(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := dev.Close(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close with cancelled ctx returned %v, want context.Canceled", err)
	}
	// The device must not have latched closed: a retry with a live context
	// still performs the final flush.
	if err := dev.Write(context.Background(), 0); err != nil {
		t.Fatalf("write after cancelled Close: %v", err)
	}
	if err := dev.Close(context.Background()); err != nil {
		t.Fatalf("retried Close: %v", err)
	}
}

// errCallCountingCtx cancels itself after its Err method has been consulted
// a fixed number of times. It deterministically models "the caller cancels
// while the batch is in flight": the guard's entry check passes, a few
// per-operation checks pass, then every later check observes cancellation.
type errCallCountingCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *errCallCountingCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestBatchCancellation pins the batch cancellation contract: a pre-cancelled
// context performs no operations at all, and a context cancelled mid-batch
// stops each shard's sub-batch at an operation boundary — pre-fix, the
// engine checked the context only on entry and ran cancelled batches to
// completion.
func TestBatchCancellation(t *testing.T) {
	ctx := context.Background()
	dev := open(t, geckoftl.WithChannels(2, 1), geckoftl.WithCacheEntries(512))

	lpns := make([]geckoftl.LPN, 96)
	for i := range lpns {
		lpns[i] = geckoftl.LPN(i)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for name, err := range map[string]error{
		"WriteBatch": dev.WriteBatch(cancelled, lpns),
		"ReadBatch":  dev.ReadBatch(cancelled, lpns),
		"TrimBatch":  dev.TrimBatch(cancelled, lpns),
	} {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s with pre-cancelled ctx returned %v, want context.Canceled", name, err)
		}
	}
	if snap := dev.Snapshot(); snap.Ops.Writes != 0 || snap.Ops.Reads != 0 || snap.Ops.Trims != 0 {
		t.Fatalf("pre-cancelled batches performed operations: %+v", snap.Ops)
	}

	// Cancel after a handful of per-operation checks: some pages must have
	// been written, the rest must have been skipped.
	mid := &errCallCountingCtx{Context: ctx, after: 9}
	err := dev.WriteBatch(mid, lpns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch cancelled WriteBatch returned %v, want context.Canceled", err)
	}
	snap := dev.Snapshot()
	if snap.Ops.Writes == 0 {
		t.Error("mid-batch cancellation stopped the batch before any operation ran")
	}
	if snap.Ops.Writes >= int64(len(lpns)) {
		t.Errorf("mid-batch cancelled WriteBatch still wrote all %d pages", len(lpns))
	}
	// The device stays usable; the skipped pages can be retried.
	if err := dev.WriteBatch(ctx, lpns); err != nil {
		t.Fatal(err)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWindowAfterRecover pins the recovery re-base of the
// measurement window: a Snapshot taken after crash + recovery + fresh
// traffic must describe only the post-recovery window. Pre-fix the window
// straddled the crash, so it mixed pre-crash writes and the recovery scan's
// IO into the write-amplification figure.
func TestSnapshotWindowAfterRecover(t *testing.T) {
	ctx := context.Background()
	dev := open(t, geckoftl.WithGeometry(128, 16, 512), geckoftl.WithCacheEntries(256))
	lp := dev.LogicalPages()

	gen, err := geckoftl.NewUniform(lp, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2*lp; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			t.Fatal(err)
		}
	}
	dev.ResetStats()
	for i := 0; i < 500; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Recover(ctx); err != nil {
		t.Fatal(err)
	}

	const post = 200
	for i := 0; i < post; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			t.Fatal(err)
		}
	}
	snap := dev.Snapshot()
	if snap.WindowWrites != post {
		t.Errorf("post-recovery window counts %d writes, want %d (window not re-based at Recover)",
			snap.WindowWrites, post)
	}
	if snap.WriteLatency.Count != post {
		t.Errorf("post-recovery latency window holds %d writes, want %d", snap.WriteLatency.Count, post)
	}
	if snap.WriteAmplification < 1 {
		t.Errorf("post-recovery WA %.3f below 1", snap.WriteAmplification)
	}
	if snap.WriteAmplification > 20 {
		t.Errorf("post-recovery WA %.3f implausibly high: recovery IO leaked into the write window",
			snap.WriteAmplification)
	}
	// Cumulative counters must NOT have been re-based.
	if snap.Ops.Writes != 2*lp+500+post {
		t.Errorf("cumulative writes %d, want %d", snap.Ops.Writes, 2*lp+500+post)
	}
}

// TestSnapshotWearFields exercises the public wear surface: erase-count
// fields appear in Snapshot, and the hot/cold + wear knobs round-trip
// through Open.
func TestSnapshotWearFields(t *testing.T) {
	ctx := context.Background()
	o := geckoftl.GeckoFTLOptions(256)
	o.HotColdSeparation = true
	o.WearAwareAllocation = true
	o.VictimPolicy = geckoftl.VictimCostBenefit
	dev := open(t, geckoftl.WithGeometry(128, 16, 512), geckoftl.WithFTLOptions(o))
	lp := dev.LogicalPages()
	gen, err := geckoftl.NewHotCold(lp, 0.2, 0.8, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3*lp; i++ {
		if err := dev.Write(ctx, gen.Next().Page); err != nil {
			t.Fatal(err)
		}
	}
	snap := dev.Snapshot()
	if snap.MaxEraseCount <= 0 {
		t.Errorf("MaxEraseCount = %d after %d writes, want > 0", snap.MaxEraseCount, 3*lp)
	}
	if snap.EraseSpread != snap.MaxEraseCount-snap.MinEraseCount || snap.EraseSpread < 0 {
		t.Errorf("inconsistent wear fields: min %d max %d spread %d",
			snap.MinEraseCount, snap.MaxEraseCount, snap.EraseSpread)
	}
	if snap.MeanEraseCount < float64(snap.MinEraseCount) || snap.MeanEraseCount > float64(snap.MaxEraseCount) {
		t.Errorf("mean erase count %.2f outside [min %d, max %d]",
			snap.MeanEraseCount, snap.MinEraseCount, snap.MaxEraseCount)
	}
	if err := dev.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
