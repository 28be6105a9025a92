package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"geckoftl"
	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/mapcache"
	"geckoftl/internal/queue"
)

// traceShare is the part of the end-to-end operation count each pass of the
// traced run issues: three passes and the isolated drives must fit the time
// one end-to-end run takes.
const traceShare = 0.25

// spanKind names the public call a span surrounds.
type spanKind uint8

const (
	spanWrite spanKind = iota
	spanRead
	spanTrim
	spanWriteBatch
	spanReadBatch
	spanTrimBatch
	spanSubmit
	spanWait
	spanDrain
	spanCrash
	spanRestart
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"write", "read", "trim", "write_batch", "read_batch", "trim_batch",
	"submit", "wait", "drain", "crash", "restart",
}

// span is one call into the target. Its position in the recorder is the op
// id; there is no parent, because nothing inside the program is traced yet.
// 16 bytes, so the five million spans of the read workload stay under 100 MB.
type span struct {
	start int64  // ns since the recorder began
	dur   uint32 // ns; every call is far below the 4 s this can hold
	pages uint16 // pages the call carried
	kind  spanKind
	shard uint8 // LPN mod shards; anyShard for a call that spans shards
}

const anyShard = 255

// recorder keeps spans in a slice allocated before the run.
type recorder struct {
	base   time.Time
	shards int64
	spans  []span
}

func newRecorder(capacity, shards int) *recorder {
	return &recorder{base: time.Now(), shards: int64(shards), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(kind spanKind, start int64, lpn LPN, pages int) {
	shard := uint8(anyShard)
	if lpn >= 0 {
		shard = uint8(int64(lpn) % r.shards)
	}
	r.spans = append(r.spans, span{start: start, dur: uint32(r.now() - start), pages: uint16(pages), kind: kind, shard: shard})
}

// durations returns, sorted, the kind's durations divided by the pages each
// call carried.
func (r *recorder) durations(kinds ...spanKind) []float64 {
	var out []float64
	for _, s := range r.spans {
		for _, k := range kinds {
			if s.kind == k && s.pages > 0 {
				out = append(out, float64(s.dur)/float64(s.pages))
			}
		}
	}
	sort.Float64s(out)
	return out
}

// writeTo writes the spans as JSON lines.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for id, s := range r.spans {
		shard := int(s.shard)
		if s.shard == anyShard {
			shard = -1
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"pages":%d,"shard":%d}`+"\n",
			id, spanNames[s.kind], s.start, s.start+int64(s.dur), s.pages, shard)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile reads the q-quantile off a sorted slice; zero when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// tracedTarget records one span around every call into inner.
type tracedTarget struct {
	inner target
	rec   *recorder
}

func (t *tracedTarget) Write(ctx context.Context, lpn LPN) error {
	start := t.rec.now()
	err := t.inner.Write(ctx, lpn)
	t.rec.add(spanWrite, start, lpn, 1)
	return err
}

func (t *tracedTarget) Read(ctx context.Context, lpn LPN) error {
	start := t.rec.now()
	err := t.inner.Read(ctx, lpn)
	t.rec.add(spanRead, start, lpn, 1)
	return err
}

func (t *tracedTarget) WriteBatch(ctx context.Context, lpns []LPN) error {
	start := t.rec.now()
	err := t.inner.WriteBatch(ctx, lpns)
	t.rec.add(spanWriteBatch, start, -1, len(lpns))
	return err
}

func (t *tracedTarget) ReadBatch(ctx context.Context, lpns []LPN) error {
	start := t.rec.now()
	err := t.inner.ReadBatch(ctx, lpns)
	t.rec.add(spanReadBatch, start, -1, len(lpns))
	return err
}

func (t *tracedTarget) TrimBatch(ctx context.Context, lpns []LPN) error {
	start := t.rec.now()
	err := t.inner.TrimBatch(ctx, lpns)
	t.rec.add(spanTrimBatch, start, -1, len(lpns))
	return err
}

func (t *tracedTarget) SubmitWrite(ctx context.Context, lpn LPN) (waiter, error) {
	start := t.rec.now()
	tk, err := t.inner.SubmitWrite(ctx, lpn)
	t.rec.add(spanSubmit, start, lpn, 1)
	if err != nil {
		return nil, err
	}
	return tracedTicket{tk, lpn, t.rec}, nil
}

func (t *tracedTarget) Drain(ctx context.Context) error {
	start := t.rec.now()
	err := t.inner.Drain(ctx)
	t.rec.add(spanDrain, start, -1, 1)
	return err
}

func (t *tracedTarget) Crash(ctx context.Context) error {
	start := t.rec.now()
	err := t.inner.Crash(ctx)
	t.rec.add(spanCrash, start, -1, 1)
	return err
}

func (t *tracedTarget) Restart(ctx context.Context) error {
	start := t.rec.now()
	err := t.inner.Restart(ctx)
	t.rec.add(spanRestart, start, -1, 1)
	return err
}

type tracedTicket struct {
	inner waiter
	lpn   LPN
	rec   *recorder
}

func (t tracedTicket) Wait(ctx context.Context) error {
	start := t.rec.now()
	err := t.inner.Wait(ctx)
	t.rec.add(spanWait, start, t.lpn, 1)
	return err
}

// spanCapacity bounds the spans one pass records: two per operation on the
// async workload, fewer everywhere else.
func spanCapacity(w workloadSpec, units int) int {
	return 2*units*w.OpsPerUnit + segments + epilogueTrims
}

// engineTarget drives flash.NewDevice + ftl.NewEngine (+ queue.New) built
// directly: the T2 level, one layer below the public Device.
type engineTarget struct {
	dev *flash.Device
	eng *ftl.Engine
	q   *queue.Engine

	recoverMs, restartMs []float64
	lastRecovery         *ftl.EngineRecoveryReport
}

func newEngineTarget(w workloadSpec, blocks int) (*engineTarget, error) {
	cfg := flashConfig(blocks, w.Channels)
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		return nil, err
	}
	opts, err := geckoftl.FTLOptionsByName(w.FTL, w.CachePerShard)
	if err != nil {
		return nil, err
	}
	eng, err := ftl.NewEngine(dev, opts, 0)
	if err != nil {
		return nil, err
	}
	// The queue is configured as Device.queueEngine configures its own.
	q, err := queue.New(queue.Config{
		Shards:  eng.Shards(),
		Depth:   32,
		Policy:  queue.AdmitWait,
		Quantum: cfg.Latency.PageWrite,
		ShardOf: eng.ShardOf,
		Exec:    func(_ int, req queue.Request) error { return eng.Write(req.LPN) },
		Clock:   eng.ShardClock,
		Advance: eng.ShardAdvanceArrival,
	})
	if err != nil {
		return nil, err
	}
	return &engineTarget{dev: dev, eng: eng, q: q}, nil
}

// close stops the queue's worker goroutines.
func (t *engineTarget) close() { t.q.Close() }

func (t *engineTarget) Write(_ context.Context, lpn LPN) error { return t.eng.Write(lpn) }
func (t *engineTarget) Read(_ context.Context, lpn LPN) error  { return t.eng.Read(lpn) }

func (t *engineTarget) WriteBatch(ctx context.Context, lpns []LPN) error {
	return t.eng.WriteBatch(ctx, lpns)
}

func (t *engineTarget) ReadBatch(ctx context.Context, lpns []LPN) error {
	return t.eng.ReadBatch(ctx, lpns)
}

func (t *engineTarget) TrimBatch(ctx context.Context, lpns []LPN) error {
	return t.eng.TrimBatch(ctx, lpns)
}

func (t *engineTarget) SubmitWrite(ctx context.Context, lpn LPN) (waiter, error) {
	s, err := t.eng.ShardOf(lpn)
	if err != nil {
		return nil, err
	}
	return t.q.Submit(ctx, queue.Request{Kind: queue.OpWrite, LPN: lpn, Arrival: t.eng.ShardClock(s), Timed: true})
}

func (t *engineTarget) Drain(ctx context.Context) error { return t.q.Drain(ctx) }

func (t *engineTarget) Crash(context.Context) error {
	start := time.Now()
	if err := t.eng.PowerFail(); err != nil {
		return err
	}
	rep, err := t.eng.Recover()
	t.recoverMs = append(t.recoverMs, millis(time.Since(start)))
	t.lastRecovery = rep
	return err
}

// Restart is Device.Restart without the file: flush, export and encode the
// checkpoint, drop the RAM state, decode and restore.
func (t *engineTarget) Restart(context.Context) error {
	start := time.Now()
	if err := t.eng.Flush(); err != nil {
		return err
	}
	file, err := t.eng.ExportCheckpoint()
	if err != nil {
		return err
	}
	file, err = checkpoint.Decode(checkpoint.Encode(file))
	if err != nil {
		return err
	}
	if err := t.eng.PowerFail(); err != nil {
		return err
	}
	if err := t.eng.RestoreCheckpoint(file); err != nil {
		return err
	}
	t.restartMs = append(t.restartMs, millis(time.Since(start)))
	return nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cacheTarget replays a workload's LPN stream through bare mapping caches,
// one per shard at the workload's capacity, for mapcache.hit_ratio.
type cacheTarget struct {
	caches       []*mapcache.Cache
	hits, misses int64
}

func newCacheTarget(w workloadSpec) *cacheTarget {
	t := &cacheTarget{}
	for i := 0; i < w.Channels; i++ {
		t.caches = append(t.caches, mapcache.New(w.CachePerShard, pageSize/8))
	}
	return t
}

func (t *cacheTarget) touch(lpns ...LPN) {
	n := int64(len(t.caches))
	for _, lpn := range lpns {
		c, local := t.caches[int64(lpn)%n], LPN(int64(lpn)/n)
		if _, ok := c.Lookup(local); ok {
			t.hits++
		} else {
			t.misses++
			c.Put(mapcache.Entry{Logical: local})
		}
	}
}

type done struct{}

func (done) Wait(context.Context) error { return nil }

func (t *cacheTarget) Write(_ context.Context, lpn LPN) error { t.touch(lpn); return nil }
func (t *cacheTarget) Read(_ context.Context, lpn LPN) error  { t.touch(lpn); return nil }

func (t *cacheTarget) WriteBatch(_ context.Context, lpns []LPN) error { t.touch(lpns...); return nil }
func (t *cacheTarget) ReadBatch(_ context.Context, lpns []LPN) error  { t.touch(lpns...); return nil }
func (t *cacheTarget) TrimBatch(_ context.Context, lpns []LPN) error  { t.touch(lpns...); return nil }

func (t *cacheTarget) SubmitWrite(_ context.Context, lpn LPN) (waiter, error) {
	t.touch(lpn)
	return done{}, nil
}

func (t *cacheTarget) Drain(context.Context) error { return nil }

// A crash or a restart empties the cache, as it does the device's.
func (t *cacheTarget) Crash(context.Context) error {
	for _, c := range t.caches {
		c.Clear()
	}
	return nil
}

func (t *cacheTarget) Restart(ctx context.Context) error { return t.Crash(ctx) }

// runTraced is the traced run. Two devices and a bare engine are set up
// alike and fed the same inputs segment by segment: the first device untraced,
// the second with a span around every public call (T1), the engine with a span
// around every Engine call (T2). Each segment does the same simulated work on
// all three, so the differences are the tracing overhead and the Device
// wrapper's own time. A bare mapping cache takes the same
// stream for mapcache.hit_ratio, and the isolated drives (T3) follow.
func runTraced(ctx context.Context, w workloadSpec, sz sizing, seed int64, seconds float64, dir, out string) (*report, error) {
	units := w.units(seconds*traceShare) / segments
	r := &report{
		Workload: w.Name, Seed: seed, Seconds: seconds,
		Samples: map[string]int64{}, Metrics: map[string]float64{},
	}
	// A metric the workload has no use for (submit times without a queue,
	// restart times on DFTL) reads 0.
	for _, m := range perLayer {
		r.Metrics[m.Name] = 0
	}

	var devs [2]*geckoftl.Device
	for i, name := range []string{"plain", "traced"} {
		d, err := setUp(ctx, w, sz, filepath.Join(dir, name), seed)
		if err != nil {
			return nil, err
		}
		defer func() { _ = d.Close(ctx) }() // the success path closes and checks below; a second Close is harmless
		devs[i] = d
	}
	eng, err := newEngineTarget(w, sz.Blocks)
	if err != nil {
		return nil, err
	}
	defer eng.close()
	pages := eng.eng.LogicalPages()
	if err := fillAndOverwrite(sz.filled(pages), seed, eng.eng.Write); err != nil {
		return nil, err
	}
	drv, err := newDriver(w, pages, units, seed+1)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(spanCapacity(w, units*segments), w.Channels)
	engRec := newRecorder(spanCapacity(w, units*segments), w.Channels)
	hit := newCacheTarget(w)

	devs[0].ResetStats()
	devs[1].ResetStats()
	eng.eng.ResetLatencyStats()
	base := eng.counts()
	runtime.GC()
	untraced := &deviceTarget{Device: devs[0], cycleBase: devs[0].Snapshot().SimulatedTime}
	ms, err := measure(ctx, drv, make(shadow, pages), nil,
		untraced,
		&tracedTarget{inner: &deviceTarget{Device: devs[1]}, rec: rec},
		&tracedTarget{inner: eng, rec: engRec},
		hit)
	if err != nil {
		return nil, err
	}
	plain, traced, engine := ms[0], ms[1], ms[2]
	r.LogicalPages, r.Attempted, r.Failed, r.SegmentRates = pages, traced.ops, traced.failed, traced.rates

	deviceMetrics(r, rec)
	untraced.simTail(r, w)
	overhead := make([]float64, segments)
	for i := range overhead {
		overhead[i] = plain.rates[i]/traced.rates[i] - 1
	}
	r.Metrics["device.trace_overhead_pct"] = 100 * median(overhead)
	// The n-th span of both recorders surrounds the same call doing the same
	// work, one level apart: the wrapper's self time is the difference, and
	// the median over every call is steadier than a difference of means.
	self := make([]float64, len(engRec.spans))
	for i, below := range engRec.spans {
		self[i] = (float64(rec.spans[i].dur) - float64(below.dur)) / float64(max(below.pages, 1))
	}
	r.Metrics["device.self_ns_per_op"] = median(self)
	r.Samples["device.self_ns_per_op"] = int64(len(self))
	r.Metrics["mapcache.hit_ratio"] = float64(hit.hits) / float64(hit.hits+hit.misses)
	r.Samples["mapcache.hit_ratio"] = hit.hits + hit.misses

	if err := tracedEpilogue(ctx, devs[1], rec, seed, r); err != nil {
		return nil, err
	}
	for _, d := range devs {
		if err := d.Flush(ctx); err != nil {
			return nil, err
		}
		if err := d.CheckConsistency(); err != nil {
			return nil, err
		}
		if err := d.Close(ctx); err != nil {
			return nil, err
		}
	}
	eng.metrics(r, w, base, engine, len(engRec.spans))
	if err := eng.finish(ctx, sz.CrashWindow, seed, r); err != nil {
		return nil, fmt.Errorf("T2: %w", err)
	}
	if err := isolatedLayers(r, sz, seed); err != nil {
		return nil, fmt.Errorf("T3: %w", err)
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, err
		}
		if err := rec.writeTo(filepath.Join(out, w.Name+".device.spans.jsonl")); err != nil {
			return nil, err
		}
		if err := engRec.writeTo(filepath.Join(out, w.Name+".engine.spans.jsonl")); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// tracedEpilogue issues the end-of-run single-page trims under the recorder,
// the only Device.Trim calls there are, and reads the queue's own counters.
func tracedEpilogue(ctx context.Context, d *geckoftl.Device, rec *recorder, seed int64, r *report) error {
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < epilogueTrims; i++ {
		lpn := LPN(rng.Int63n(d.LogicalPages()))
		start := rec.now()
		err := d.Trim(ctx, lpn, 1)
		rec.add(spanTrim, start, lpn, 1)
		if err != nil {
			return err
		}
	}
	r.setQuantiles("device.trim_ns", rec.durations(spanTrim), false)

	q := d.Snapshot().Queue
	if q.Submitted > 0 {
		r.Metrics["queue.shed_ratio"] = float64(q.Shed) / float64(q.Submitted)
		r.Metrics["queue.delayed_ratio"] = float64(q.Delayed) / float64(q.Submitted)
	}
	r.Metrics["queue.sim_latency_p999_us"] = micros(q.Latency.P999)
	r.Samples["queue.sim_latency_p999_us"] = q.Latency.Count
	return nil
}

// simTail fills device.sim_p999_us: the p99.9 simulated service time of the
// operation the workload measures. On the async workload this is still the
// write's service time, not Queue.Latency: the queue stamps arrivals from a
// clock read without the shard's lock, so its distribution is the one
// simulated number that does not repeat (it is queue.sim_latency_p999_us).
// On the crash workload every cycle has its own Snapshot window, and 5000
// writes support a p99, not a p99.9: the median of the cycles' p99.
func (t *deviceTarget) simTail(r *report, w workloadSpec) {
	snap := t.Snapshot()
	lat := snap.WriteLatency
	if w.Kind == syncRead {
		lat = snap.ReadLatency
	}
	r.Metrics["device.sim_p999_us"] = micros(lat.P999)
	r.Samples["device.sim_p999_us"] = lat.Count
	if w.Kind == crashRecover {
		p99 := make([]float64, len(t.cycles))
		for i, c := range t.cycles {
			p99[i] = c.p99Us
		}
		r.Metrics["device.sim_p999_us"] = median(p99)
		r.Samples["device.sim_p999_us"] = int64(len(p99))
	}
}

// setQuantiles fills prefix_p50 and prefix_p99, and prefix_p999 when asked,
// from sorted samples.
func (r *report) setQuantiles(prefix string, sorted []float64, p999 bool) {
	qs := map[string]float64{"_p50": 0.5, "_p99": 0.99}
	if p999 {
		qs["_p999"] = 0.999
	}
	for suffix, q := range qs {
		r.Metrics[prefix+suffix] = quantile(sorted, q)
		r.Samples[prefix+suffix] = int64(len(sorted))
	}
}

// deviceMetrics fills the device.* percentiles from the T1 spans.
func deviceMetrics(r *report, rec *recorder) {
	r.setQuantiles("device.write_ns", rec.durations(spanWrite), true)
	r.setQuantiles("device.read_ns", rec.durations(spanRead), true)
	r.setQuantiles("device.batch_ns_per_op", rec.durations(spanWriteBatch, spanReadBatch, spanTrimBatch), false)
	r.setQuantiles("device.submit_ns", rec.durations(spanSubmit), false)
	r.setQuantiles("device.ticket_wait_ns", rec.durations(spanWait), false)
	r.Metrics["device.samples"] = float64(len(rec.spans))
}

// engineCounts is a reading of the counters only the internal packages
// expose: the engine's, each shard's, the flash device's and each die's.
type engineCounts struct {
	stats    ftl.Stats
	shards   []float64
	counters flash.Counters
	dies     []time.Duration
}

func (t *engineTarget) counts() engineCounts {
	return engineCounts{t.eng.Stats(), t.shardOps(), t.dev.Counters(), t.dev.DieTimes()}
}

// metrics fills the T2 metrics: the engine's cost per operation and the
// counters' growth since base, per host operation.
func (t *engineTarget) metrics(r *report, w workloadSpec, base engineCounts, m measured, calls int) {
	now := t.counts()
	ops := float64(m.ops)
	r.Metrics["engine.ns_per_op"] = 1e9 / median(m.rates)
	r.Samples["engine.ns_per_op"] = int64(calls)
	r.Metrics["engine.allocs_per_op"] = float64(m.used.mallocs) / ops
	if w.Kind == mixedBatch {
		r.Metrics["engine.allocs_per_batch"] = float64(m.used.mallocs) / float64(calls)
	}
	busy := make([]float64, len(now.dies))
	for i := range busy {
		busy[i] = float64(now.dies[i] - base.dies[i])
	}
	for i := range now.shards {
		now.shards[i] -= base.shards[i]
	}
	r.Metrics["engine.shard_op_imbalance"] = imbalance(now.shards)
	r.Metrics["flash.die_busy_imbalance"] = imbalance(busy)

	st, was := now.stats, base.stats
	perOp := func(now, base int64, per float64) float64 { return float64(now-base) * per / ops }
	r.Metrics["ftl.gc_collections_per_kop"] = perOp(st.GCOperations, was.GCOperations, 1000)
	r.Metrics["ftl.gc_migrations_per_op"] = perOp(st.GCMigrations, was.GCMigrations, 1)
	r.Metrics["ftl.uip_skips_per_op"] = perOp(st.UIPSkips, was.UIPSkips, 1)
	r.Metrics["ftl.sync_ops_per_kop"] = perOp(st.SyncOperations, was.SyncOperations, 1000)
	r.Metrics["ftl.forced_syncs_per_kop"] = perOp(st.ForcedSyncs, was.ForcedSyncs, 1000)
	r.Metrics["ftl.checkpoints_per_kop"] = perOp(st.Checkpoints, was.Checkpoints, 1000)
	r.Metrics["ftl.metadata_block_erases_per_kop"] = perOp(st.MetadataBlockErases, was.MetadataBlockErases, 1000)
	r.Metrics["ftl.gc_fallbacks"] = float64(st.GCFallbacks - was.GCFallbacks)
	r.Metrics["ftl.gc_max_stall_us"] = micros(t.eng.LatencyStats().MaxGCStall)

	c := now.counters.Sub(base.counters)
	writes := st.LogicalWrites - was.LogicalWrites
	delta := t.dev.Config().Latency.WriteReadRatio()
	r.Metrics["ftl.user_wa"] = c.PurposeWriteAmplification(flash.PurposeUserWrite, writes, delta) +
		c.PurposeWriteAmplification(flash.PurposeGCMigration, writes, delta)
	r.Metrics["ftl.translation_wa"] = c.PurposeWriteAmplification(flash.PurposeTranslation, writes, delta)
	r.Metrics["ftl.validity_wa"] = c.PurposeWriteAmplification(flash.PurposePageValidity, writes, delta)
	r.Metrics["flash.page_writes_per_op"] = float64(c.TotalOp(flash.OpPageWrite)) / ops
	r.Metrics["flash.page_reads_per_op"] = float64(c.TotalOp(flash.OpPageRead)) / ops
	r.Metrics["flash.spare_reads_per_op"] = float64(c.TotalOp(flash.OpSpareRead)) / ops
	r.Metrics["flash.erases_per_kop"] = float64(c.TotalOp(flash.OpErase)) * 1000 / ops
}

// shardOps returns each shard's host operations so far.
func (t *engineTarget) shardOps() []float64 {
	out := make([]float64, t.eng.Shards())
	for i := range out {
		st := t.eng.Shard(i).Stats()
		out[i] = float64(st.LogicalWrites + st.LogicalReads + st.LogicalTrims)
	}
	return out
}

// imbalance is the largest share over the mean share; 1 is perfectly even.
func imbalance(v []float64) float64 {
	var max, sum float64
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return max * float64(len(v)) / sum
}

// finish is the engine-level end of run, as crashAndVerify orders it: flush,
// CrashWindow unflushed writes, a crash and recovery, the consistency audit,
// and a warm restart where the scheme supports checkpoints.
func (t *engineTarget) finish(ctx context.Context, window int, seed int64, r *report) error {
	if err := t.eng.Flush(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed + 2))
	for i := 0; i < window; i++ {
		if err := t.Write(ctx, LPN(rng.Int63n(t.eng.LogicalPages()))); err != nil {
			return err
		}
	}
	if err := t.Crash(ctx); err != nil {
		return err
	}
	start := time.Now()
	if err := t.eng.CheckConsistency(); err != nil {
		return err
	}
	r.Metrics["ftl.check_consistency_host_ms"] = millis(time.Since(start))
	if err := t.Restart(ctx); err != nil && !errors.Is(err, ftl.ErrCheckpointUnsupported) {
		return err
	}
	rep := t.lastRecovery
	r.Metrics["ftl.recover_host_ms_p50"] = median(t.recoverMs)
	r.Samples["ftl.recover_host_ms_p50"] = int64(len(t.recoverMs))
	r.Metrics["ftl.restart_warm_host_ms_p50"] = median(t.restartMs)
	r.Samples["ftl.restart_warm_host_ms_p50"] = int64(len(t.restartMs))
	r.Metrics["ftl.recover_spare_reads"] = float64(rep.SpareReads)
	r.Metrics["ftl.recover_page_reads"] = float64(rep.PageReads)
	r.Metrics["ftl.recover_page_writes"] = float64(rep.PageWrites)
	r.Metrics["ftl.recovered_entries"] = float64(rep.RecoveredMappingEntries)
	return nil
}
