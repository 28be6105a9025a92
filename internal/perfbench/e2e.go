package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"geckoftl"
)

// The end of every run, untimed: epilogueTrims trims, a flush and a crash,
// which must keep every flushed write mapped and every flushed trim unmapped;
// then, crashRepeats times, CrashWindow more writes and a crash without a
// flush. recover_sim_ms is the median of those recoveries: one alone moves by
// a tenth with the seed, and one in ten has metadata to write back and takes
// twice as long, which a mean of a few would carry into the result.
//
// No trim is ever left unflushed at a crash: Trim reports a cached
// before-image invalid at once, so GC can erase it before the trim is durable,
// and a crash in between brings the page back mapped to a reused physical page
// (found by the zipfian batch workload; see README.md).
const (
	epilogueTrims = 1024
	crashRepeats  = 8
)

// shadow is the harness's own record of which logical pages hold data.
type shadow []bool

func (s shadow) write(lpns []LPN) {
	for _, lpn := range lpns {
		s[lpn] = true
	}
}

func (s shadow) trim(lpns []LPN) {
	for _, lpn := range lpns {
		s[lpn] = false
	}
}

// check compares every page's Mapped state with the shadow. Pages in either
// were unmapped and then written without a flush before the crash, so they
// may have come back in either state; the shadow takes the device's.
func (s shadow) check(d *geckoftl.Device, either map[LPN]bool) error {
	for lpn := range s {
		got, err := d.Mapped(LPN(lpn))
		if err != nil {
			return fmt.Errorf("shadow check: page %d: %w", lpn, err)
		}
		if either[LPN(lpn)] {
			s[lpn] = got
		} else if got != s[lpn] {
			return fmt.Errorf("shadow check: page %d mapped=%v on the device, %v in the shadow map", lpn, got, s[lpn])
		}
	}
	return nil
}

// deviceTarget drives the public Device. On the crash workload it also
// collects what Snapshot says about each cycle, because Recover and Restart
// start a new Snapshot window.
type deviceTarget struct {
	*geckoftl.Device
	cycleBase time.Duration // SimulatedTime when the current cycle began
	cycles    []cycleSample
}

type cycleSample struct {
	writeAmp, simUsPerOp, p99Us float64
}

func (t *deviceTarget) SubmitWrite(ctx context.Context, lpn LPN) (waiter, error) {
	return t.Device.SubmitWrite(ctx, lpn)
}

func (t *deviceTarget) endCycle() {
	snap := t.Snapshot()
	if snap.WindowWrites > 0 {
		t.cycles = append(t.cycles, cycleSample{
			writeAmp:   snap.WriteAmplification,
			simUsPerOp: micros(snap.SimulatedTime-t.cycleBase) / float64(snap.WindowWrites),
			p99Us:      micros(snap.WriteLatency.P99),
		})
	}
}

func (t *deviceTarget) Crash(ctx context.Context) error {
	t.endCycle()
	if err := t.PowerFail(); err != nil {
		return err
	}
	_, err := t.Recover(ctx)
	t.cycleBase = t.Snapshot().SimulatedTime
	return err
}

func (t *deviceTarget) Restart(ctx context.Context) error {
	t.endCycle()
	rep, err := t.Device.Restart(ctx)
	if err == nil && !rep.Warm {
		err = fmt.Errorf("restart fell back to a cold recovery: %w", rep.Fallback)
	}
	t.cycleBase = t.Snapshot().SimulatedTime
	return err
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// openDevice opens the workload's device; dir holds its checkpoint file.
func openDevice(w workloadSpec, blocks int, dir string) (*geckoftl.Device, error) {
	opts := []geckoftl.Option{
		geckoftl.WithGeometry(blocks, pagesPerBlock, pageSize),
		geckoftl.WithChannels(w.Channels, 1),
		geckoftl.WithFTL(w.FTL),
		geckoftl.WithCacheEntries(w.CachePerShard),
		geckoftl.WithQueueDepth(32),
		geckoftl.WithAdmissionPolicy(geckoftl.AdmitWait),
	}
	if w.Checkpoint {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		opts = append(opts, geckoftl.WithCheckpointPath(filepath.Join(dir, "checkpoint")))
	}
	return geckoftl.Open(opts...)
}

// setUp is the common set-up: open, write every page in order, overwrite as
// many pages again uniformly at random.
func setUp(ctx context.Context, w workloadSpec, sz sizing, dir string, seed int64) (*geckoftl.Device, error) {
	d, err := openDevice(w, sz.Blocks, dir)
	if err != nil {
		return nil, err
	}
	err = fillAndOverwrite(sz.filled(d.LogicalPages()), seed, func(lpn LPN) error { return d.Write(ctx, lpn) })
	if err != nil {
		_ = d.Close(ctx)
		return nil, err
	}
	return d, nil
}

// fillAndOverwrite is the common set-up against any write function: the
// first pages pages in order, then as many uniformly random overwrites.
func fillAndOverwrite(pages, seed int64, write func(LPN) error) error {
	rng := rand.New(rand.NewSource(seed))
	for i := int64(0); i < 2*pages; i++ {
		lpn := LPN(i)
		if i >= pages {
			lpn = LPN(rng.Int63n(pages))
		}
		if err := write(lpn); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	return nil
}

// timedSetUp sets the device up sz.SetupRepeats times, closing all but the
// last, and returns that one with the median set-up time, each time divided
// by the reference loop's slowdown around it.
func timedSetUp(ctx context.Context, w workloadSpec, sz sizing, ref *reference, dir string, seed int64) (*geckoftl.Device, float64, error) {
	var d *geckoftl.Device
	times := make([]float64, sz.SetupRepeats)
	slow := ref.slowdown()
	for i := range times {
		if d != nil {
			if err := d.Close(ctx); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if d, err = setUp(ctx, w, sz, dir, seed); err != nil {
			return nil, 0, err
		}
		elapsed := time.Since(start).Seconds()
		next := ref.slowdown()
		times[i] = elapsed / ((slow + next) / 2)
		slow = next
	}
	return d, median(times), nil
}

// usage is a reading of the process's CPU time and allocation counters.
type usage struct {
	cpu            time.Duration
	mallocs, bytes uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// measured is what the timed phase of one pass over a target yields.
type measured struct {
	ops, failed int64
	// rates is each segment's host operations per second of wall clock, and
	// slow the reference loop's slowdown around that segment (1 without a
	// reference).
	rates, slow []float64
	// used sums the timed regions only; each segment's CPU time is divided
	// by its slowdown before it is added.
	used usage
}

// steadyRates returns each segment's rate as the quiet machine would run it.
func (m measured) steadyRates() []float64 {
	out := make([]float64, len(m.rates))
	for i, r := range m.rates {
		out[i] = r * m.slow[i]
	}
	return out
}

// measure runs the driver's segments, timing each: every segment's inputs
// are generated once and issued to each target in turn, so targets set up
// alike stay in step. The reference loop runs between segments. It returns
// one result per target.
func measure(ctx context.Context, drv driver, s shadow, ref *reference, targets ...target) ([]measured, error) {
	ms := make([]measured, len(targets))
	slow := ref.slowdown()
	for seg := 0; seg < segments; seg++ {
		drv.prepare()
		var used []usage
		for i, t := range targets {
			m := &ms[i]
			before := readUsage()
			start := time.Now()
			failed, err := drv.run(ctx, t)
			elapsed := time.Since(start)
			after := readUsage()
			if err != nil && failed == 0 {
				return nil, fmt.Errorf("segment %d: %w", seg, err)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: segment %d: %d operations failed, first: %v\n", seg, failed, err)
			}
			m.ops += drv.ops()
			m.failed += failed
			m.rates = append(m.rates, float64(drv.ops())/elapsed.Seconds())
			used = append(used, usage{after.cpu - before.cpu, after.mallocs - before.mallocs, after.bytes - before.bytes})
		}
		next := ref.slowdown()
		around := (slow + next) / 2
		slow = next
		for i, u := range used {
			m := &ms[i]
			m.slow = append(m.slow, around)
			m.used.cpu += time.Duration(float64(u.cpu) / around)
			m.used.mallocs += u.mallocs
			m.used.bytes += u.bytes
		}
		drv.apply(s)
	}
	return ms, nil
}

// report is one run's outcome: the contract's result plus what the issue's
// JSON document carries.
type report struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Trace        bool               `json:"trace"`
	LogicalPages int64              `json:"logical_pages"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	SegmentRates []float64          `json:"segment_rates,omitempty"`
	Slowdown     []float64          `json:"reference_slowdown,omitempty"`
	Samples      map[string]int64   `json:"samples"`
	Metrics      map[string]float64 `json:"metrics"`
}

// runEndToEnd is the untraced run: every end-to-end metric of one workload.
func runEndToEnd(ctx context.Context, w workloadSpec, sz sizing, seed int64, seconds float64, dir string) (*report, error) {
	ref := newReference(sz.ReferenceSteps)
	d, setupS, err := timedSetUp(ctx, w, sz, ref, dir, seed)
	if err != nil {
		return nil, err
	}
	defer func() { _ = d.Close(ctx) }() // the success path closes and checks below; a second Close is harmless
	pages := d.LogicalPages()
	s := make(shadow, pages)
	for i := range s[:sz.filled(pages)] {
		s[i] = true
	}
	drv, err := newDriver(w, pages, w.units(seconds)/segments, seed+1)
	if err != nil {
		return nil, err
	}
	t := &deviceTarget{Device: d}

	// The set-up's own window is the only one with writes on the read
	// workload, so its write-amplification is kept for that case.
	setupWA := d.Snapshot().WriteAmplification
	d.ResetStats()
	runtime.GC()
	simStart := d.Snapshot().SimulatedTime
	t.cycleBase = simStart

	all, err := measure(ctx, drv, s, ref, t)
	if err != nil {
		return nil, err
	}
	m := all[0]
	snap := d.Snapshot()
	ref.release() // the live heap is the device's and the harness's inputs
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	r := &report{
		Workload: w.Name, Seed: seed, Seconds: seconds, LogicalPages: pages,
		Attempted: m.ops, Failed: m.failed, SegmentRates: m.rates, Slowdown: m.slow,
		Samples: map[string]int64{}, Metrics: map[string]float64{},
	}
	ops := float64(m.ops)
	r.Metrics["setup_s"] = setupS
	r.Samples["setup_s"] = int64(sz.SetupRepeats)
	r.Metrics["host_ops_per_s"] = median(m.steadyRates())
	r.Samples["host_ops_per_s"] = segments
	r.Metrics["host_cpu_us_per_op"] = micros(m.used.cpu) / ops
	// The read workload allocates nothing per operation; what is left is a
	// few thousand objects of the runtime's own, a number that is all noise.
	// Below these floors the metrics read the floor.
	r.Metrics["host_allocs_per_op"] = max(float64(m.used.mallocs)/ops, 0.01)
	r.Metrics["host_bytes_per_op"] = max(float64(m.used.bytes)/ops, 1)
	r.Metrics["host_live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	r.Metrics["sim_ram_bytes"] = float64(snap.RAMBytes)

	r.Metrics["sim_write_amp"] = snap.WriteAmplification
	r.Metrics["sim_us_per_op"] = micros(snap.SimulatedTime-simStart) / ops
	switch w.Kind {
	case syncRead:
		r.Metrics["sim_write_amp"] = setupWA
	case crashRecover:
		// One value per cycle.
		wa, us := make([]float64, len(t.cycles)), make([]float64, len(t.cycles))
		for i, c := range t.cycles {
			wa[i], us[i] = c.writeAmp, c.simUsPerOp
		}
		r.Metrics["sim_write_amp"] = mean(wa)
		r.Metrics["sim_us_per_op"] = mean(us)
	}

	recovery, err := crashAndVerify(ctx, d, s, sz.CrashWindow, seed+2)
	if err != nil {
		return nil, err
	}
	r.Metrics["recover_sim_ms"] = recovery
	r.Samples["recover_sim_ms"] = crashRepeats
	if err := d.Close(ctx); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return r, nil
}

// crashAndVerify is the end of every run (see epilogueTrims); it returns the
// median simulated time, in milliseconds, of the recoveries from the
// unflushed crashes.
func crashAndVerify(ctx context.Context, d *geckoftl.Device, s shadow, window int, seed int64) (float64, error) {
	crash := func(either map[LPN]bool) (*geckoftl.RecoveryReport, error) {
		if err := d.PowerFail(); err != nil {
			return nil, err
		}
		rep, err := d.Recover(ctx)
		if err != nil {
			return nil, err
		}
		if err := d.CheckConsistency(); err != nil {
			return nil, fmt.Errorf("consistency after recovery: %w", err)
		}
		return rep, s.check(d, either)
	}
	rng := rand.New(rand.NewSource(seed))
	pages := d.LogicalPages()

	for i := 0; i < epilogueTrims; i++ {
		lpn := LPN(rng.Int63n(pages))
		if err := d.Trim(ctx, lpn, 1); err != nil {
			return 0, fmt.Errorf("epilogue: %w", err)
		}
		s[lpn] = false
	}
	if err := d.Flush(ctx); err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	if _, err := crash(nil); err != nil {
		return 0, fmt.Errorf("flushed crash: %w", err)
	}

	recoveries := make([]float64, crashRepeats)
	for n := range recoveries {
		either := map[LPN]bool{}
		for i := 0; i < window; i++ {
			lpn := LPN(rng.Int63n(pages))
			if err := d.Write(ctx, lpn); err != nil {
				return 0, fmt.Errorf("crash window: %w", err)
			}
			if !s[lpn] {
				either[lpn] = true
			}
		}
		rep, err := crash(either)
		if err != nil {
			return 0, fmt.Errorf("unflushed crash: %w", err)
		}
		recoveries[n] = millis(rep.WallClock)
	}
	return median(recoveries), nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
