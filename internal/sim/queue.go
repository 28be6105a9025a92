package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/queue"
	"geckoftl/internal/stats"
	"geckoftl/internal/workload"
)

// QueuePoint is one row of the queue sweep.
type QueuePoint struct {
	// Mode is "closed" (a caller that keeps Depth operations in flight and
	// issues the next when the oldest completes) or "open" (operations
	// arrive on an arrival process's schedule, regardless of completions).
	Mode string
	// Workload names the page stream, with the arrival process appended for
	// open rows (e.g. "uniform+poisson").
	Workload string
	// Policy is the admission policy: "sync" for the synchronous baseline,
	// "wait"/"shed" for queued rows, "unbounded" for the no-admission
	// contrast row.
	Policy string
	// Depth is the per-shard queue depth (0 for the synchronous baseline and
	// the unbounded row).
	Depth int
	// Channels and Dies describe the topology.
	Channels, Dies int
	// Ops is the number of operations offered in the measured window;
	// Completed, Shed and Delayed partition their fates (Delayed ops also
	// complete).
	Ops, Completed, Shed, Delayed int64
	// Offered is the measured offered rate in ops/sec (0 for closed rows,
	// where the caller offers exactly what completes).
	Offered float64
	// Throughput is the delivered rate: completed ops per second of virtual
	// time from the window's start to the last completion.
	Throughput float64
	// WA is the measured write-amplification of the window.
	WA float64
	// ModelKnee is the queueing model's predicted saturation knee for this
	// topology at the row's measured WA; ModelDelivered is the fluid-limit
	// delivered rate min(Offered, ModelKnee).
	ModelKnee, ModelDelivered float64
	// DelayBound is the admission budget: the model's bound on the virtual
	// backlog an admitted operation can wait behind.
	DelayBound time.Duration
	// Latency is the arrival-to-completion distribution of completed
	// operations (for the synchronous baseline, the engine's per-write
	// service times).
	Latency stats.Summary
}

const (
	// queueChannels is the engine width of every queue-sweep row.
	queueChannels = 4
	// queueBurstToLull is the burst-to-lull rate ratio of the bursty row.
	queueBurstToLull = 4
)

// queueKneeMultiples are the open-loop offered rates, as multiples of the
// calibrated saturation knee.
var queueKneeMultiples = []float64{0.25, 0.5, 1.0, 2.0}

// QueueSweep measures the async submission/completion engine against the
// synchronous baseline and the queueing model, in two parts.
//
// Closed-loop rows pin the depth-scaling story: one synchronous caller —
// every operation's arrival chained to the previous completion — is bounded
// by a single die's service rate no matter how many channels the device has,
// while a caller keeping Depth operations in flight approaches the
// Channels × DiesPerChannel ceiling once the depth covers the die count.
//
// Open-loop rows pin the saturation knee and admission control: operations
// arrive on a Poisson schedule at multiples of the model's predicted knee.
// Below the knee delivered throughput tracks the offered rate; above it the
// device delivers the knee. At 2x overload the shedding policy keeps the
// completed operations' p99.9 within the admission budget's neighborhood and
// counts the drops, where the unbounded row lets queueing delay grow with
// the backlog — the latency collapse admission control exists to prevent.
//
// All rows are deterministic for a given scale: admission decisions are made
// by each shard's worker in submission order against the shard's own virtual
// clock, so host goroutine scheduling never changes a result.
//
// It reads p.Depth, the per-shard queue depth of the open-loop rows (zero
// means 8), p.Depths, the closed-loop depths (empty means 1, 4, 8, 16),
// p.Workload (empty means uniform) and p.Admission, the admission policy of
// the rate-multiple rows, "shed" or "wait" (empty means shed; the 2x wait and
// unbounded contrast rows run regardless).
func QueueSweep(p Params) ([]QueuePoint, error) {
	scale := p.Scale
	depth := p.Depth
	if depth <= 0 {
		depth = 8
	}
	depths := p.Depths
	if len(depths) == 0 {
		depths = []int{1, 4, 8, 16}
	}
	wl := p.Workload
	if wl == "" {
		wl = "uniform"
	}
	ratePolicy := queue.AdmitShed
	if p.Admission != "" {
		var err error
		if ratePolicy, err = queue.ParsePolicy(p.Admission); err != nil {
			return nil, fmt.Errorf("sim: queue sweep: %w", err)
		}
	}

	var points []QueuePoint

	// Synchronous baseline: calibrates the model knee's WA besides anchoring
	// the depth-scaling comparison.
	sync, err := queueSyncPoint(scale, wl)
	if err != nil {
		return nil, fmt.Errorf("sim: queue sweep (sync): %w", err)
	}
	points = append(points, sync)

	for _, d := range depths {
		pt, err := queueClosedPoint(scale, wl, d)
		if err != nil {
			return nil, fmt.Errorf("sim: queue sweep (closed, depth %d): %w", d, err)
		}
		points = append(points, pt)
	}

	// The calibrated knee sets the open-loop offered rates; each row then
	// reports the model knee at its own measured WA.
	knee := sync.ModelKnee
	if knee <= 0 {
		return nil, fmt.Errorf("sim: calibrated saturation knee %g must be positive", knee)
	}
	type openRow struct {
		rate   float64
		policy queue.Policy
		depth  int
		label  string
		bursty bool
	}
	var rows []openRow
	for _, m := range queueKneeMultiples {
		rows = append(rows, openRow{rate: m * knee, policy: ratePolicy, depth: depth, label: ratePolicy.String()})
	}
	over := 2 * knee
	rows = append(rows, openRow{rate: over, policy: queue.AdmitWait, depth: depth, label: "wait"})
	// The unbounded contrast row: a queue deep enough that admission control
	// never engages, so the overload's backlog lands in the latency tail.
	rows = append(rows, openRow{rate: over, policy: queue.AdmitWait, depth: 4 * int(scale.MeasureWrites), label: "unbounded"})
	rows = append(rows, openRow{rate: knee, policy: ratePolicy, depth: depth, label: ratePolicy.String(), bursty: true})
	for _, r := range rows {
		pt, err := queueOpenPoint(scale, wl, r.rate, r.policy, r.depth, r.label, r.bursty)
		if err != nil {
			return nil, fmt.Errorf("sim: queue sweep (open, %s, %.0f ops/s): %w", r.label, r.rate, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

// queueBench is the warmed engine run every row starts from, with its
// measurement window open.
type queueBench struct {
	*engineRun
	w  *window
	t0 time.Duration
}

// newQueueBench builds a fresh engine run, warms it and opens its window,
// then ratchets the device-wide arrival clock so every shard's clock starts
// at the same virtual instant t0.
func newQueueBench(scale ExperimentScale, wl string) (*queueBench, error) {
	run, err := newEngineRun(runSpec{
		scale: scale, channels: queueChannels, workload: wl, batchPerDie: shallowBatchPerDie,
		// Incremental GC scheduling: the queue sweep is about tail latency,
		// and an inline collector's whole-victim stalls (tens of
		// milliseconds) would dominate every distribution and blur the
		// saturation knee the model predicts from mean service rates.
		tune: func(o *ftl.Options) { o.GCMode = ftl.GCIncremental },
	})
	if err != nil {
		return nil, err
	}
	w, err := run.open()
	if err != nil {
		return nil, err
	}
	return &queueBench{engineRun: run, w: w, t0: run.dev.SyncArrival()}, nil
}

// point closes the window and assembles the common fields of a finished
// row. end is the last completion instant on the virtual timeline; offered
// is 0 for closed rows.
func (b *queueBench) point(mode, wlName, policy string, depth int, end time.Duration, completed int64, offered float64) QueuePoint {
	b.w.close()
	span := end - b.t0
	wa := b.w.wa()
	qp := model.QueueingParams{
		Parallel: model.ParallelParams{
			Channels:       b.cfg.NumChannels(),
			DiesPerChannel: b.cfg.Dies() / b.cfg.NumChannels(),
		},
		Depth: depth,
	}
	p := QueuePoint{
		Mode:       mode,
		Workload:   wlName,
		Policy:     policy,
		Depth:      depth,
		Channels:   b.cfg.NumChannels(),
		Dies:       b.cfg.Dies(),
		Completed:  completed,
		Offered:    offered,
		WA:         wa,
		ModelKnee:  qp.SaturationKnee(b.cfg.Latency, wa),
		DelayBound: qp.DelayBound(b.cfg.Latency, wa),
	}
	if span > 0 {
		p.Throughput = float64(completed) / span.Seconds()
	}
	p.ModelDelivered = p.ModelKnee
	if offered > 0 && offered < p.ModelKnee {
		p.ModelDelivered = offered
	}
	return p
}

// queueSyncPoint measures the synchronous ceiling at caller concurrency one:
// each operation's arrival is the previous operation's completion, the
// host-side dependency chain of a caller that waits. The chain crosses
// shards, so the device can never overlap two of the caller's operations no
// matter how many dies it has.
func queueSyncPoint(scale ExperimentScale, wl string) (QueuePoint, error) {
	b, err := newQueueBench(scale, wl)
	if err != nil {
		return QueuePoint{}, err
	}
	pc := b.t0
	n := scale.MeasureWrites
	for i := int64(0); i < n; i++ {
		op := b.gen.Next()
		s, err := b.eng.ShardOf(op.Page)
		if err != nil {
			return QueuePoint{}, err
		}
		b.eng.ShardAdvanceArrival(s, pc)
		if err := b.eng.Do(op.Kind, op.Page); err != nil {
			return QueuePoint{}, err
		}
		pc = b.eng.ShardClock(s)
	}
	p := b.point("closed", wl, "sync", 0, pc, n, 0)
	p.Ops = n
	p.Latency = b.w.latency.Writes
	return p, nil
}

// queueClosedPoint measures a caller keeping depth operations in flight
// through the submission queue: operation i's arrival is the completion
// instant of operation i-depth (the oldest in-flight one the caller waited
// on). Depth 1 degenerates to the synchronous chain; once the window covers
// the die count the shards' timelines overlap and throughput approaches the
// topology's ceiling.
func queueClosedPoint(scale ExperimentScale, wl string, depth int) (QueuePoint, error) {
	b, err := newQueueBench(scale, wl)
	if err != nil {
		return QueuePoint{}, err
	}
	q, err := b.eng.NewQueue(depth, queue.AdmitWait)
	if err != nil {
		return QueuePoint{}, err
	}
	defer q.Close()
	ctx := context.Background()
	n := scale.MeasureWrites
	window := make([]*queue.Ticket, 0, depth)
	pc := b.t0
	end := b.t0
	advance := func(tk *queue.Ticket) error {
		if err := tk.Wait(ctx); err != nil {
			return err
		}
		if at := tk.CompletedAt(); at > end {
			end = at
			if at > pc {
				pc = at
			}
		}
		return nil
	}
	for i := int64(0); i < n; i++ {
		if int64(len(window)) == int64(depth) {
			if err := advance(window[0]); err != nil {
				return QueuePoint{}, err
			}
			window = window[1:]
		}
		op := b.gen.Next()
		tk, err := q.Submit(ctx, queue.Request{Kind: op.Kind, LPN: op.Page, Arrival: pc, Timed: true})
		if err != nil {
			return QueuePoint{}, err
		}
		window = append(window, tk)
	}
	for _, tk := range window {
		if err := advance(tk); err != nil {
			return QueuePoint{}, err
		}
	}
	qs := q.Stats()
	p := b.point("closed", wl, qs.Policy, depth, end, qs.Completed, 0)
	p.Ops = qs.Submitted
	p.Shed, p.Delayed = qs.Shed, qs.Delayed
	p.Latency = qs.Latency
	return p, nil
}

// queueOpenPoint measures an open-loop arrival stream at the given offered
// rate: operations arrive on the process's schedule whether or not earlier
// ones completed, which is what exposes saturation. bursty swaps the Poisson
// process for the bursty one at the same nominal rate.
func queueOpenPoint(scale ExperimentScale, wl string, rate float64, policy queue.Policy, depth int, label string, bursty bool) (QueuePoint, error) {
	b, err := newQueueBench(scale, wl)
	if err != nil {
		return QueuePoint{}, err
	}
	var proc workload.ArrivalProcess
	if bursty {
		meanGap := time.Duration(float64(time.Second) / rate)
		proc, err = workload.NewBursty(rate, queueBurstToLull, 50*meanGap, scale.Seed+1)
	} else {
		proc, err = workload.NewPoisson(rate, scale.Seed+1)
	}
	if err != nil {
		return QueuePoint{}, err
	}
	ol, err := workload.NewOpenLoop(b.gen, proc)
	if err != nil {
		return QueuePoint{}, err
	}
	q, err := b.eng.NewQueue(depth, policy)
	if err != nil {
		return QueuePoint{}, err
	}
	defer q.Close()
	ctx := context.Background()
	n := scale.MeasureWrites
	tickets := make([]*queue.Ticket, 0, n)
	last := b.t0
	for i := int64(0); i < n; i++ {
		a := ol.Next()
		at := b.t0 + a.At
		tk, err := q.Submit(ctx, queue.Request{Kind: a.Op.Kind, LPN: a.Op.Page, Arrival: at, Timed: true})
		if err != nil {
			return QueuePoint{}, err
		}
		tickets = append(tickets, tk)
		last = at
	}
	if err := q.Drain(ctx); err != nil {
		return QueuePoint{}, err
	}
	for _, tk := range tickets {
		if err := tk.Err(); err != nil && !errors.Is(err, queue.ErrFull) {
			return QueuePoint{}, err
		}
	}
	end := b.t0
	for s := 0; s < b.eng.Shards(); s++ {
		if c := b.eng.ShardClock(s); c > end {
			end = c
		}
	}
	var offered float64
	if last > b.t0 {
		offered = float64(n) / (last - b.t0).Seconds()
	}
	qs := q.Stats()
	p := b.point("open", ol.Name(), label, depth, end, qs.Completed, offered)
	p.Ops = qs.Submitted
	p.Shed, p.Delayed = qs.Shed, qs.Delayed
	p.Latency = qs.Latency
	return p, nil
}
