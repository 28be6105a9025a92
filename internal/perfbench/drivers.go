package main

import (
	"context"
	"fmt"

	"geckoftl"
	"geckoftl/internal/workload"
)

// LPN is a logical page number.
type LPN = geckoftl.LPN

// target is what a workload drives: the public Device for the end-to-end
// numbers and the T1 trace, the bare ftl.Engine for T2. Both take the same
// pre-generated inputs.
type target interface {
	Write(ctx context.Context, lpn LPN) error
	Read(ctx context.Context, lpn LPN) error
	WriteBatch(ctx context.Context, lpns []LPN) error
	ReadBatch(ctx context.Context, lpns []LPN) error
	TrimBatch(ctx context.Context, lpns []LPN) error
	SubmitWrite(ctx context.Context, lpn LPN) (waiter, error)
	Drain(ctx context.Context) error
	// Crash cuts the power without a flush and recovers cold.
	Crash(ctx context.Context) error
	// Restart shuts down cleanly and comes back from the checkpoint.
	Restart(ctx context.Context) error
}

// waiter is the part of a ticket the async driver needs.
type waiter interface {
	Wait(ctx context.Context) error
}

// driver issues one workload, a segment at a time. prepare generates the
// segment's inputs and is never timed; run is what the timer surrounds;
// apply replays the segment on the shadow map afterwards.
type driver interface {
	prepare()
	run(ctx context.Context, t target) (failed int64, err error)
	apply(s shadow)
	// ops is the number of host operations one segment issues.
	ops() int64
}

// newDriver builds the workload's driver. unitsPerSegment counts operations,
// batches, windows or cycles, as the workload's kind has it; the seed feeds
// the generators only.
func newDriver(w workloadSpec, logicalPages int64, unitsPerSegment int, seed int64) (driver, error) {
	n := unitsPerSegment * w.OpsPerUnit
	switch w.Kind {
	case syncWrite:
		gen, err := workload.NewUniform(logicalPages, seed)
		return &writeDriver{gen: gen, lpns: make([]LPN, n)}, err
	case syncRead:
		gen, err := workload.NewUniform(w.HotSet, seed)
		return &readDriver{gen: gen, lpns: make([]LPN, n)}, err
	case mixedBatch:
		zipf, err := workload.NewZipfian(logicalPages, 1.1, seed)
		if err != nil {
			return nil, err
		}
		// Trims take 5 % of the stream; of the rest, reads take 50/95.
		mixed, err := workload.NewMixed(zipf, logicalPages, 0.5/0.95, seed+1)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewTrimming(mixed, logicalPages, 0.05, seed+2)
		return &batchDriver{gen: gen, size: w.OpsPerUnit, batches: make([]batch, unitsPerSegment)}, err
	case asyncWrite:
		gen, err := workload.NewUniform(logicalPages, seed)
		return &asyncDriver{gen: gen, window: w.OpsPerUnit, lpns: make([]LPN, n), tickets: make([]waiter, w.OpsPerUnit)}, err
	case crashRecover:
		gen, err := workload.NewUniform(logicalPages, seed)
		return &crashDriver{gen: gen, cycle: w.OpsPerUnit, lpns: make([]LPN, n), first: -1}, err
	}
	return nil, fmt.Errorf("workload %s: unknown kind %d", w.Name, w.Kind)
}

// failures counts the operations that returned an error and keeps the first.
type failures struct {
	n     int64
	first error
}

// add records that a call carrying ops operations returned err.
func (f *failures) add(ops int, err error) {
	if err == nil {
		return
	}
	f.n += int64(ops)
	if f.first == nil {
		f.first = err
	}
}

func fill(lpns []LPN, gen workload.Generator) {
	for i := range lpns {
		lpns[i] = gen.Next().Page
	}
}

// writeDriver issues synchronous single-page writes.
type writeDriver struct {
	gen  workload.Generator
	lpns []LPN
}

func (d *writeDriver) prepare()       { fill(d.lpns, d.gen) }
func (d *writeDriver) ops() int64     { return int64(len(d.lpns)) }
func (d *writeDriver) apply(s shadow) { s.write(d.lpns) }

func (d *writeDriver) run(ctx context.Context, t target) (int64, error) {
	var f failures
	for _, lpn := range d.lpns {
		f.add(1, t.Write(ctx, lpn))
	}
	return f.n, f.first
}

// readDriver issues synchronous single-page reads.
type readDriver struct {
	gen  workload.Generator
	lpns []LPN
}

func (d *readDriver) prepare()     { fill(d.lpns, d.gen) }
func (d *readDriver) ops() int64   { return int64(len(d.lpns)) }
func (d *readDriver) apply(shadow) {}

func (d *readDriver) run(ctx context.Context, t target) (int64, error) {
	var f failures
	for _, lpn := range d.lpns {
		f.add(1, t.Read(ctx, lpn))
	}
	return f.n, f.first
}

// batch is one TakeBatch, already split by kind.
type batch struct {
	reads, writes, trims []LPN
}

// batchDriver issues each batch as WriteBatch, ReadBatch, TrimBatch.
type batchDriver struct {
	gen     workload.Generator
	size    int
	batches []batch
}

func (d *batchDriver) prepare() {
	for i := range d.batches {
		b := &d.batches[i]
		b.reads, b.writes, b.trims = geckoftl.SplitBatch(geckoftl.TakeBatch(d.gen, d.size))
	}
}

func (d *batchDriver) ops() int64 { return int64(len(d.batches) * d.size) }

func (d *batchDriver) apply(s shadow) {
	for _, b := range d.batches {
		s.write(b.writes)
		s.trim(b.trims)
	}
}

func (d *batchDriver) run(ctx context.Context, t target) (int64, error) {
	var f failures
	for _, b := range d.batches {
		f.add(len(b.writes), t.WriteBatch(ctx, b.writes))
		f.add(len(b.reads), t.ReadBatch(ctx, b.reads))
		f.add(len(b.trims), t.TrimBatch(ctx, b.trims))
	}
	return f.n, f.first
}

// asyncDriver submits a window of writes, then waits for every ticket.
type asyncDriver struct {
	gen     workload.Generator
	window  int
	lpns    []LPN
	tickets []waiter
}

func (d *asyncDriver) prepare()       { fill(d.lpns, d.gen) }
func (d *asyncDriver) ops() int64     { return int64(len(d.lpns)) }
func (d *asyncDriver) apply(s shadow) { s.write(d.lpns) }

func (d *asyncDriver) run(ctx context.Context, t target) (int64, error) {
	var f failures
	for start := 0; start < len(d.lpns); start += d.window {
		n := 0
		for _, lpn := range d.lpns[start : start+d.window] {
			tk, err := t.SubmitWrite(ctx, lpn)
			if err != nil {
				f.add(1, err)
				continue
			}
			d.tickets[n] = tk
			n++
		}
		for _, tk := range d.tickets[:n] {
			f.add(1, tk.Wait(ctx))
		}
	}
	f.add(1, t.Drain(ctx))
	return f.n, f.first
}

// crashDriver runs cycles of writes, each ended by a crash with a cold
// recovery or, every other cycle, a clean restart. The recovery's host time
// stays inside the segment's timer; ops counts the writes only.
type crashDriver struct {
	gen   workload.Generator
	cycle int
	lpns  []LPN
	first int // index of the segment's first cycle; negative before any
}

func (d *crashDriver) prepare() {
	fill(d.lpns, d.gen)
	if d.first < 0 {
		d.first = 0
	} else {
		d.first += len(d.lpns) / d.cycle
	}
}

func (d *crashDriver) ops() int64     { return int64(len(d.lpns)) }
func (d *crashDriver) apply(s shadow) { s.write(d.lpns) }

func (d *crashDriver) run(ctx context.Context, t target) (int64, error) {
	var f failures
	for start := 0; start < len(d.lpns); start += d.cycle {
		for _, lpn := range d.lpns[start : start+d.cycle] {
			f.add(1, t.Write(ctx, lpn))
		}
		n := d.first + start/d.cycle
		var err error
		if n%2 == 0 {
			err = t.Crash(ctx)
		} else {
			err = t.Restart(ctx)
		}
		if err != nil {
			// Nothing can run on a device that did not come back: an error
			// with no failed operation ends the run.
			return 0, fmt.Errorf("cycle %d: %w", n, err)
		}
	}
	return f.n, f.first
}
