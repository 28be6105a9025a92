package geckoftl

import (
	"context"
	"time"

	"geckoftl/internal/queue"
)

// AdmissionPolicy selects what the asynchronous submission path does with an
// operation that arrives when its shard's backlog already exceeds the queue
// depth's budget; see AdmitShed and AdmitWait.
type AdmissionPolicy = queue.Policy

const (
	// AdmitShed drops the overflowing operation: its Ticket completes with an
	// error matching ErrQueueFull, the drop is counted in
	// Snapshot.Queue.Shed, and the operations that do complete keep a bounded
	// latency tail because nothing ever queues behind more than the budget.
	AdmitShed = queue.AdmitShed
	// AdmitWait admits the overflowing operation anyway: nothing is dropped,
	// the overflow is counted in Snapshot.Queue.Delayed, and its queueing
	// delay is charged from the instant the backlog last fit the budget.
	AdmitWait = queue.AdmitWait
)

// ParseAdmissionPolicy maps "shed" or "wait" to the AdmissionPolicy; anything
// else is an ErrInvalidConfig error. Command-line tools route their flags
// through it.
func ParseAdmissionPolicy(s string) (AdmissionPolicy, error) {
	p, err := queue.ParsePolicy(s)
	return p, configErr(err)
}

// Ticket is the future of one asynchronous submission: it completes when the
// operation has executed, been shed by admission control, or been cancelled.
// All methods are safe for concurrent use. A Ticket must not be copied.
//
// It is the submission queue's own entry for the operation under the public
// error taxonomy, not a wrapper around one, so the methods below convert the
// pointer and classify the outcome. Tickets are carved 64 to an allocation
// from per-shard slabs: holding one keeps its slab (at most 8 KiB) alive, but
// not the context it was submitted under.
type Ticket queue.Ticket

func (t *Ticket) entry() *queue.Ticket { return (*queue.Ticket)(t) }

// Done returns a channel closed when the operation has completed. The channel
// is made on first request; a caller that only uses Wait or Err never pays
// for one.
func (t *Ticket) Done() <-chan struct{} { return t.entry().Done() }

// Err returns the operation's outcome under the public error taxonomy: nil
// for success, ErrQueueFull for an operation shed by admission control, the
// submission context's error for a cancellation observed before execution,
// and the executed operation's error otherwise. Before completion it returns
// ErrPending.
func (t *Ticket) Err() error { return wrapErr(t.entry().Err()) }

// Wait blocks until the operation completes or ctx is cancelled, returning
// the operation's outcome as Err would (or ctx's error). On a completed
// ticket the outcome wins even over a ctx that is already cancelled. A nil
// ctx waits indefinitely.
func (t *Ticket) Wait(ctx context.Context) error { return wrapErr(t.entry().Wait(ctx)) }

// CompletedAt returns the operation's completion instant on the simulator's
// virtual timeline (zero for shed or cancelled operations). Valid once the
// ticket has completed: Wait returned, Err is not ErrPending, or Done is
// closed.
func (t *Ticket) CompletedAt() time.Duration { return t.entry().CompletedAt() }

// SubmitWrite enqueues one logical page write on the device's asynchronous
// submission path and returns its Ticket without waiting for execution.
//
// Each engine shard has a submission queue of WithQueueDepth entries drained
// in FIFO order by the shard's worker. The operation's virtual arrival is
// stamped at submission; if the shard's backlog has grown past the depth's
// budget by the time the worker reaches it, the configured WithAdmissionPolicy
// decides its fate — see AdmitShed and AdmitWait. A caller that keeps several
// submissions in flight overlaps them across channels and dies, which is how
// the device's parallelism is reached; see Drain to quiesce.
func (d *Device) SubmitWrite(ctx context.Context, lpn LPN) (*Ticket, error) {
	return d.submit(ctx, queue.OpWrite, lpn)
}

// SubmitRead enqueues one logical page read; semantics as SubmitWrite.
func (d *Device) SubmitRead(ctx context.Context, lpn LPN) (*Ticket, error) {
	return d.submit(ctx, queue.OpRead, lpn)
}

// SubmitTrim enqueues a trim of one logical page; semantics as SubmitWrite.
func (d *Device) SubmitTrim(ctx context.Context, lpn LPN) (*Ticket, error) {
	return d.submit(ctx, queue.OpTrim, lpn)
}

// submit routes one asynchronous operation through the lazily started
// submission engine.
func (d *Device) submit(ctx context.Context, kind queue.OpKind, lpn LPN) (*Ticket, error) {
	if err := d.guard(ctx); err != nil {
		return nil, err
	}
	q, err := d.queueEngine()
	if err != nil {
		return nil, err
	}
	s, err := d.eng.ShardOf(lpn)
	if err != nil {
		return nil, wrapErr(err)
	}
	// The arrival stamp is the shard's current virtual instant: admission
	// control then measures exactly the backlog that accrues between this
	// submission and the worker dequeuing it.
	tk, err := q.Submit(ctx, queue.Request{Kind: kind, LPN: lpn, Arrival: d.eng.ShardClock(s), Timed: true})
	if err != nil {
		return nil, wrapErr(err)
	}
	return (*Ticket)(tk), nil
}

// Drain blocks until every operation submitted (via Submit*) before the call
// has completed. Operations submitted concurrently with Drain may or may not
// be covered. A device that never submitted asynchronously drains trivially.
func (d *Device) Drain(ctx context.Context) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	q := d.q.Load()
	if q == nil {
		return nil
	}
	return wrapErr(q.Drain(ctx))
}

// queueEngine returns the device's submission engine, starting it on first
// use — a device that never submits asynchronously runs no queue goroutines.
// Once started the engine is published in d.q and found without a lock; qMu
// only keeps two first submissions from starting two.
func (d *Device) queueEngine() (*queue.Engine, error) {
	if q := d.q.Load(); q != nil {
		return q, nil
	}
	d.qMu.Lock()
	defer d.qMu.Unlock()
	if q := d.q.Load(); q != nil {
		return q, nil
	}
	q, err := d.eng.NewQueue(d.queueDepth, d.queueAdmission)
	if err != nil {
		return nil, wrapErr(err)
	}
	d.q.Store(q)
	return q, nil
}

// stopQueue shuts the submission engine down, letting already queued
// operations execute to completion; Close calls it before the final flush so
// nothing lands after the checkpoint.
func (d *Device) stopQueue() {
	if q := d.q.Load(); q != nil {
		q.Close()
	}
}

// queueStats reads the submission engine's counters; the zero value when the
// asynchronous path was never used.
func (d *Device) queueStats() QueueStats {
	q := d.q.Load()
	if q == nil {
		return QueueStats{Depth: d.queueDepth, Policy: d.queueAdmission.String()}
	}
	return q.Stats()
}
