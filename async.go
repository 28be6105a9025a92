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

// Ticket is the outcome of one asynchronous submission. The operation has
// executed, been shed by admission control, or been cancelled by the time
// Submit* returns its Ticket. All methods are safe for concurrent use. A
// Ticket must not be copied.
//
// It is the submission queue's own entry for the operation under the public
// error taxonomy, not a wrapper around one, so the methods below convert the
// pointer and classify the outcome. A ticket is 16 bytes, carved 255 to an
// allocation from per-shard slabs: holding one keeps its slab (4 KiB) alive.
type Ticket queue.Ticket

func (t *Ticket) entry() *queue.Ticket { return (*queue.Ticket)(t) }

// Done returns a closed channel: the operation completed before Submit*
// returned the ticket.
func (t *Ticket) Done() <-chan struct{} { return t.entry().Done() }

// Err returns the operation's outcome under the public error taxonomy: nil
// for success, ErrQueueFull for an operation shed by admission control, the
// submission context's error for a cancellation observed before execution,
// and the executed operation's error otherwise.
func (t *Ticket) Err() error { return wrapErr(t.entry().Err()) }

// Wait returns the operation's outcome as Err would and ends the device's
// current round of submissions (see SubmitWrite). It never blocks, and the
// outcome wins even over a ctx that is already cancelled.
func (t *Ticket) Wait(ctx context.Context) error { return wrapErr(t.entry().Wait(ctx)) }

// CompletedAt returns the operation's completion instant on the simulator's
// virtual timeline (zero for shed or cancelled operations).
func (t *Ticket) CompletedAt() time.Duration { return t.entry().CompletedAt() }

// SubmitWrite admits and executes one logical page write on the device's
// asynchronous submission path, on the calling goroutine, and returns its
// completed Ticket.
//
// Submissions arrive in rounds: every Submit* call since the caller last
// waited (Ticket.Wait or Drain) belongs to one round, which arrives on the
// device's virtual timeline at the latest shard clock at the round's first
// submission, as a batch's operations share one arrival. Each shard then
// executes its share of the round back to back on its own dies, so a caller
// that submits a round before waiting overlaps it across channels and dies,
// which is how the device's parallelism is reached. An operation whose shard
// is already further behind its round's arrival than the depth's budget (see
// WithQueueDepth) meets the configured WithAdmissionPolicy: see AdmitShed and
// AdmitWait.
func (d *Device) SubmitWrite(ctx context.Context, lpn LPN) (*Ticket, error) {
	return d.submit(ctx, queue.OpWrite, lpn)
}

// SubmitRead submits one logical page read; semantics as SubmitWrite.
func (d *Device) SubmitRead(ctx context.Context, lpn LPN) (*Ticket, error) {
	return d.submit(ctx, queue.OpRead, lpn)
}

// SubmitTrim submits a trim of one logical page; semantics as SubmitWrite.
func (d *Device) SubmitTrim(ctx context.Context, lpn LPN) (*Ticket, error) {
	return d.submit(ctx, queue.OpTrim, lpn)
}

// submit routes one asynchronous operation through the submission engine,
// stamped with its round's arrival.
func (d *Device) submit(ctx context.Context, kind queue.OpKind, lpn LPN) (*Ticket, error) {
	if err := d.guard(ctx); err != nil {
		return nil, err
	}
	tk, err := d.q.Submit(ctx, queue.Request{Kind: kind, LPN: lpn, Arrival: d.q.RoundArrival(), Timed: true})
	if err != nil {
		return nil, wrapErr(err)
	}
	return (*Ticket)(tk), nil
}

// Drain ends the current round of submissions (see SubmitWrite). Every
// operation submitted before the call has already completed, as each
// completes before its Submit* returns.
func (d *Device) Drain(ctx context.Context) error {
	if err := d.guard(ctx); err != nil {
		return err
	}
	return wrapErr(d.q.Drain(ctx))
}
