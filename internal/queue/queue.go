package queue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"geckoftl/internal/flash"
	"geckoftl/internal/stats"
)

var (
	// ErrFull is returned (on the Submit call for a full transport queue,
	// through the Ticket for a shed admission) when AdmitShed drops an
	// operation instead of letting backlog grow past the depth budget.
	ErrFull = errors.New("queue: submission queue is full")
	// ErrClosed is returned by Submit and Drain after Close.
	ErrClosed = errors.New("queue: engine is closed")
	// ErrPending is returned by Ticket.Err while the operation is still in
	// flight.
	ErrPending = errors.New("queue: operation still in flight")
)

// Policy selects what admission control does with an operation that arrives
// when its shard's backlog already exceeds the depth budget.
type Policy int

const (
	// AdmitShed drops the operation: the submission fails fast with ErrFull
	// (or the Ticket completes with it) and the drop is counted. Completed
	// operations keep a bounded tail because nothing ever waits behind more
	// than the budget.
	AdmitShed Policy = iota
	// AdmitWait admits the operation anyway: the transport send blocks until
	// there is room (honouring ctx), the overflow is counted as a delay, and
	// the operation's waiting time is accounted from the instant the queue
	// had room for it. Nothing is ever dropped.
	AdmitWait
)

// String returns the flag-friendly policy name.
func (p Policy) String() string {
	switch p {
	case AdmitShed:
		return "shed"
	case AdmitWait:
		return "wait"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps "shed" or "wait" to the Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "shed":
		return AdmitShed, nil
	case "wait":
		return AdmitWait, nil
	default:
		return 0, fmt.Errorf("queue: unknown admission policy %q (want shed or wait)", s)
	}
}

// OpKind is the operation type of a submission.
type OpKind = flash.HostOp

const (
	OpWrite = flash.HostWrite
	OpRead  = flash.HostRead
	OpTrim  = flash.HostTrim
	// opBarrier is Drain's internal fence: it completes when every earlier
	// submission of its shard has completed, executes nothing, and bypasses
	// admission control.
	opBarrier OpKind = -1
)

// Request is one submitted operation.
type Request struct {
	// Kind is the operation type.
	Kind OpKind
	// LPN is the logical page the operation targets.
	LPN flash.LPN
	// Arrival is the operation's virtual arrival instant; meaningful only
	// when Timed. Open-loop generators stamp it from their arrival process;
	// the public API stamps the host's last observed device instant.
	Arrival time.Duration
	// Timed enables virtual-time accounting for the request: admission
	// control measures the shard's backlog against Arrival, the shard's
	// arrival clock is ratcheted to it before execution (so the op cannot
	// start before it arrived), and the submission-to-completion latency is
	// recorded. Untimed requests skip all three.
	Timed bool
}

// Config wires an Engine to the executor underneath it.
type Config struct {
	// Shards is the number of submission queues (one per executor shard).
	Shards int
	// Depth is the per-shard queue depth: both the transport capacity and,
	// times Quantum, the virtual backlog budget admission control enforces.
	Depth int
	// Policy selects what admission control does at the budget; see
	// AdmitShed and AdmitWait.
	Policy Policy
	// Quantum is the service-slot estimate admission control multiplies
	// Depth by to obtain the backlog budget; typically the device's
	// page-program latency. Zero selects a millisecond.
	Quantum time.Duration
	// ShardOf routes a logical page to its shard.
	ShardOf func(lpn flash.LPN) (int, error)
	// Exec executes one admitted request on its shard. It is called from the
	// shard's worker goroutine only, one call at a time per shard.
	Exec func(shard int, req Request) error
	// Clock returns the shard's current virtual completion instant; nil
	// disables virtual admission and latency accounting.
	Clock func(shard int) time.Duration
	// Advance ratchets the shard's arrival clock forward to at least t; nil
	// disables pre-execution arrival stamping.
	Advance func(shard int, t time.Duration)
}

// Ticket is one submission, start to finish: the entry the shard's worker
// dequeues (it carries the submission's ctx and Request) and the future handed
// back to the submitter, which completes when the operation has executed (or
// been shed or cancelled), carrying the outcome. Tickets are carved from
// per-shard slabs of 64, one heap object per slab, not per submission;
// completing a ticket makes no channel unless somebody asked for Done. A held
// ticket keeps its whole slab alive (at most 8 KiB) but not the submission's
// ctx, which finish lets go of. All methods are safe for concurrent use. A
// Ticket must not be copied.
type Ticket struct {
	// ctx and req are set by Submit before the hand-off to the worker; finish
	// clears ctx before it publishes completion, and nothing else writes
	// either.
	ctx context.Context
	req Request

	// The outcome, written by the shard worker before it publishes
	// completion; readers may touch it only once the ticket has completed
	// (Wait returned, Err is not ErrPending, or Done is closed).
	err         error
	completedAt time.Duration

	// completed is the publication: stored, under mu, after the outcome.
	completed atomic.Bool
	// pending holds one count from send to finish; it is what Wait blocks on
	// when its ctx cannot be cancelled.
	pending sync.WaitGroup
	// mu guards done, the channel Done makes on first request.
	mu   sync.Mutex
	done chan struct{}
}

// finish records the outcome and completes the ticket; the shard worker calls
// it exactly once per ticket.
func (t *Ticket) finish(completedAt time.Duration, err error) {
	t.ctx = nil
	t.completedAt = completedAt
	t.err = err
	t.mu.Lock()
	t.completed.Store(true)
	if t.done != nil {
		close(t.done)
	}
	t.mu.Unlock()
	t.pending.Done()
}

// Done returns a channel closed when the operation has completed. The channel
// is made on the first call (already closed if the operation completed
// first); every call returns the same one.
func (t *Ticket) Done() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done == nil {
		t.done = make(chan struct{})
		if t.completed.Load() {
			close(t.done)
		}
	}
	return t.done
}

// Err returns the operation's outcome: nil for success, ErrFull for a shed
// admission, the submission ctx's error for a cancellation observed before
// execution, the executor's error otherwise. Before completion it returns
// ErrPending.
func (t *Ticket) Err() error {
	if !t.completed.Load() {
		return ErrPending
	}
	return t.err
}

// Wait blocks until the operation completes or ctx is cancelled, returning
// the operation's outcome (or ctx's error). A completed ticket returns its
// outcome whatever the state of ctx. A ctx that cannot be cancelled — nil, or
// one whose Done channel is nil, as context.Background's — waits on the
// ticket itself and makes no channel; a cancellable one selects on Done.
func (t *Ticket) Wait(ctx context.Context) error {
	if t.completed.Load() {
		return t.err
	}
	if ctx == nil || ctx.Done() == nil {
		t.pending.Wait()
		return t.err
	}
	select {
	case <-t.Done():
		return t.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CompletedAt returns the operation's virtual completion instant on its
// shard's timeline; zero for shed or cancelled operations. Valid once the
// ticket has completed.
func (t *Ticket) CompletedAt() time.Duration { return t.completedAt }

// slabTickets is the number of tickets one slab holds. 64 tickets of 120
// bytes and the index fill 7688 bytes, which with the 8-byte header Go puts on
// a pointerful object over 512 bytes fits the 8192-byte size class: 128 bytes
// a ticket, as when each was its own object. A ticket padded to 128 bytes
// would push the slab into the 9472-byte class.
const slabTickets = 64

// ticketSlab is the one allocation slabTickets submissions share. next is the
// index of the first slot not yet handed out; it only grows, and runs past
// slabTickets once the slab is used up.
type ticketSlab struct {
	next    atomic.Int64
	tickets [slabTickets]Ticket
}

// shardQueue is one shard's submission queue and its counters.
type shardQueue struct {
	// mu guards ch against Close: submitters send under RLock, Close closes
	// the channel under Lock.
	mu     sync.RWMutex
	ch     chan *Ticket
	closed bool

	// slab is where the shard's next ticket is carved from.
	slab atomic.Pointer[ticketSlab]

	// Every submission counted in submitted ends in exactly one of
	// completed, shed and cancelled; the difference is what is in flight.
	submitted atomic.Int64
	completed atomic.Int64
	shed      atomic.Int64
	delayed   atomic.Int64
	cancelled atomic.Int64

	// latMu guards lat: the worker records, Stats merges.
	latMu sync.Mutex
	lat   *stats.Histogram
}

// Stats is the queue's instrumentation: cumulative counters and, for timed
// submissions, the submission-to-completion latency distribution (queueing
// behind the shard's backlog included).
type Stats struct {
	// Depth is the configured per-shard queue depth.
	Depth int
	// Policy is the configured admission policy's name.
	Policy string
	// Submitted counts submissions accepted by Submit (sheds at the full
	// transport included, barriers excluded).
	Submitted int64
	// Completed counts operations that executed, successfully or not.
	Completed int64
	// Shed counts operations dropped by AdmitShed admission control.
	Shed int64
	// Delayed counts operations AdmitWait admitted past the backlog budget.
	Delayed int64
	// Cancelled counts operations whose submission ctx was observed
	// cancelled before execution: by the worker on a queued operation, or by
	// Submit while it was blocked on a full queue.
	Cancelled int64
	// InFlight is the number of submissions currently queued or executing:
	// Submitted - Completed - Shed - Cancelled.
	InFlight int64
	// Latency is the timed submissions' arrival-to-completion distribution.
	Latency stats.Summary
}

// Engine is the asynchronous submission/completion engine; build one with
// New, submit with Submit, stop it with Close.
type Engine struct {
	cfg    Config
	budget time.Duration
	shards []*shardQueue
	closed atomic.Bool
	wg     sync.WaitGroup
}

// New validates cfg, starts one worker goroutine per shard and returns the
// running engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("queue: shard count %d must be at least 1", cfg.Shards)
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("queue: depth %d must be at least 1", cfg.Depth)
	}
	if cfg.Policy != AdmitShed && cfg.Policy != AdmitWait {
		return nil, fmt.Errorf("queue: unknown admission policy %v", cfg.Policy)
	}
	if cfg.ShardOf == nil || cfg.Exec == nil {
		return nil, errors.New("queue: ShardOf and Exec hooks are required")
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = time.Millisecond
	}
	e := &Engine{cfg: cfg, budget: time.Duration(cfg.Depth) * cfg.Quantum}
	for i := 0; i < cfg.Shards; i++ {
		e.shards = append(e.shards, &shardQueue{
			ch:  make(chan *Ticket, cfg.Depth),
			lat: stats.NewHistogram(),
		})
	}
	for i := range e.shards {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// newTicket carves a ticket for ctx and req from the shard's current slab,
// swapping in a fresh slab when that one is used up. Each slot is handed out
// once: the atomic index gives it to one caller, and a slab is only ever
// replaced by a fresh one, so concurrent submitters never share a ticket.
func (sq *shardQueue) newTicket(ctx context.Context, req Request) *Ticket {
	var tk *Ticket
	for tk == nil {
		sl := sq.slab.Load()
		if sl != nil {
			if i := sl.next.Add(1) - 1; i < slabTickets {
				tk = &sl.tickets[i]
				break
			}
		}
		fresh := new(ticketSlab)
		fresh.next.Store(1)
		if sq.slab.CompareAndSwap(sl, fresh) {
			tk = &fresh.tickets[0]
		}
	}
	tk.ctx, tk.req = ctx, req
	return tk
}

// Submit enqueues one operation and returns its Ticket. Under AdmitShed a
// full transport queue fails fast with ErrFull (and no Ticket); under
// AdmitWait the send blocks until there is room, honouring ctx. The deeper
// admission decision — whether the shard's virtual backlog exceeds the depth
// budget — is made by the shard worker in submission order and delivered
// through the Ticket. ctx is also consulted by the worker before execution,
// so cancelling it fails queued-but-unexecuted operations with ctx's error.
func (e *Engine) Submit(ctx context.Context, req Request) (*Ticket, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	s, err := e.cfg.ShardOf(req.LPN)
	if err != nil {
		return nil, err
	}
	sq := e.shards[s]
	tk := sq.newTicket(ctx, req)
	// Counted before the send, so that the worker's terminal count can never
	// run ahead of it.
	sq.submitted.Add(1)
	if err = e.send(sq, tk); err == nil {
		return tk, nil
	}
	tk.ctx = nil // never sent, so nothing else holds the slot: let ctx go
	switch err {
	case ErrClosed:
		sq.submitted.Add(-1) // lost the race with Close: never on the books
	case ErrFull:
		sq.shed.Add(1)
	default:
		sq.cancelled.Add(1) // its ctx ended while the send waited for room
	}
	return nil, err
}

// send performs the transport admission: a non-blocking attempt first, then
// policy-dependent handling of a full queue, honouring the ticket's ctx while
// blocked. Only untimed requests shed here — the transport queue reflects
// host-time backlog, which is the right admission domain for a host submitting
// without virtual arrival stamps. A timed request's admission is decided by
// the shard worker against the virtual clock instead (deterministically, in
// submission order), so its transport send always blocks for room.
func (e *Engine) send(sq *shardQueue, tk *Ticket) error {
	sq.mu.RLock()
	defer sq.mu.RUnlock()
	if sq.closed {
		return ErrClosed
	}
	tk.pending.Add(1) // released by finish; a ticket that is not sent is dropped
	select {
	case sq.ch <- tk:
		return nil
	default:
	}
	if e.cfg.Policy == AdmitShed && !tk.req.Timed && tk.req.Kind != opBarrier {
		return ErrFull
	}
	if tk.ctx == nil {
		sq.ch <- tk
		return nil
	}
	select {
	case sq.ch <- tk:
		return nil
	case <-tk.ctx.Done():
		return tk.ctx.Err()
	}
}

// worker drains shard s's queue in FIFO order until Close closes it,
// executing each admitted ticket's request and completing the ticket.
func (e *Engine) worker(s int) {
	defer e.wg.Done()
	sq := e.shards[s]
	for tk := range sq.ch {
		e.process(s, sq, tk)
	}
}

// process admits and executes one dequeued ticket. Virtual admission happens
// here, on the worker, because only the worker sees the shard's clock advance
// in submission order: a shed/delay decision is then a pure function of the
// shard's arrival stream, deterministic regardless of host scheduling.
func (e *Engine) process(s int, sq *shardQueue, tk *Ticket) {
	if tk.req.Kind == opBarrier {
		tk.finish(0, nil)
		return
	}
	// The cancellation boundary: an operation whose submission ctx died
	// while queued fails here, before any IO.
	if tk.ctx != nil {
		if err := tk.ctx.Err(); err != nil {
			sq.cancelled.Add(1)
			tk.finish(0, err)
			return
		}
	}
	arr := tk.req.Arrival
	timed := tk.req.Timed && e.cfg.Clock != nil
	if timed {
		if lag := e.cfg.Clock(s) - arr; lag > e.budget {
			switch e.cfg.Policy {
			case AdmitShed:
				sq.shed.Add(1)
				tk.finish(0, ErrFull)
				return
			case AdmitWait:
				// Admit, accounting the wait from the instant the backlog
				// last fit the budget — the instant a blocked producer
				// would have been released to submit.
				sq.delayed.Add(1)
				arr = e.cfg.Clock(s) - e.budget
			}
		}
		if e.cfg.Advance != nil {
			e.cfg.Advance(s, arr)
		}
	}
	err := e.cfg.Exec(s, tk.req)
	sq.completed.Add(1)
	var done time.Duration
	if e.cfg.Clock != nil {
		done = e.cfg.Clock(s)
	}
	if timed && err == nil {
		sq.latMu.Lock()
		sq.lat.Record(done - arr)
		sq.latMu.Unlock()
	}
	tk.finish(done, err)
}

// Drain blocks until every operation submitted before the call has completed,
// by fencing each shard's queue with a barrier and waiting for all of them.
// Operations submitted concurrently with Drain may or may not be covered.
func (e *Engine) Drain(ctx context.Context) error {
	if e.closed.Load() {
		return ErrClosed
	}
	tickets := make([]*Ticket, 0, len(e.shards))
	for _, sq := range e.shards {
		fence := sq.newTicket(ctx, Request{Kind: opBarrier})
		if err := e.send(sq, fence); err != nil {
			return err
		}
		tickets = append(tickets, fence)
	}
	for _, tk := range tickets {
		if err := tk.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the engine: new submissions fail with ErrClosed, already
// queued operations execute to completion, and the shard workers exit.
// Close is idempotent and safe to call concurrently with Submit.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	for _, sq := range e.shards {
		sq.mu.Lock()
		sq.closed = true
		close(sq.ch)
		sq.mu.Unlock()
	}
	e.wg.Wait()
}

// Stats sums the shards' counters and merges their latency histograms.
func (e *Engine) Stats() Stats {
	merged := stats.NewHistogram()
	out := Stats{Depth: e.cfg.Depth, Policy: e.cfg.Policy.String()}
	for _, sq := range e.shards {
		// The terminal counters are read before submitted: an operation is
		// counted as submitted before it can reach a terminal count, so the
		// difference below is never negative.
		out.Completed += sq.completed.Load()
		out.Shed += sq.shed.Load()
		out.Cancelled += sq.cancelled.Load()
		out.Submitted += sq.submitted.Load()
		out.Delayed += sq.delayed.Load()
		sq.latMu.Lock()
		merged.Merge(sq.lat)
		sq.latMu.Unlock()
	}
	out.InFlight = out.Submitted - out.Completed - out.Shed - out.Cancelled
	out.Latency = merged.Summary()
	return out
}

// ResetLatency empties the latency histograms (counters are untouched),
// typically after a warm-up phase.
func (e *Engine) ResetLatency() {
	for _, sq := range e.shards {
		sq.latMu.Lock()
		sq.lat.Reset()
		sq.latMu.Unlock()
	}
}
