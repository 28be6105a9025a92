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
	// ErrFull is the outcome of a submission AdmitShed drops instead of
	// letting its shard's backlog grow past the depth budget.
	ErrFull = errors.New("queue: submission queue is full")
	// ErrClosed is returned by Submit and Drain after Close.
	ErrClosed = errors.New("queue: engine is closed")
)

// Policy selects what admission control does with an operation that arrives
// when its shard's backlog already exceeds the depth budget.
type Policy int

const (
	// AdmitShed drops the operation: its Ticket completes with ErrFull and
	// the drop is counted. Completed operations keep a bounded tail because
	// nothing ever waits behind more than the budget.
	AdmitShed Policy = iota
	// AdmitWait admits the operation anyway: the overflow is counted as a
	// delay, and the operation's waiting time is accounted from the instant
	// the queue had room for it. Nothing is ever dropped.
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
)

// Request is one submitted operation.
type Request struct {
	// Kind is the operation type.
	Kind OpKind
	// LPN is the logical page the operation targets.
	LPN flash.LPN
	// Arrival is the operation's virtual arrival instant; meaningful only
	// when Timed. Open-loop generators stamp it from their arrival process;
	// the public API stamps its round's arrival (see Engine.RoundArrival).
	Arrival time.Duration
	// Timed enables virtual-time accounting for the request: admission
	// control measures the shard's backlog against Arrival, the shard's
	// arrival clock is ratcheted to it before execution (so the op cannot
	// start before it arrived), and the arrival-to-completion latency is
	// recorded. Untimed requests skip all three.
	Timed bool
}

// Config wires an Engine to the executor underneath it.
type Config struct {
	// Shards is the number of submission queues (one per executor shard).
	Shards int
	// Depth is the per-shard queue depth: times Quantum, the virtual backlog
	// budget admission control enforces.
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
	// Exec executes one admitted request on its shard. It is called on the
	// submitting goroutine under the shard's lock, one call at a time per
	// shard, so it must not submit to the same engine, nor take the lock
	// Latch returns.
	Exec func(shard int, req Request) error
	// Clock returns the shard's current virtual completion instant; nil
	// disables virtual admission and latency accounting. It is called under
	// the shard's lock.
	Clock func(shard int) time.Duration
	// Advance ratchets the shard's arrival clock forward to at least t; nil
	// disables pre-execution arrival stamping. It is called under the
	// shard's lock.
	Advance func(shard int, t time.Duration)
	// Latch returns the executor's own lock for a shard, which New reads
	// once per shard. When set, it is the shard's lock: admission, Exec and
	// the shard's books all run under it, so a submission takes one lock,
	// and the shard's clock cannot move between admission and execution.
	// Shards may share a latch. Nil gives each shard a mutex of the queue's
	// own.
	Latch func(shard int) *sync.Mutex
}

// Ticket is the outcome of one submission. Submit admits and executes the
// operation (or sheds or cancels it) before it returns the ticket, so a
// ticket is complete from the start. A ticket is 16 bytes, its completion
// instant and a pointer to its outcome, and is carved from per-shard slabs of
// slabTickets, one heap object per slab, not per submission; a held ticket
// keeps its whole slab alive (4 KiB). All methods are safe for concurrent
// use. A Ticket must not be copied.
type Ticket struct {
	completedAt time.Duration
	out         *outcome
}

// outcome is what a ticket's operation came to. Every successful submission
// on an engine points at the engine's one ok outcome; a shed, cancelled or
// failed one gets an outcome of its own.
type outcome struct {
	// e is the engine the ticket came from: Wait ends its round.
	e   *Engine
	err error
}

// closedDone is the channel every Done returns: a ticket is complete from the
// start, so its channel is closed from the start too.
var closedDone = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Done returns a closed channel: the operation completed before Submit
// returned the ticket.
func (t *Ticket) Done() <-chan struct{} { return closedDone }

// Err returns the operation's outcome: nil for success, ErrFull for a shed
// admission, the submission ctx's error for a cancellation observed before
// execution, the executor's error otherwise.
func (t *Ticket) Err() error { return t.out.err }

// Wait returns the operation's outcome, as Err does, and ends the engine's
// current round of submissions (see Engine.RoundArrival). It never blocks: the
// operation completed before Submit returned the ticket, so its outcome wins
// whatever the state of ctx.
func (t *Ticket) Wait(_ context.Context) error {
	t.out.e.round.Store(0)
	return t.out.err
}

// CompletedAt returns the operation's virtual completion instant on its
// shard's timeline; zero for shed or cancelled operations.
func (t *Ticket) CompletedAt() time.Duration { return t.completedAt }

// slabTickets is the number of tickets one slab holds. 255 tickets of 16
// bytes fill 4080 bytes, which with the 8-byte header Go puts on a pointerful
// object over 512 bytes fits the 4096-byte size class: 16.06 bytes a ticket.
// One more ticket would push the slab into the 4864-byte class.
const slabTickets = 255

// shardQueue is one shard's admission state and its counters.
type shardQueue struct {
	// mu serialises the shard's submissions: admission, execution and every
	// field below. It is the executor's latch (Config.Latch) or, without
	// one, a mutex of the queue's own.
	mu *sync.Mutex

	// slab is where the shard's next ticket is carved from: slot next, until
	// every slot is handed out and a fresh slab replaces it.
	slab *[slabTickets]Ticket
	next int

	// Every submission counted in submitted ends in exactly one of
	// completed, shed and cancelled before its Submit returns.
	submitted, completed, shed, delayed, cancelled int64

	lat stats.Histogram
}

// Stats is the queue's instrumentation: cumulative counters and, for timed
// submissions, the arrival-to-completion latency distribution (queueing
// behind the shard's backlog included).
type Stats struct {
	// Depth is the configured per-shard queue depth.
	Depth int
	// Policy is the configured admission policy's name.
	Policy string
	// Submitted counts submissions accepted by Submit.
	Submitted int64
	// Completed counts operations that executed, successfully or not.
	Completed int64
	// Shed counts operations dropped by AdmitShed admission control.
	Shed int64
	// Delayed counts operations AdmitWait admitted past the backlog budget.
	Delayed int64
	// Cancelled counts operations whose submission ctx was already cancelled
	// when Submit reached them.
	Cancelled int64
	// InFlight is Submitted - Completed - Shed - Cancelled. Every submission
	// completes before its Submit returns, so it is zero.
	InFlight int64
	// Latency is the timed submissions' arrival-to-completion distribution.
	Latency stats.Summary
}

// Engine is the submission/completion engine; build one with New, submit with
// Submit, stop it with Close.
type Engine struct {
	cfg    Config
	budget time.Duration
	shards []shardQueue
	closed atomic.Bool
	// round is the open round's arrival instant plus one, or zero when no
	// round is open; see RoundArrival.
	round atomic.Int64
	// ok is the outcome every successful submission's ticket points at.
	ok outcome
}

// New validates cfg and returns the engine.
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
	e := &Engine{
		cfg:    cfg,
		budget: time.Duration(cfg.Depth) * cfg.Quantum,
		shards: make([]shardQueue, cfg.Shards),
	}
	e.ok.e = e
	for i := range e.shards {
		if cfg.Latch != nil {
			e.shards[i].mu = cfg.Latch(i)
		} else {
			e.shards[i].mu = new(sync.Mutex)
		}
	}
	return e, nil
}

// newTicket carves the next ticket from the shard's slab, starting a fresh
// slab when that one is used up. Callers hold the shard lock.
func (sq *shardQueue) newTicket() *Ticket {
	if sq.slab == nil || sq.next == slabTickets {
		sq.slab, sq.next = new([slabTickets]Ticket), 0
	}
	tk := &sq.slab[sq.next]
	sq.next++
	return tk
}

// Submit admits and executes one operation on the calling goroutine, under
// its shard's lock, and returns its completed Ticket. Admission measures the
// shard's virtual backlog against the request's arrival (see AdmitShed and
// AdmitWait) and its outcome, like a cancellation of ctx observed before
// execution, is delivered through the Ticket.
func (e *Engine) Submit(ctx context.Context, req Request) (*Ticket, error) {
	s, err := e.cfg.ShardOf(req.LPN)
	if err != nil {
		return nil, err
	}
	sq := &e.shards[s]
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	tk := sq.newTicket()
	sq.submitted++
	tk.completedAt, err = e.process(ctx, s, sq, req)
	if err == nil {
		tk.out = &e.ok
	} else {
		tk.out = &outcome{e: e, err: err}
	}
	return tk, nil
}

// process admits and executes one request on shard s, returning its
// completion instant and outcome. Callers hold the shard lock, so the shard's
// clock advances only in submission order: a shed/delay decision is a pure
// function of the shard's arrival stream.
func (e *Engine) process(ctx context.Context, s int, sq *shardQueue, req Request) (time.Duration, error) {
	// The cancellation boundary: an operation whose submission ctx is dead
	// fails here, before any IO.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			sq.cancelled++
			return 0, err
		}
	}
	arr := req.Arrival
	timed := req.Timed && e.cfg.Clock != nil
	if timed {
		if lag := e.cfg.Clock(s) - arr; lag > e.budget {
			switch e.cfg.Policy {
			case AdmitShed:
				sq.shed++
				return 0, ErrFull
			case AdmitWait:
				// Admit, accounting the wait from the instant the backlog
				// last fit the budget — the instant a blocked producer
				// would have been released to submit.
				sq.delayed++
				arr = e.cfg.Clock(s) - e.budget
			}
		}
		if e.cfg.Advance != nil {
			e.cfg.Advance(s, arr)
		}
	}
	err := e.cfg.Exec(s, req)
	sq.completed++
	var done time.Duration
	if e.cfg.Clock != nil {
		done = e.cfg.Clock(s)
	}
	if timed && err == nil {
		sq.lat.Record(done - arr)
	}
	return done, err
}

// RoundArrival returns the arrival instant of the current round of
// submissions, opening a round at the latest shard clock if none is open. A
// round is every submission stamped with RoundArrival since the last
// Ticket.Wait or Drain on the engine: like a batch's operations, the round's
// submissions share one arrival, so admission control measures the backlog
// the round builds on each shard, and a caller that submits without waiting
// runs into the depth budget.
func (e *Engine) RoundArrival() time.Duration {
	if at := e.round.Load(); at != 0 {
		return time.Duration(at - 1)
	}
	var at time.Duration
	if e.cfg.Clock != nil {
		for s := range e.shards {
			at = max(at, e.cfg.Clock(s))
		}
	}
	e.round.Store(int64(at) + 1)
	return at
}

// Drain ends the current round of submissions (see RoundArrival). Every
// operation has completed by the time its Submit returns, so there is nothing
// to wait for: Drain returns ErrClosed after Close and nil otherwise.
func (e *Engine) Drain(_ context.Context) error {
	if e.closed.Load() {
		return ErrClosed
	}
	e.round.Store(0)
	return nil
}

// Close stops the engine: later submissions and drains fail with ErrClosed.
// It takes each shard's lock in turn, so a submission already executing
// finishes before Close returns and none starts after. Close is idempotent
// and safe to call concurrently with Submit.
func (e *Engine) Close() {
	e.closed.Store(true)
	for i := range e.shards {
		// Taking the lock waits out a submission executing on the shard.
		e.shards[i].mu.Lock()
		e.shards[i].mu.Unlock()
	}
}

// Stats sums the shards' counters and merges their latency histograms.
func (e *Engine) Stats() Stats {
	merged := stats.NewHistogram()
	out := Stats{Depth: e.cfg.Depth, Policy: e.cfg.Policy.String()}
	for i := range e.shards {
		sq := &e.shards[i]
		sq.mu.Lock()
		out.Submitted += sq.submitted
		out.Completed += sq.completed
		out.Shed += sq.shed
		out.Cancelled += sq.cancelled
		out.Delayed += sq.delayed
		merged.Merge(&sq.lat)
		sq.mu.Unlock()
	}
	out.InFlight = out.Submitted - out.Completed - out.Shed - out.Cancelled
	out.Latency = merged.Summary()
	return out
}

// ResetLatency empties the latency histograms (counters are untouched),
// typically after a warm-up phase.
func (e *Engine) ResetLatency() {
	for i := range e.shards {
		sq := &e.shards[i]
		sq.mu.Lock()
		sq.lat.Reset()
		sq.mu.Unlock()
	}
}
