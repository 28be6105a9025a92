package queue

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"geckoftl/internal/flash"
)

// testEngine builds an engine over an in-memory executor: ShardOf is a modulo
// route, Exec optionally gates on a channel, and the virtual clock is a fixed
// per-test value (virtual admission compares it against request arrivals).
type testEngine struct {
	*Engine
	execed   atomic.Int64
	advanced atomic.Int64 // last Advance instant, nanoseconds
	gate     chan struct{}
	gateOnce sync.Once
}

type testConfig struct {
	shards  int
	depth   int
	policy  Policy
	clock   time.Duration // fixed Clock value; negative disables the hook
	gate    chan struct{} // if non-nil, Exec receives from it before returning
	execErr error
}

// closeGate releases the engine's Exec gate (idempotently), so cleanup can
// always unblock the workers before Close waits for them.
func (te *testEngine) closeGate() {
	if te.gate != nil {
		te.gateOnce.Do(func() { close(te.gate) })
	}
}

func newTestEngine(t *testing.T, tc testConfig) *testEngine {
	t.Helper()
	te := &testEngine{gate: tc.gate}
	cfg := Config{
		Shards:  tc.shards,
		Depth:   tc.depth,
		Policy:  tc.policy,
		Quantum: time.Millisecond,
		ShardOf: func(lpn flash.LPN) (int, error) {
			return int(lpn) % tc.shards, nil
		},
		Exec: func(shard int, req Request) error {
			if tc.gate != nil {
				<-tc.gate
			}
			te.execed.Add(1)
			return tc.execErr
		},
	}
	if tc.clock >= 0 {
		cfg.Clock = func(shard int) time.Duration { return tc.clock }
		cfg.Advance = func(shard int, at time.Duration) { te.advanced.Store(int64(at)) }
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	te.Engine = eng
	t.Cleanup(func() {
		te.closeGate()
		eng.Close()
	})
	return te
}

// waitWorkerIdle spins until shard's transport queue is empty, i.e. the worker
// has dequeued everything submitted so far (it may still be executing).
func waitWorkerIdle(t *testing.T, e *Engine, shard int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(e.shards[shard].ch) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d queue never drained", shard)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// pathDeadline bounds the wait for a ticket that one terminal path of
// Engine.process must finish.
const pathDeadline = 5 * time.Second

// waitPath waits for a ticket the named terminal path of Engine.process must
// finish, and returns its outcome. A worker that drops the ticket on that path
// fails the test here, within the deadline and under the path's name, where a
// bare Wait would hang until the package's timeout panics.
func waitPath(t *testing.T, path string, tk *Ticket) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), pathDeadline)
	defer cancel()
	err := tk.Wait(ctx)
	if tk.Err() == ErrPending {
		t.Fatalf("process path %q dropped its ticket: not finished after %v", path, pathDeadline)
	}
	return err
}

func TestNewValidation(t *testing.T) {
	shardOf := func(lpn flash.LPN) (int, error) { return 0, nil }
	exec := func(shard int, req Request) error { return nil }
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no shards", Config{Depth: 1, ShardOf: shardOf, Exec: exec}},
		{"no depth", Config{Shards: 1, ShardOf: shardOf, Exec: exec}},
		{"bad policy", Config{Shards: 1, Depth: 1, Policy: Policy(7), ShardOf: shardOf, Exec: exec}},
		{"no hooks", Config{Shards: 1, Depth: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Errorf("New(%+v) accepted an invalid config", tc.cfg)
			}
		})
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{AdmitShed, AdmitWait} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePolicy("drop"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy name")
	}
}

func TestSubmitCompletes(t *testing.T) {
	e := newTestEngine(t, testConfig{shards: 2, depth: 4, policy: AdmitWait, clock: -1})
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: flash.LPN(i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if err := tk.Err(); err != ErrPending && err != nil {
			t.Fatalf("Ticket.Err before completion = %v; want ErrPending or nil", err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if err := tk.Wait(context.Background()); err != nil {
			t.Errorf("ticket %d: %v", i, err)
		}
	}
	st := e.Stats()
	if st.Submitted != 8 || st.Completed != 8 || st.InFlight != 0 || st.Shed != 0 {
		t.Errorf("stats after 8 ops: %+v", st)
	}
	if n := e.execed.Load(); n != 8 {
		t.Errorf("executor ran %d times, want 8", n)
	}
}

func TestExecErrorReachesTicket(t *testing.T) {
	boom := errors.New("media failure")
	e := newTestEngine(t, testConfig{shards: 1, depth: 2, policy: AdmitWait, clock: -1, execErr: boom})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := waitPath(t, "exec error", tk); !errors.Is(err, boom) {
		t.Errorf("ticket error = %v; want %v", err, boom)
	}
	if st := e.Stats(); st.Completed != 1 {
		t.Errorf("an executed-but-failed op must count as completed: %+v", st)
	}
}

func TestTransportShedWhenFull(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, testConfig{shards: 1, depth: 1, policy: AdmitShed, clock: -1, gate: gate})
	// First op occupies the worker, second fills the depth-1 transport queue.
	first, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	waitWorkerIdle(t, e.Engine, 0) // the worker holds op 1; op 2 fills the queue
	second, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	// The transport is now full: an untimed shed-policy submission fails fast.
	if _, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0}); !errors.Is(err, ErrFull) {
		t.Fatalf("Submit on full queue = %v; want ErrFull", err)
	}
	e.closeGate()
	for _, tk := range []*Ticket{first, second} {
		if err := tk.Wait(context.Background()); err != nil {
			t.Errorf("admitted op failed: %v", err)
		}
	}
	st := e.Stats()
	if st.Shed != 1 || st.Completed != 2 {
		t.Errorf("stats: %+v; want 1 shed, 2 completed", st)
	}
}

func TestSubmitBlocksUnderWaitPolicy(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, testConfig{shards: 1, depth: 1, policy: AdmitWait, clock: -1, gate: gate})
	if _, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0}); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	waitWorkerIdle(t, e.Engine, 0)
	if _, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0}); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	// Transport full; a wait-policy Submit blocks until ctx dies.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := e.Submit(ctx, Request{Kind: OpWrite, LPN: 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Submit = %v; want context.Canceled", err)
	}
	e.closeGate()
}

func TestVirtualAdmissionSheds(t *testing.T) {
	// Clock far ahead of the request's arrival: backlog 100ms against a
	// 4 x 1ms budget, so a shed-policy timed request must fail via its ticket.
	e := newTestEngine(t, testConfig{shards: 1, depth: 4, policy: AdmitShed, clock: 100 * time.Millisecond})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0, Arrival: 0, Timed: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := waitPath(t, "shed", tk); !errors.Is(err, ErrFull) {
		t.Fatalf("ticket error = %v; want ErrFull", err)
	}
	if tk.CompletedAt() != 0 {
		t.Errorf("shed op has completion instant %v", tk.CompletedAt())
	}
	st := e.Stats()
	if st.Shed != 1 || st.Completed != 0 || e.execed.Load() != 0 {
		t.Errorf("shed op must not execute: %+v, execed=%d", st, e.execed.Load())
	}
	// An arrival inside the budget is admitted and executed.
	tk, err = e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0, Arrival: 99 * time.Millisecond, Timed: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := waitPath(t, "executed", tk); err != nil {
		t.Fatalf("in-budget op failed: %v", err)
	}
	if at := time.Duration(e.advanced.Load()); at != 99*time.Millisecond {
		t.Errorf("arrival advanced to %v; want 99ms", at)
	}
}

func TestVirtualAdmissionWaitRestampsArrival(t *testing.T) {
	e := newTestEngine(t, testConfig{shards: 1, depth: 4, policy: AdmitWait, clock: 100 * time.Millisecond})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0, Arrival: 0, Timed: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := waitPath(t, "delayed then executed", tk); err != nil {
		t.Fatalf("delayed op failed: %v", err)
	}
	st := e.Stats()
	if st.Delayed != 1 || st.Shed != 0 || st.Completed != 1 {
		t.Errorf("stats: %+v; want 1 delayed, 1 completed", st)
	}
	// The effective arrival is pushed to clock minus budget: the instant the
	// backlog last fit, i.e. when a blocked producer would have been released.
	if st.Latency.Count != 1 || st.Latency.Max != 4*time.Millisecond {
		t.Errorf("latency %+v; want one 4ms sample (completion 100ms - arrival 96ms)", st.Latency)
	}
}

func TestCancelledContextFailsQueuedOps(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, testConfig{shards: 1, depth: 8, policy: AdmitWait, clock: -1, gate: gate})
	blocker, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var doomed []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := e.Submit(ctx, Request{Kind: OpWrite, LPN: 0})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		doomed = append(doomed, tk)
	}
	cancel()
	gate <- struct{}{} // release the blocker only; doomed ops observe the dead ctx
	e.closeGate()
	if err := waitPath(t, "executed", blocker); err != nil {
		t.Fatalf("pre-cancel op failed: %v", err)
	}
	for i, tk := range doomed {
		if err := waitPath(t, "cancelled while queued", tk); !errors.Is(err, context.Canceled) {
			t.Errorf("queued op %d after cancel: %v; want context.Canceled", i, err)
		}
	}
	st := e.Stats()
	if st.Cancelled != 5 || st.Completed != 1 {
		t.Errorf("stats: %+v; want 5 cancelled, 1 completed", st)
	}
	checkBooks(t, st)
	if n := e.execed.Load(); n != 1 {
		t.Errorf("executor ran %d times; cancelled ops must not execute", n)
	}
}

func TestDrainWaitsForSubmitted(t *testing.T) {
	e := newTestEngine(t, testConfig{shards: 4, depth: 4, policy: AdmitWait, clock: -1})
	for i := 0; i < 32; i++ {
		if _, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: flash.LPN(i)}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// Drain waits on one barrier ticket per shard; under a deadline, a worker
	// that drops a barrier fails here and not as the package's timeout.
	ctx, cancel := context.WithTimeout(context.Background(), pathDeadline)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("process path %q: Drain: %v", "barrier", err)
	}
	st := e.Stats()
	if st.Completed != 32 || st.InFlight != 0 {
		t.Errorf("after Drain: %+v; want 32 completed, 0 in flight", st)
	}
}

func TestCloseStopsSubmissions(t *testing.T) {
	e := newTestEngine(t, testConfig{shards: 2, depth: 4, policy: AdmitShed, clock: -1})
	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: flash.LPN(i)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		tickets = append(tickets, tk)
	}
	e.Close()
	e.Close() // idempotent
	// Close drains: everything queued before it completes.
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Errorf("op %d after Close: %v", i, err)
		}
	}
	if _, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v; want ErrClosed", err)
	}
	if err := e.Drain(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Drain after Close = %v; want ErrClosed", err)
	}
}

func TestResetLatency(t *testing.T) {
	e := newTestEngine(t, testConfig{shards: 1, depth: 4, policy: AdmitWait, clock: 5 * time.Millisecond})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0, Arrival: 4 * time.Millisecond, Timed: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := tk.Wait(nil); err != nil {
		t.Fatalf("op failed: %v", err)
	}
	if st := e.Stats(); st.Latency.Count != 1 {
		t.Fatalf("latency count %d; want 1", st.Latency.Count)
	}
	e.ResetLatency()
	st := e.Stats()
	if st.Latency.Count != 0 {
		t.Errorf("latency count %d after reset; want 0", st.Latency.Count)
	}
	if st.Completed != 1 {
		t.Errorf("ResetLatency must not clear counters: %+v", st)
	}
}

// TestSubmitCompleteHammer drives concurrent producers, a Drain caller, and a
// Stats poller through the engine to give the race detector the whole
// submit/complete path. Counter accounting must balance at the end.
func TestSubmitCompleteHammer(t *testing.T) {
	const producers, perProducer = 8, 200
	e := newTestEngine(t, testConfig{shards: 4, depth: 8, policy: AdmitShed, clock: -1})
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Stats()
			}
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Drain(context.Background())
			}
		}
	}()
	var wg sync.WaitGroup
	var shed atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				tk, err := e.Submit(context.Background(), Request{Kind: OpKind(i % 3), LPN: flash.LPN(p*perProducer + i)})
				if errors.Is(err, ErrFull) {
					shed.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				if i%4 == 0 {
					if err := tk.Wait(context.Background()); err != nil {
						t.Errorf("producer %d wait: %v", p, err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("final Drain: %v", err)
	}
	close(stop)
	aux.Wait()
	st := e.Stats()
	if st.Submitted != producers*perProducer {
		t.Errorf("submitted %d; want %d", st.Submitted, producers*perProducer)
	}
	if st.Completed+st.Shed != st.Submitted || st.Shed != shed.Load() {
		t.Errorf("accounting: %+v vs %d observed sheds", st, shed.Load())
	}
	if st.InFlight != 0 {
		t.Errorf("in flight %d after drain; want 0", st.InFlight)
	}
	checkBooks(t, st)
}

// checkBooks asserts the queue's accounting identity: every submission Stats
// counts is completed, shed, cancelled or still in flight.
func checkBooks(t *testing.T, st Stats) {
	t.Helper()
	if st.Submitted != st.Completed+st.Shed+st.Cancelled+st.InFlight {
		t.Errorf("books do not balance: submitted %d != completed %d + shed %d + cancelled %d + in flight %d",
			st.Submitted, st.Completed, st.Shed, st.Cancelled, st.InFlight)
	}
}

// TestAbandonedSendIsAccounted: a Submit whose blocked transport send is given
// up because its ctx ended was counted as submitted; it must then be counted
// as cancelled too, or one operation vanishes from the books that
// internal/sim and perfbench divide by.
func TestAbandonedSendIsAccounted(t *testing.T) {
	gate := make(chan struct{})
	e := newTestEngine(t, testConfig{shards: 1, depth: 1, policy: AdmitWait, clock: -1, gate: gate})
	first, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	waitWorkerIdle(t, e.Engine, 0) // the worker holds op 1; op 2 fills the queue
	second, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Submit(ctx, Request{Kind: OpWrite, LPN: 0}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit = %v; want context.DeadlineExceeded", err)
	}
	e.closeGate()
	for _, tk := range []*Ticket{first, second} {
		if err := tk.Wait(nil); err != nil {
			t.Errorf("admitted op failed: %v", err)
		}
	}
	st := e.Stats()
	if st.Submitted != 3 || st.Completed != 2 || st.Cancelled != 1 || st.InFlight != 0 {
		t.Errorf("stats: %+v; want 3 submitted = 2 completed + 1 cancelled", st)
	}
	checkBooks(t, st)
}

// TestSubmitRacingCloseIsAccounted: a Submit that loses the race with Close
// fails with ErrClosed and must not be on the books; everything Submit did
// accept is completed or shed by the time Close returns.
func TestSubmitRacingCloseIsAccounted(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := newTestEngine(t, testConfig{shards: 2, depth: 2, policy: AdmitShed, clock: -1})
		var accepted atomic.Int64
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; ; i++ {
					_, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: flash.LPN(p + i)})
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil && !errors.Is(err, ErrFull) {
						t.Errorf("producer %d: %v", p, err)
						return
					}
					accepted.Add(1)
				}
			}(p)
		}
		for accepted.Load() < 100 { // producers are submitting
			runtime.Gosched()
		}
		e.Close()
		wg.Wait()
		st := e.Stats()
		if st.Submitted != accepted.Load() || st.InFlight != 0 {
			t.Errorf("round %d: %+v; want %d submitted, none in flight", round, st, accepted.Load())
		}
		checkBooks(t, st)
	}
}

// TestWaitOutcomeBeatsCancelledContext: Wait on a completed ticket returns
// the operation's outcome even when its own ctx is already cancelled — not
// one or the other at random, as a select over two ready cases does.
func TestWaitOutcomeBeatsCancelledContext(t *testing.T) {
	boom := errors.New("media failure")
	e := newTestEngine(t, testConfig{shards: 1, depth: 4, policy: AdmitWait, clock: -1, execErr: boom})
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if err := tk.Wait(nil); !errors.Is(err, boom) {
			t.Fatalf("Wait(nil) = %v; want %v", err, boom)
		}
		if err := tk.Wait(dead); !errors.Is(err, boom) {
			t.Fatalf("iteration %d: Wait(cancelled ctx) on a completed ticket = %v; want the outcome %v", i, err, boom)
		}
	}
}

// gatedTicket submits one write to a one-shard engine whose Exec is held at a
// gate; the returned release lets exactly that operation through.
func gatedTicket(t *testing.T, execErr error) (tk *Ticket, release func()) {
	t.Helper()
	gate := make(chan struct{})
	e := newTestEngine(t, testConfig{shards: 1, depth: 2, policy: AdmitWait, clock: -1, gate: gate, execErr: execErr})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return tk, func() { gate <- struct{}{} }
}

// TestWaitCancelledThenOutcome takes the cancellable route through Wait: a
// ctx cancelled while the operation is held up ends the wait with ctx's
// error, the ticket still completes, and a later Wait reports the outcome.
func TestWaitCancelledThenOutcome(t *testing.T) {
	boom := errors.New("media failure")
	tk, release := gatedTicket(t, boom)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	if err := tk.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait under a ctx cancelled mid-flight = %v; want context.Canceled", err)
	}
	if err := tk.Err(); !errors.Is(err, ErrPending) {
		t.Fatalf("Err of the held operation = %v; want ErrPending", err)
	}
	release()
	if err := tk.Wait(nil); !errors.Is(err, boom) {
		t.Errorf("Wait(nil) after the abandoned wait = %v; want the outcome %v", err, boom)
	}
	if err := tk.Wait(ctx); !errors.Is(err, boom) {
		t.Errorf("Wait(cancelled ctx) on the completed ticket = %v; want the outcome %v", err, boom)
	}
}

// TestDone pins the channel nobody pays for until it is asked for: it blocks
// until completion and then closes, is handed out already closed after
// completion, and is the same channel on every call.
func TestDone(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	t.Run("before completion", func(t *testing.T) {
		tk, release := gatedTicket(t, nil)
		done := tk.Done()
		if closed(done) {
			t.Fatal("Done is closed while the operation is held up")
		}
		if tk.Done() != done {
			t.Error("a second Done call returned a different channel")
		}
		release()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed after the operation completed")
		}
		if err := tk.Err(); err != nil {
			t.Errorf("Err after Done closed = %v", err)
		}
	})
	t.Run("after completion", func(t *testing.T) {
		tk, release := gatedTicket(t, nil)
		release()
		if err := tk.Wait(nil); err != nil {
			t.Fatalf("Wait: %v", err)
		}
		done := tk.Done()
		if !closed(done) {
			t.Error("Done of a completed ticket is not closed")
		}
		if tk.Done() != done {
			t.Error("a second Done call returned a different channel")
		}
	})
}

// TestCompletionRace races one completion against every way of observing it
// — Done, Wait under a cancellable ctx, Wait(nil) and a polled Err — for the
// race detector; every observer must see the outcome. CI-style runs use
// -race -count=200.
func TestCompletionRace(t *testing.T) {
	boom := errors.New("media failure")
	tk, release := gatedTicket(t, boom)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	observers := []func() error{
		func() error { <-tk.Done(); return tk.Err() },
		func() error { return tk.Wait(ctx) },
		func() error { return tk.Wait(nil) },
		func() error {
			for {
				if err := tk.Err(); !errors.Is(err, ErrPending) {
					return err
				}
				runtime.Gosched()
			}
		},
	}
	var wg sync.WaitGroup
	for i, observe := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := observe(); !errors.Is(err, boom) {
				t.Errorf("observer %d saw %v; want the outcome %v", i, err, boom)
			}
		}()
	}
	release()
	wg.Wait()
}

// BenchmarkSubmitWait times one Submit plus Wait through a bare engine whose
// Exec does nothing, 32 tickets in flight on 8 shards: what the queue's own
// plumbing costs per operation with no FTL under it (the in-tree twin of
// perfbench's queue.roundtrip_ns and queue.allocs_per_submit).
func BenchmarkSubmitWait(b *testing.B) {
	const shards, depth = 8, 32
	q, err := New(Config{
		Shards: shards, Depth: depth, Policy: AdmitWait,
		ShardOf: func(lpn flash.LPN) (int, error) { return int(lpn % shards), nil },
		Exec:    func(int, Request) error { return nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	ctx := context.Background()
	tickets := make([]*Ticket, depth)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += depth {
		window := tickets[:min(depth, b.N-done)]
		for i := range window {
			if window[i], err = q.Submit(ctx, Request{Kind: OpWrite, LPN: flash.LPN(done + i)}); err != nil {
				b.Fatal(err)
			}
		}
		for _, tk := range window {
			if err := tk.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// lpnError is the outcome the slab tests' executor gives every operation: the
// page it executed, so a ticket that carries another submission's outcome is
// caught.
type lpnError flash.LPN

func (e lpnError) Error() string { return "executed page " + strconv.Itoa(int(e)) }

// TestSlabTicketsUnderContention: producers submitting concurrently, half to
// one shard and half across all of them, while another goroutine fences the
// queues with Drain, carve their tickets from the shards' slabs. Every ticket
// must be its own pointer and carry its own outcome, the executor must see
// every submitted page exactly once, and the books must balance. A slot handed
// out twice puts two submissions on one ticket: a repeated pointer, a page
// executed twice and another never, and, under -race, a racing write.
func TestSlabTicketsUnderContention(t *testing.T) {
	const shards, producers, perProducer = 4, 8, 1000
	const pages = producers * perProducer * shards
	var seen [pages]atomic.Int32
	q, err := New(Config{
		Shards: shards, Depth: 16, Policy: AdmitWait,
		ShardOf: func(lpn flash.LPN) (int, error) { return int(lpn) % shards, nil },
		Exec: func(_ int, req Request) error {
			seen[req.LPN].Add(1)
			return lpnError(req.LPN)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)

	stop := make(chan struct{})
	fenced := make(chan struct{})
	go func() {
		defer close(fenced)
		for {
			select {
			case <-stop:
				return
			default:
				if err := q.Drain(context.Background()); err != nil {
					t.Errorf("Drain: %v", err)
					return
				}
			}
		}
	}()
	tickets := make([][]*Ticket, producers)
	lpns := make([][]flash.LPN, producers)
	var wg sync.WaitGroup
	start := make(chan struct{}) // all producers at once, for the most overlap
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < perProducer; i++ {
				lpn := flash.LPN((p*perProducer + i) * shards) // shard 0
				if p%2 == 1 {
					lpn += flash.LPN(i % shards)
				}
				tk, err := q.Submit(context.Background(), Request{Kind: OpWrite, LPN: lpn})
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				tickets[p] = append(tickets[p], tk)
				lpns[p] = append(lpns[p], lpn)
			}
		}(p)
	}
	close(start)
	wg.Wait()
	close(stop)
	<-fenced

	distinct := make(map[*Ticket]flash.LPN, producers*perProducer)
	for p := range tickets {
		for i, tk := range tickets[p] {
			lpn := lpns[p][i]
			if other, ok := distinct[tk]; ok {
				t.Fatalf("pages %d and %d were handed the same ticket %p", other, lpn, tk)
			}
			distinct[tk] = lpn
			if err := tk.Wait(nil); err != lpnError(lpn) {
				t.Errorf("ticket of page %d completed with %v", lpn, err)
			}
		}
	}
	for _, lpn := range distinct {
		if n := seen[lpn].Load(); n != 1 {
			t.Errorf("page %d executed %d times, want once", lpn, n)
		}
	}
	executed := 0
	for lpn := range seen {
		executed += int(seen[lpn].Load())
	}
	if executed != producers*perProducer {
		t.Errorf("executed %d operations, submitted %d", executed, producers*perProducer)
	}
	st := q.Stats()
	if st.Submitted != producers*perProducer || st.Completed != st.Submitted || st.InFlight != 0 {
		t.Errorf("stats %+v; want %d submitted, all completed", st, producers*perProducer)
	}
	checkBooks(t, st)
}

// TestHeldTicketPinsItsSlab keeps one ticket of a full slab, drops the other
// tickets and collects: the held ticket keeps its slab, so its outcome, its
// completion instant and Wait stay right, and finishing it let go of the
// submitter's ctx, which a held ticket must not keep alive.
func TestHeldTicketPinsItsSlab(t *testing.T) {
	const slab, kept = 64, 17
	boom := errors.New("media failure")
	q, err := New(Config{
		Shards: 1, Depth: slab, Policy: AdmitWait,
		ShardOf: func(flash.LPN) (int, error) { return 0, nil },
		Exec: func(_ int, req Request) error {
			if req.LPN == kept {
				return boom
			}
			return nil
		},
		Clock: func(int) time.Duration { return 7 * time.Millisecond },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(q.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tickets := make([]*Ticket, slab)
	for i := range tickets {
		if tickets[i], err = q.Submit(ctx, Request{Kind: OpWrite, LPN: flash.LPN(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tk := range tickets {
		if off := uintptr(unsafe.Pointer(tk)) - uintptr(unsafe.Pointer(tickets[0])); off != uintptr(i)*unsafe.Sizeof(Ticket{}) {
			t.Fatalf("ticket %d lies %d bytes past ticket 0: not carved from one slab", i, off)
		}
	}
	if err := q.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	tk := tickets[kept]
	clear(tickets)
	runtime.GC()
	runtime.GC()
	if err := tk.Wait(nil); err != boom {
		t.Errorf("Wait = %v, want %v", err, boom)
	}
	if err := tk.Err(); err != boom {
		t.Errorf("Err = %v, want %v", err, boom)
	}
	if got := tk.CompletedAt(); got != 7*time.Millisecond {
		t.Errorf("CompletedAt = %v, want 7ms", got)
	}
	if tk.ctx != nil {
		t.Error("a completed ticket still holds its submission's ctx")
	}
}

// slabSink keeps TestTicketSlabFitsItsSizeClass's slabs on the heap.
var slabSink []*ticketSlab

// TestTicketSlabFitsItsSizeClass: a slab is one allocation that fills the
// 8192-byte size class, so a ticket costs 128 bytes, as it did as an object of
// its own. Go puts an 8-byte header on a pointerful object over 512 bytes; a
// slab that grows by as little as a padded ticket lands in the 9472-byte
// class, 148 bytes a ticket.
func TestTicketSlabFitsItsSizeClass(t *testing.T) {
	const class, header = 8192, 8
	if size := unsafe.Sizeof(ticketSlab{}); size+header > class {
		t.Fatalf("a slab of %d tickets is %d bytes, %d with its header: past the %d-byte size class", slabTickets, size, size+header, class)
	}
	const slabs = 256
	slabSink = make([]*ticketSlab, slabs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range slabSink {
		slabSink[i] = new(ticketSlab)
	}
	runtime.ReadMemStats(&after)
	slabSink = nil
	perTicket := float64(after.TotalAlloc-before.TotalAlloc) / (slabs * slabTickets)
	t.Logf("%.2f bytes a ticket", perTicket)
	if perTicket > 128.5 {
		t.Errorf("%.2f heap bytes a ticket, want 128", perTicket)
	}
}
