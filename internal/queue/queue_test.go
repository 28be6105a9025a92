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
// route and the virtual clock is a fixed per-test value (virtual admission
// compares it against request arrivals).
type testEngine struct {
	*Engine
	execed   atomic.Int64
	advanced atomic.Int64 // last Advance instant, nanoseconds
}

type testConfig struct {
	shards  int
	depth   int
	policy  Policy
	clock   time.Duration // fixed Clock value; negative disables the hook
	execErr error
}

func newTestEngine(t *testing.T, tc testConfig) *testEngine {
	t.Helper()
	te := &testEngine{}
	cfg := Config{
		Shards:  tc.shards,
		Depth:   tc.depth,
		Policy:  tc.policy,
		Quantum: time.Millisecond,
		ShardOf: func(lpn flash.LPN) (int, error) {
			return int(lpn) % tc.shards, nil
		},
		Exec: func(shard int, req Request) error {
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
	t.Cleanup(eng.Close)
	return te
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
		if err := tk.Err(); err != nil {
			t.Fatalf("Ticket.Err as Submit returns = %v; want nil", err)
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
	if err := tk.Err(); !errors.Is(err, boom) {
		t.Errorf("ticket error = %v; want %v", err, boom)
	}
	if st := e.Stats(); st.Completed != 1 {
		t.Errorf("an executed-but-failed op must count as completed: %+v", st)
	}
}

func TestVirtualAdmissionSheds(t *testing.T) {
	// Clock far ahead of the request's arrival: backlog 100ms against a
	// 4 x 1ms budget, so a shed-policy timed request must fail via its ticket.
	e := newTestEngine(t, testConfig{shards: 1, depth: 4, policy: AdmitShed, clock: 100 * time.Millisecond})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0, Arrival: 0, Timed: true})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := tk.Err(); !errors.Is(err, ErrFull) {
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
	if err := tk.Err(); err != nil {
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
	if err := tk.Err(); err != nil {
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

// TestCancelledContextFailsQueuedOps: an operation submitted under a ctx that
// is already cancelled fails with ctx's error before any IO, and is counted
// as cancelled.
func TestCancelledContextFailsQueuedOps(t *testing.T) {
	e := newTestEngine(t, testConfig{shards: 1, depth: 8, policy: AdmitWait, clock: -1})
	ctx, cancel := context.WithCancel(context.Background())
	live, err := e.Submit(ctx, Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancel()
	var doomed []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := e.Submit(ctx, Request{Kind: OpWrite, LPN: 0})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		doomed = append(doomed, tk)
	}
	if err := live.Err(); err != nil {
		t.Fatalf("pre-cancel op failed: %v", err)
	}
	for i, tk := range doomed {
		if err := tk.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("op %d after cancel: %v; want context.Canceled", i, err)
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
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
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
	// Everything submitted before Close completed.
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

// TestSubmitCompleteHammer drives concurrent producers on shared shards, a
// Drain caller and a Stats poller through the engine, and closes it while the
// producers are still submitting, to give the race detector the whole submit
// path and its shard lock. Exec must run one call at a time per shard and
// never after Close returns, every accepted submission must be executed or
// shed, and the books must balance.
func TestSubmitCompleteHammer(t *testing.T) {
	const shards, producers, beforeClose = 4, 8, 4000
	var (
		clocks  [shards]atomic.Int64 // each shard's virtual clock, ns
		running [shards]int          // Exec calls in progress; the race detector sees an unserialised one
		execed  atomic.Int64
		closed  atomic.Bool
	)
	e, err := New(Config{
		Shards: shards, Depth: 2, Policy: AdmitShed, Quantum: time.Microsecond,
		ShardOf: func(lpn flash.LPN) (int, error) { return int(lpn) % shards, nil },
		Exec: func(s int, _ Request) error {
			if closed.Load() {
				t.Error("Exec ran after Close returned")
			}
			running[s]++
			if running[s] != 1 {
				t.Errorf("shard %d: %d Exec calls at once", s, running[s])
			}
			clocks[s].Add(int64(time.Microsecond))
			execed.Add(1)
			running[s]--
			return nil
		},
		Clock: func(s int) time.Duration { return time.Duration(clocks[s].Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
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
				checkBooks(t, e.Stats())
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
				if err := e.Drain(context.Background()); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("Drain: %v", err)
				}
			}
		}
	}()
	var wg sync.WaitGroup
	var accepted, shed atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				req := Request{Kind: OpKind(i % 3), LPN: flash.LPN(p + i), Arrival: e.RoundArrival(), Timed: true}
				tk, err := e.Submit(context.Background(), req)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				accepted.Add(1)
				if errors.Is(tk.Err(), ErrFull) {
					shed.Add(1)
				} else if err := tk.Err(); err != nil {
					t.Errorf("producer %d: ticket: %v", p, err)
					return
				}
				if i%4 == 0 {
					_ = tk.Wait(context.Background())
				}
			}
		}(p)
	}
	for accepted.Load() < beforeClose {
		runtime.Gosched()
	}
	e.Close()
	closed.Store(true)
	wg.Wait()
	close(stop)
	aux.Wait()
	st := e.Stats()
	if st.Submitted != accepted.Load() {
		t.Errorf("submitted %d; %d accepted", st.Submitted, accepted.Load())
	}
	if st.Shed != shed.Load() || st.Completed != execed.Load() || st.Completed+st.Shed != st.Submitted {
		t.Errorf("accounting: %+v vs %d executed, %d observed sheds", st, execed.Load(), shed.Load())
	}
	checkBooks(t, st)
}

// checkBooks asserts the queue's accounting identity: every submission Stats
// counts is completed, shed or cancelled, and none is in flight.
func checkBooks(t *testing.T, st Stats) {
	t.Helper()
	if st.InFlight != 0 || st.Submitted != st.Completed+st.Shed+st.Cancelled {
		t.Errorf("books do not balance: submitted %d != completed %d + shed %d + cancelled %d, %d in flight",
			st.Submitted, st.Completed, st.Shed, st.Cancelled, st.InFlight)
	}
}

// TestSubmitRacingCloseIsAccounted: a Submit that loses the race with Close
// fails with ErrClosed and must not be on the books; everything Submit did
// accept is completed by the time Close returns.
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
					if err != nil {
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
		executed := e.execed.Load()
		wg.Wait()
		if n := e.execed.Load(); n != executed {
			t.Errorf("round %d: %d operations executed after Close returned", round, n-executed)
		}
		st := e.Stats()
		if st.Submitted != accepted.Load() || st.Completed != executed {
			t.Errorf("round %d: %+v; want %d submitted, %d completed", round, st, accepted.Load(), executed)
		}
		checkBooks(t, st)
	}
}

// TestTicketsKeepTheirOutcomes: successful tickets share the engine's one
// outcome, so a shed, a cancelled and a failed ticket on the same shard, among
// successful ones before and after them, must each keep the error it got, and
// every successful ticket must keep a nil one.
func TestTicketsKeepTheirOutcomes(t *testing.T) {
	boom := errors.New("media failure")
	var clock atomic.Int64
	e, err := New(Config{
		Shards: 2, Depth: 4, Policy: AdmitShed, Quantum: time.Millisecond,
		ShardOf: func(lpn flash.LPN) (int, error) { return int(lpn) % 2, nil },
		Exec: func(_ int, req Request) error {
			if req.LPN == 6 {
				return boom
			}
			return nil
		},
		Clock: func(int) time.Duration { return time.Duration(clock.Load()) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	submit := func(ctx context.Context, lpn flash.LPN, arrival time.Duration) *Ticket {
		t.Helper()
		tk, err := e.Submit(ctx, Request{Kind: OpWrite, LPN: lpn, Arrival: arrival, Timed: true})
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	var ok []*Ticket
	for i := 0; i < 3; i++ {
		ok = append(ok, submit(context.Background(), 2, 0))
	}
	clock.Store(int64(time.Second)) // the shard is now far behind arrival 0
	shed := submit(context.Background(), 4, 0)
	cancelled := submit(dead, 2, time.Second)
	failed := submit(context.Background(), 6, time.Second)
	for i := 0; i < 3; i++ {
		ok = append(ok, submit(context.Background(), 8, time.Second))
	}
	if err := shed.Err(); !errors.Is(err, ErrFull) {
		t.Errorf("shed ticket: %v, want ErrFull", err)
	}
	if err := cancelled.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ticket: %v, want context.Canceled", err)
	}
	if err := failed.Wait(nil); !errors.Is(err, boom) {
		t.Errorf("failed ticket: %v, want %v", err, boom)
	}
	for i, tk := range ok {
		if err := tk.Err(); err != nil {
			t.Errorf("successful ticket %d: %v, want nil", i, err)
		}
		if tk.out != ok[0].out {
			t.Errorf("successful ticket %d has an outcome of its own", i)
		}
	}
	if shed.out == cancelled.out || shed.out == ok[0].out || cancelled.out == ok[0].out || failed.out == ok[0].out {
		t.Error("a shed, cancelled or failed ticket shares an outcome")
	}
	checkBooks(t, e.Stats())
}

// TestLatchIsTheShardLock: with a Latch hook the queue keeps no mutex of its
// own. Admission's Clock and Advance and the Exec behind them run under the
// executor's latch, which two shards may share, and submitters racing on
// shared shards with Stats and Close keep the books; the race detector
// watches the counters the latch guards. Every other submission is untimed,
// so it skips admission and executes however far the clocks have run.
func TestLatchIsTheShardLock(t *testing.T) {
	const shards, producers = 4, 4
	latches := make([]sync.Mutex, shards/2) // shards 2i and 2i+1 share latch i
	latch := func(s int) *sync.Mutex { return &latches[s/2] }
	var clocks [shards]int64 // guarded by the shard's latch
	held := func(what string, s int) {
		if latch(s).TryLock() {
			latch(s).Unlock()
			t.Errorf("%s ran on shard %d without its latch", what, s)
		}
	}
	e, err := New(Config{
		Shards: shards, Depth: 2, Policy: AdmitShed, Quantum: time.Microsecond,
		ShardOf: func(lpn flash.LPN) (int, error) { return int(lpn) % shards, nil },
		Exec: func(s int, _ Request) error {
			held("Exec", s)
			clocks[s] += int64(time.Microsecond)
			return nil
		},
		Clock: func(s int) time.Duration {
			held("Clock", s)
			return time.Duration(clocks[s])
		},
		Advance: func(s int, at time.Duration) {
			held("Advance", s)
			clocks[s] = max(clocks[s], int64(at))
		},
		Latch: latch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range e.shards {
		if e.shards[s].mu != latch(s) {
			t.Fatalf("shard %d's lock is not its latch", s)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: flash.LPN(p + i), Timed: i%2 == 1})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("producer %d: %v", p, err)
					return
				}
				if err := tk.Err(); err != nil && !errors.Is(err, ErrFull) {
					t.Errorf("producer %d: ticket: %v", p, err)
					return
				}
			}
		}(p)
	}
	for e.Stats().Submitted < 2000 {
		checkBooks(t, e.Stats())
	}
	e.Close()
	wg.Wait()
	checkBooks(t, e.Stats())
}

// TestWaitOutcomeBeatsCancelledContext: Wait on a completed ticket returns
// the operation's outcome even when its own ctx is already cancelled.
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

// TestDone: a ticket's Done channel is closed as Submit returns it, and every
// call hands out the same one.
func TestDone(t *testing.T) {
	t.Run("after completion", func(t *testing.T) {
		e := newTestEngine(t, testConfig{shards: 1, depth: 2, policy: AdmitWait, clock: -1})
		tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		done := tk.Done()
		select {
		case <-done:
		default:
			t.Error("Done of a completed ticket is not closed")
		}
		if tk.Done() != done {
			t.Error("a second Done call returned a different channel")
		}
	})
}

// TestCompletionRace observes one ticket every way at once — Done, Wait
// under a cancellable ctx, Wait(nil) and Err — while a producer keeps
// submitting to the same shard, for the race detector; every observer must
// see the outcome.
func TestCompletionRace(t *testing.T) {
	boom := errors.New("media failure")
	e := newTestEngine(t, testConfig{shards: 1, depth: 2, policy: AdmitWait, clock: -1, execErr: boom})
	tk, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	observers := []func() error{
		func() error { <-tk.Done(); return tk.Err() },
		func() error { return tk.Wait(ctx) },
		func() error { return tk.Wait(nil) },
		func() error { return tk.Err() },
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2*slabTickets; i++ {
			if _, err := e.Submit(context.Background(), Request{Kind: OpWrite, LPN: 0}); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
		}
	}()
	for i, observe := range observers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := observe(); !errors.Is(err, boom) {
				t.Errorf("observer %d saw %v; want the outcome %v", i, err, boom)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkSubmitWait times one Submit plus Wait through a bare engine whose
// Exec does nothing, in rounds of 32 on 8 shards: what the queue's own
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
// one shard and half across all of them, while another goroutine ends rounds
// with Drain, carve their tickets from the shards' slabs. Every ticket
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
	drained := make(chan struct{})
	go func() {
		defer close(drained)
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
	<-drained

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
// completion instant and Wait stay right.
func TestHeldTicketPinsItsSlab(t *testing.T) {
	const kept = 17
	boom := errors.New("media failure")
	q, err := New(Config{
		Shards: 1, Depth: slabTickets, Policy: AdmitWait,
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
	tickets := make([]*Ticket, slabTickets)
	for i := range tickets {
		if tickets[i], err = q.Submit(context.Background(), Request{Kind: OpWrite, LPN: flash.LPN(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tk := range tickets {
		if off := uintptr(unsafe.Pointer(tk)) - uintptr(unsafe.Pointer(tickets[0])); off != uintptr(i)*unsafe.Sizeof(Ticket{}) {
			t.Fatalf("ticket %d lies %d bytes past ticket 0: not carved from one slab", i, off)
		}
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
}

// slabSink keeps TestTicketSlabFitsItsSizeClass's slabs on the heap.
var slabSink []*[slabTickets]Ticket

// TestTicketSlabFitsItsSizeClass: a ticket is 16 bytes, and a slab is one
// allocation that fills the 4096-byte size class, so a ticket costs 16.06
// bytes. Go puts an 8-byte header on a pointerful object over 512 bytes; a
// slab that grows by as little as one ticket lands in the 4864-byte class,
// 19 bytes a ticket, and a ticket that carries its own error again is 32.
func TestTicketSlabFitsItsSizeClass(t *testing.T) {
	const class, header = 4096, 8
	if size := unsafe.Sizeof(Ticket{}); size != 16 {
		t.Errorf("a ticket is %d bytes, want 16: its completion instant and a pointer to its outcome", size)
	}
	if size := unsafe.Sizeof([slabTickets]Ticket{}); size+header > class {
		t.Fatalf("a slab of %d tickets is %d bytes, %d with its header: past the %d-byte size class", slabTickets, size, size+header, class)
	}
	const slabs = 256
	slabSink = make([]*[slabTickets]Ticket, slabs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range slabSink {
		slabSink[i] = new([slabTickets]Ticket)
	}
	runtime.ReadMemStats(&after)
	slabSink = nil
	perTicket := float64(after.TotalAlloc-before.TotalAlloc) / (slabs * slabTickets)
	t.Logf("%.2f bytes a ticket", perTicket)
	if perTicket > 16.1 {
		t.Errorf("%.2f heap bytes a ticket, want 16.06", perTicket)
	}
}
