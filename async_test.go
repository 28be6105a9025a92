package geckoftl

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestAsyncSubmitDrain drives the asynchronous path end to end: submissions
// return tickets, Drain quiesces, and Snapshot.Queue accounts for every
// operation.
func TestAsyncSubmitDrain(t *testing.T) {
	d, err := Open(WithChannels(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	ctx := context.Background()
	const n = 200
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		var tk *Ticket
		var err error
		switch i % 3 {
		case 0:
			tk, err = d.SubmitWrite(ctx, LPN(i%int(d.LogicalPages())))
		case 1:
			tk, err = d.SubmitRead(ctx, LPN(i%int(d.LogicalPages())))
		default:
			tk, err = d.SubmitTrim(ctx, LPN(i%int(d.LogicalPages())))
		}
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Errorf("ticket %d: %v", i, err)
		}
		// Writes always consume device time; reads of never-written pages
		// cost no IO, so only write tickets must carry a completion instant.
		if i%3 == 0 && tk.CompletedAt() <= 0 {
			t.Errorf("write ticket %d has no completion instant", i)
		}
	}
	q := d.Snapshot().Queue
	if q.Submitted != n || q.Completed != n || q.InFlight != 0 || q.Shed != 0 {
		t.Errorf("queue stats after %d ops: %+v", n, q)
	}
	if q.Depth != DefaultQueueDepth || q.Policy != "wait" {
		t.Errorf("default queue config: %+v; want depth %d, policy wait", q, DefaultQueueDepth)
	}
	if q.Latency.Count == 0 {
		t.Error("no submission-to-completion latencies recorded")
	}
}

// TestAsyncShedBoundsBacklog pins the shedding admission policy through the
// public API: at depth 1 a producer that outruns the device has its overflow
// dropped with ErrQueueFull — visible on the ticket and counted in
// Snapshot.Queue.Shed — while every submission is still accounted for.
func TestAsyncShedBoundsBacklog(t *testing.T) {
	d, err := Open(WithQueueDepth(1), WithAdmissionPolicy(AdmitShed))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	ctx := context.Background()
	const n = 500
	// Submit without waiting: the producer runs ahead of the device, so the
	// shard's virtual backlog outgrows the one-quantum budget and admission
	// control engages.
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := d.SubmitWrite(ctx, LPN(i%int(d.LogicalPages())))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	var shed int64
	for i, tk := range tickets {
		if err := tk.Err(); errors.Is(err, ErrQueueFull) {
			shed++
		} else if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	q := d.Snapshot().Queue
	if q.Shed != shed {
		t.Errorf("Snapshot.Queue.Shed = %d; %d tickets failed with ErrQueueFull", q.Shed, shed)
	}
	if q.Shed == 0 {
		t.Error("a depth-1 shedding queue under a tight producer loop shed nothing")
	}
	if q.Completed+q.Shed != q.Submitted {
		t.Errorf("accounting: %+v", q)
	}
}

// TestAsyncCancellation pins the cancellation contract: once the submission
// context dies, every still-queued operation fails with the context's error
// before performing IO, and completed + cancelled covers every submission.
func TestAsyncCancellation(t *testing.T) {
	d, err := Open(WithQueueDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	const n = 300
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := d.SubmitWrite(ctx, LPN(i%int(d.LogicalPages())))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	cancel()
	var completed, cancelled int64
	for i, tk := range tickets {
		switch err := tk.Wait(context.Background()); {
		case err == nil:
			completed++
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("ticket %d: unexpected outcome %v", i, err)
		}
	}
	if completed+cancelled != n {
		t.Errorf("fates: %d completed + %d cancelled != %d submitted", completed, cancelled, n)
	}
	q := d.Snapshot().Queue
	if q.Completed != completed || q.Cancelled != cancelled {
		t.Errorf("Snapshot.Queue %+v disagrees with observed fates (%d completed, %d cancelled)", q, completed, cancelled)
	}
}

// TestAsyncCloseSemantics: Close completes queued work, later submissions and
// drains fail with ErrClosed, and pre-close tickets resolve.
func TestAsyncCloseSemantics(t *testing.T) {
	d, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tickets := make([]*Ticket, 0, 50)
	for i := 0; i < 50; i++ {
		tk, err := d.SubmitWrite(ctx, LPN(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := d.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range tickets {
		if err := tk.Err(); err != nil {
			t.Errorf("pre-close ticket %d: %v", i, err)
		}
	}
	if _, err := d.SubmitWrite(ctx, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("SubmitWrite after Close = %v; want ErrClosed", err)
	}
	if err := d.Drain(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Drain after Close = %v; want ErrClosed", err)
	}
}

// TestAsyncOutOfRange: the address check fails at submission, not through the
// ticket.
func TestAsyncOutOfRange(t *testing.T) {
	d, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	if _, err := d.SubmitWrite(context.Background(), LPN(d.LogicalPages())); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("SubmitWrite out of range = %v; want ErrOutOfRange", err)
	}
}

// TestAsyncDrainWithoutUse: a device that never submitted asynchronously
// drains trivially and reports zeroed queue counters at the configured shape.
func TestAsyncDrainWithoutUse(t *testing.T) {
	d, err := Open(WithQueueDepth(7), WithAdmissionPolicy(AdmitShed))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain on unused queue: %v", err)
	}
	q := d.Snapshot().Queue
	if q.Submitted != 0 || q.Depth != 7 || q.Policy != "shed" {
		t.Errorf("unused queue stats: %+v", q)
	}
}

func TestQueueOptionValidation(t *testing.T) {
	if _, err := Open(WithQueueDepth(0)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("WithQueueDepth(0) = %v; want ErrInvalidConfig", err)
	}
	if _, err := Open(WithAdmissionPolicy(AdmissionPolicy(9))); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("bad admission policy = %v; want ErrInvalidConfig", err)
	}
	if _, err := ParseAdmissionPolicy("drop"); !errors.Is(err, ErrInvalidConfig) {
		t.Error("ParseAdmissionPolicy accepted an unknown name")
	}
	for _, name := range []string{"shed", "wait"} {
		p, err := ParseAdmissionPolicy(name)
		if err != nil || p.String() != name {
			t.Errorf("ParseAdmissionPolicy(%q) = %v, %v", name, p, err)
		}
	}
}

// TestTicketWaitOutcomeBeatsCancelledContext: Wait on a completed ticket
// reports the operation's outcome, under the public taxonomy, even when the
// ctx passed to Wait is already cancelled.
func TestTicketWaitOutcomeBeatsCancelledContext(t *testing.T) {
	d, err := Open(WithQueueDepth(1), WithAdmissionPolicy(AdmitShed))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	ctx := context.Background()
	// A producer that outruns a depth-1 shedding queue has most of its
	// submissions shed: tickets whose outcome wrapErr must translate.
	tickets := make([]*Ticket, 0, 500)
	for i := 0; i < cap(tickets); i++ {
		tk, err := d.SubmitWrite(ctx, LPN(i%int(d.LogicalPages())))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	shed := 0
	for i, tk := range tickets {
		got := tk.Wait(dead)
		switch want := tk.Err(); {
		case want == nil:
			if got != nil {
				t.Fatalf("ticket %d: Wait(cancelled ctx) = %v; want the outcome <nil>", i, got)
			}
		case errors.Is(want, ErrQueueFull):
			shed++
			if !errors.Is(got, ErrQueueFull) {
				t.Fatalf("ticket %d: Wait(cancelled ctx) = %v; want the outcome %v", i, got, want)
			}
		default:
			t.Fatalf("ticket %d: unexpected outcome %v", i, want)
		}
	}
	if shed == 0 {
		t.Error("nothing was shed: no outcome exercised the error mapping")
	}
}

// TestResetStatsRestartsQueueLatency requires ResetStats to start the
// submission queue's latency distribution over, as it does the synchronous
// ones, while the queue's counters keep counting from Open.
func TestResetStatsRestartsQueueLatency(t *testing.T) {
	d, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(context.Background())
	ctx := context.Background()
	const n = 100
	for i := range n {
		tk, err := d.SubmitWrite(ctx, LPN(i%int(d.LogicalPages())))
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if q := d.Snapshot().Queue; q.Latency.Count != n {
		t.Fatalf("before ResetStats: %d queue latencies, want %d", q.Latency.Count, n)
	}
	d.ResetStats()
	snap := d.Snapshot()
	if snap.WriteLatency.Count != 0 || snap.Queue.Latency.Count != 0 {
		t.Errorf("after ResetStats: %d write and %d queue latencies, want none",
			snap.WriteLatency.Count, snap.Queue.Latency.Count)
	}
	if snap.Queue.Submitted != n || snap.Queue.Completed != n {
		t.Errorf("ResetStats cleared the queue's counters: %+v", snap.Queue)
	}
}

// TestAsyncSnapshotRepeats requires the asynchronous path to repeat: one
// goroutine driving the same windows of SubmitWrite and SubmitTrim, each
// waited on, then a Drain, must leave the same Snapshot twice over, the
// queue's latency distribution and its shed and delay counts included. It
// runs at a shedding depth of 1, where part of each round is shed, and at the
// defaults, where none is.
func TestAsyncSnapshotRepeats(t *testing.T) {
	run := func(t *testing.T, opts []Option) Snapshot {
		d, err := Open(append([]Option{WithChannels(8, 1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close(context.Background())
		ctx := context.Background()
		rng := rand.New(rand.NewSource(1))
		pages := d.LogicalPages()
		tickets := make([]*Ticket, 24)
		for range 500 {
			for i := range tickets {
				lpn := LPN(rng.Int63n(pages))
				if i%6 == 5 {
					tickets[i], err = d.SubmitTrim(ctx, lpn)
				} else {
					tickets[i], err = d.SubmitWrite(ctx, lpn)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, tk := range tickets {
				if err := tk.Wait(ctx); err != nil && !errors.Is(err, ErrQueueFull) {
					t.Fatal(err)
				}
			}
		}
		if err := d.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		return d.Snapshot()
	}
	for _, tc := range []struct {
		name string
		opts []Option
		shed bool
	}{
		{"depth 1 shed", []Option{WithQueueDepth(1), WithAdmissionPolicy(AdmitShed)}, true},
		{"defaults", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := run(t, tc.opts), run(t, tc.opts)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("two identical runs differ:\n first %+v\nsecond %+v", first, second)
			}
			q := first.Queue
			// Waiting ends a round, so each round of 24 arrives afresh and
			// never overruns the default budget: nothing is delayed.
			if q.Latency.Count == 0 || (q.Shed > 0) != tc.shed || q.Delayed != 0 {
				t.Errorf("queue stats %+v; want latencies, shed > 0 = %v and nothing delayed", q, tc.shed)
			}
		})
	}
}
