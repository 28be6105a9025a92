package model

import (
	"testing"
	"time"

	"geckoftl/internal/flash"
)

func queueingFixture(depth int) (QueueingParams, flash.Latency) {
	lat := flash.Latency{PageRead: 100 * time.Microsecond, PageWrite: time.Millisecond}
	return QueueingParams{
		Parallel: ParallelParams{Channels: 4, DiesPerChannel: 2},
		Depth:    depth,
	}, lat
}

func TestSaturationKneeMatchesParallelCeiling(t *testing.T) {
	q, lat := queueingFixture(8)
	// 8 dies at 1ms per page write and WA 2: 8 / (2 * 1ms) = 4000 writes/s.
	if got, want := q.SaturationKnee(lat, 2), 4000.0; !close20(got, want, 1e-9) {
		t.Errorf("knee = %.0f; want %.0f", got, want)
	}
	// The knee is the open-queue view of the closed-loop ceiling: the two
	// must agree exactly.
	if knee, ceiling := q.SaturationKnee(lat, 3.5), q.Parallel.WriteThroughput(lat, 3.5); knee != ceiling {
		t.Errorf("knee %.0f != parallel ceiling %.0f", knee, ceiling)
	}
}

func TestDelayBound(t *testing.T) {
	q, lat := queueingFixture(8)
	if got, want := q.DelayBound(lat, 3), 24*time.Millisecond; got != want {
		t.Errorf("delay bound = %v; want %v (8 quanta of 3 page writes)", got, want)
	}
	// WA below 1 and depth below 1 clamp rather than shrinking the budget
	// to nothing.
	q.Depth = 0
	if got, want := q.DelayBound(lat, 0.5), time.Millisecond; got != want {
		t.Errorf("clamped delay bound = %v; want %v", got, want)
	}
}

// close20 reports whether got is within tol of want (absolute on the ratio).
func close20(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	r := got/want - 1
	if r < 0 {
		r = -r
	}
	return r <= tol
}
