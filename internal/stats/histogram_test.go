package stats

import (
	"math/rand"
	"testing"
	"time"
)

// TestBucketRoundTrip pins the bucket layout: every bucket's upper bound maps
// back to the same bucket, and bucket boundaries are monotonic.
func TestBucketRoundTrip(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		upper := bucketUpper(i)
		if upper <= prev {
			t.Fatalf("bucket %d upper %d not above previous %d", i, upper, prev)
		}
		if got := bucketOf(upper); got != i {
			t.Fatalf("bucketOf(bucketUpper(%d)) = %d", i, got)
		}
		prev = upper
	}
}

// TestRecordedValueWithinBucketError checks the bounded relative error: a
// quantile covering a single recorded value is never below it and overshoots
// by at most one sub-bucket width.
func TestRecordedValueWithinBucketError(t *testing.T) {
	for _, v := range []time.Duration{0, 1, 15, 16, 17, 1000, 100 * time.Microsecond, time.Millisecond, 2*time.Millisecond + 1, time.Hour} {
		h := NewHistogram()
		h.Record(v)
		got := h.Quantile(1)
		if got != v {
			// Quantile clamps to the exact max, so a single observation must
			// come back exactly.
			t.Errorf("Quantile(1) of single value %v = %v", v, got)
		}
	}
}

// TestMergeEqualsConcatenation is the satellite regression test: merging
// shard histograms must equal the histogram of the concatenated samples at
// bucket resolution, across several shard counts and distributions.
func TestMergeEqualsConcatenation(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		gen    func(r *rand.Rand) time.Duration
	}{
		{"uniform-2", 2, func(r *rand.Rand) time.Duration { return time.Duration(r.Int63n(int64(5 * time.Millisecond))) }},
		{"heavy-tail-4", 4, func(r *rand.Rand) time.Duration {
			d := time.Duration(r.Int63n(int64(time.Millisecond)))
			if r.Intn(100) == 0 {
				d += 50 * time.Millisecond
			}
			return d
		}},
		{"constant-8", 8, func(*rand.Rand) time.Duration { return time.Millisecond }},
		{"empty-shards", 3, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			shards := make([]*Histogram, tc.shards)
			whole := NewHistogram()
			for i := range shards {
				shards[i] = NewHistogram()
				if tc.gen == nil {
					continue
				}
				for n := 0; n < 500*(i+1); n++ {
					d := tc.gen(r)
					shards[i].Record(d)
					whole.Record(d)
				}
			}
			merged := NewHistogram()
			for _, s := range shards {
				merged.Merge(s)
			}
			if merged.count != whole.count {
				t.Fatalf("merged count %d != concatenated count %d", merged.count, whole.count)
			}
			if merged.sum != whole.sum {
				t.Fatalf("merged sum %v != concatenated sum %v", merged.sum, whole.sum)
			}
			if merged.max != whole.max {
				t.Fatalf("merged max %v != concatenated max %v", merged.max, whole.max)
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
				if m, w := merged.Quantile(q), whole.Quantile(q); m != w {
					t.Errorf("q=%g: merged %v != concatenated %v", q, m, w)
				}
			}
			if merged.counts != whole.counts {
				t.Error("merged bucket counts differ from concatenated bucket counts")
			}
		})
	}
}

// TestSummary covers the empty histogram and basic ordering of percentiles.
func TestSummary(t *testing.T) {
	var empty Histogram
	if s := empty.Summary(); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Summary()
	if s.Count != 1000 || s.Max != time.Millisecond {
		t.Fatalf("summary count/max = %d/%v", s.Count, s.Max)
	}
	if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
		t.Fatalf("percentiles not monotonic: %v", s)
	}
	if s.P50 < 500*time.Microsecond {
		t.Fatalf("p50 %v below the true median", s.P50)
	}
}
