package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// The bucket layout follows the HDR-histogram idea: values below subCount
// nanoseconds get one bucket each (exact), and every further power-of-two
// range is split into subCount linear sub-buckets, so a bucket's width is at
// most 1/subCount of its value (≤ 6.25% relative error with subBits = 4).
const (
	subBits  = 4
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64 nanosecond value: subCount
	// exact buckets plus subCount sub-buckets for each of the 63-subBits
	// remaining powers of two.
	numBuckets = subCount * (64 - subBits)
)

// bucketOf maps a non-negative nanosecond value to its bucket index.
func bucketOf(v int64) int {
	if v < subCount {
		return int(v)
	}
	n := bits.Len64(uint64(v)) // 2^(n-1) <= v < 2^n, n >= subBits+1
	major := n - subBits       // >= 1
	sub := int(v>>uint(n-1-subBits)) - subCount
	return subCount + (major-1)*subCount + sub
}

// bucketUpper returns the largest nanosecond value a bucket holds; quantiles
// report it so that every percentile is a conservative upper bound.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	major := (i-subCount)/subCount + 1
	sub := (i - subCount) % subCount
	return int64(subCount+sub+1)<<uint(major-1) - 1
}

// Histogram is a streaming, mergeable latency histogram with logarithmic
// buckets. The zero value is ready to use. It is not safe for concurrent
// use; the engine guards each shard's histograms with the shard lock.
type Histogram struct {
	counts [numBuckets]int64
	count  int64
	sum    time.Duration
	max    time.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation. Negative durations are clamped to zero.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(int64(d))]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Mean returns the mean observation, zero when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) at bucket
// resolution, clamped to the exact maximum. Empty histograms return zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			v := time.Duration(bucketUpper(i))
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds every observation of other into h. Merging shard histograms
// yields exactly the histogram of the concatenated observation streams
// (bucket counts are added, the maximum is exact).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset empties the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary is a fixed set of distribution statistics, suitable for JSON
// output (durations encode as nanoseconds).
type Summary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// Summary computes the histogram's summary statistics.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.max,
	}
}

// String renders the summary compactly, e.g. for experiment tables.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
