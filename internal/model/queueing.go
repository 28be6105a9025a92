package model

import (
	"time"

	"geckoftl/internal/flash"
)

// QueueingParams extends ParallelParams with the open-queue view of the
// device: operations arrive at rate lambda from an arrival process rather
// than from callers that wait, and the device serves them at the aggregate
// rate the topology and the FTL's write-amplification allow. The fluid-limit
// predictions below are what sim.QueueSweep validates: delivered throughput
// tracks the offered rate up to the saturation knee and plateaus there, and
// past the knee a depth-bounded admission policy sheds the excess instead of
// letting queueing delay grow without bound.
type QueueingParams struct {
	// Parallel is the device topology.
	Parallel ParallelParams
	// Depth is the per-shard submission queue depth.
	Depth int
}

// SaturationKnee predicts the arrival rate (logical writes per second) at
// which the device saturates: the aggregate service rate of the topology
// under write-amplification wa. Below the knee the queues are stable and
// delivered throughput equals the offered rate; above it the device delivers
// the knee and the rest queues or sheds.
func (q QueueingParams) SaturationKnee(lat flash.Latency, wa float64) float64 {
	return q.Parallel.WriteThroughput(lat, wa)
}

// DelayBound returns the admission budget: the largest virtual backlog an
// admitted operation can find ahead of it under a depth-bounded policy,
// Depth service quanta of wa page writes each. An admitted operation's
// latency is bounded by this plus its own service time (and any GC stall),
// which is the "p99.9 stays bounded under overload" guarantee the sweep
// pins — in contrast to an unbounded queue, whose delay grows linearly for
// as long as the overload lasts.
func (q QueueingParams) DelayBound(lat flash.Latency, wa float64) time.Duration {
	if wa < 1 {
		wa = 1
	}
	d := q.Depth
	if d < 1 {
		d = 1
	}
	return time.Duration(float64(d) * wa * float64(lat.PageWrite))
}
