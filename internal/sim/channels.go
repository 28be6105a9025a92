package sim

import (
	"fmt"
	"slices"
	"time"

	"geckoftl/internal/model"
)

// ChannelPoint is one row of a channel-scaling sweep: the same workload run
// through the sharded engine on an increasing number of channels.
type ChannelPoint struct {
	// Channels and Dies describe the topology of this point.
	Channels, Dies int
	// Writes is the number of logical writes in the measured window.
	Writes int64
	// WallTime is the slowest shard's busy time during the window: each
	// shard issues its IO synchronously, so its critical path is the sum
	// of its dies' busy time, and the engine finishes with its slowest
	// shard.
	WallTime time.Duration
	// SerialTime is the total die-busy time: what the same IO would cost on
	// a single serialized plane.
	SerialTime time.Duration
	// Throughput is logical writes per second of wall-clock.
	Throughput float64
	// Speedup is this point's throughput relative to the sweep's 1-channel
	// (or first) point.
	Speedup float64
	// WA is the measured write-amplification of the window.
	WA float64
	// ModelThroughput is the parallelism-aware model's prediction given the
	// measured WA and an ideal, perfectly balanced controller that also
	// overlaps dies within a channel (which the synchronous shards do not);
	// with DiesPerChannel > 1 it is an upper bound a future asynchronous
	// shard dispatcher could approach.
	ModelThroughput float64
	// LoadImbalance is max/mean die busy time over the window (1.0 is a
	// perfectly balanced sweep).
	LoadImbalance float64
}

// ChannelSweep measures write throughput of the sharded GeckoFTL engine
// across channel counts. Every point runs the same logical workload; the
// total RAM budget is held constant by dividing the mapping cache across
// shards. Warm-up fills the device twice over so that each point is measured
// in steady-state garbage collection. It reads p.Channels (empty means
// 1,2,4,8), p.Dies (the dies per channel) and p.Workload (empty means uniform).
func ChannelSweep(p Params) ([]ChannelPoint, error) {
	channels := p.Channels
	if len(channels) == 0 {
		channels = []int{1, 2, 4, 8}
	}
	scale := p.Scale.workable(slices.Max(channels))
	scale.Device.DiesPerChannel = p.Dies
	var points []ChannelPoint
	for _, c := range channels {
		pt, err := channelPoint(scale, c, p.Workload)
		if err != nil {
			return nil, fmt.Errorf("sim: %d channels: %w", c, err)
		}
		points = append(points, pt)
	}
	base := points[0].Throughput
	for i := range points {
		points[i].Speedup = points[i].Throughput / base
	}
	return points, nil
}

func channelPoint(scale ExperimentScale, channels int, wl string) (ChannelPoint, error) {
	run, w, err := measure(runSpec{scale: scale, channels: channels, workload: wl, batchPerDie: deepBatchPerDie})
	if err != nil {
		return ChannelPoint{}, err
	}

	// Each shard drives its dies from a single goroutine, so a shard's
	// critical path is the SUM of its dies' busy time — taking the busiest
	// die instead would credit intra-shard overlap the synchronous shards
	// cannot deliver (it only matters when DiesPerChannel > 1). The
	// engine's wall-clock is the slowest shard; the serial cost is the sum
	// over all dies. Dies are attributed to the shard owning their first
	// block (exact whenever the block count divides evenly, as the grown
	// sweep geometries do).
	eng, cfg := run.eng, run.cfg
	blocksPerShard := cfg.Blocks / eng.Shards()
	shardBusy := make([]time.Duration, eng.Shards())
	var maxDie, sum time.Duration
	for d, busy := range w.dies {
		sum += busy
		if busy > maxDie {
			maxDie = busy
		}
		lo, _ := cfg.DieBlockRange(d)
		if s := int(lo) / blocksPerShard; s < len(shardBusy) {
			shardBusy[s] += busy
		}
	}
	var wall time.Duration
	for _, busy := range shardBusy {
		if busy > wall {
			wall = busy
		}
	}
	if wall < maxDie {
		wall = maxDie
	}
	p := ChannelPoint{
		Channels:   channels,
		Dies:       cfg.Dies(),
		Writes:     w.writes,
		WallTime:   wall,
		SerialTime: sum,
		WA:         w.wa(),
	}
	if p.WallTime > 0 {
		p.Throughput = float64(w.writes) / p.WallTime.Seconds()
	}
	params := model.ParallelParams{Channels: channels, DiesPerChannel: scale.Device.DiesPerChannel}
	p.ModelThroughput = params.WriteThroughput(cfg.Latency, p.WA)
	if sum > 0 {
		p.LoadImbalance = float64(maxDie) * float64(len(w.dies)) / float64(sum)
	}
	return p, nil
}
