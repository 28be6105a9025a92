package model

import "geckoftl/internal/flash"

// ParallelParams describes a channel/die topology for the parallelism-aware
// latency model. The paper's cost models assume a single serialized flash
// plane; this extension predicts how throughput scales when the same IO
// stream is spread over Channels x DiesPerChannel independently latching
// dies, as the sharded ftl.Engine does.
type ParallelParams struct {
	// Channels is the number of independent channels (0 means 1).
	Channels int
	// DiesPerChannel is the number of dies ganged per channel (0 means 1).
	DiesPerChannel int
	// SerialFraction is the fraction of device time that cannot be
	// overlapped across dies (controller dispatch, shared-bus transfers).
	// Zero models the simulator's idealized controller, which overlaps
	// independent dies perfectly.
	SerialFraction float64
}

// Dies returns the total number of independently operating dies.
func (p ParallelParams) Dies() int {
	c, d := p.Channels, p.DiesPerChannel
	if c <= 0 {
		c = 1
	}
	if d <= 0 {
		d = 1
	}
	return c * d
}

// Speedup returns the Amdahl-style throughput multiple over a single die:
// with serial fraction s and n dies, 1 / (s + (1-s)/n). A perfectly balanced
// workload on an ideal controller (s = 0) scales linearly in the die count.
func (p ParallelParams) Speedup() float64 {
	n := float64(p.Dies())
	s := p.SerialFraction
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return 1 / (s + (1-s)/n)
}

// WriteThroughput predicts sustained logical writes per second for a device
// with the given latency model and topology, running an FTL whose measured
// (or modeled) write-amplification is wa. Each logical write costs wa page
// writes' worth of device time (the paper's WA metric already folds reads in
// at 1/delta weight), spread over the dies:
//
//	throughput = Speedup() / (wa * PageWrite)
//
// The channel-sweep experiments print this next to the simulated throughput;
// the gap between the two is the load imbalance the model does not capture.
func (p ParallelParams) WriteThroughput(lat flash.Latency, wa float64) float64 {
	if wa < 1 {
		wa = 1
	}
	perWrite := wa * lat.PageWrite.Seconds()
	if perWrite <= 0 {
		return 0
	}
	return p.Speedup() / perWrite
}
