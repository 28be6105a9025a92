// Package sim is the experiment harness that reproduces the evaluation
// section of the GeckoFTL paper and the engine-scaling experiments that go
// beyond it. It runs FTLs (or Logarithmic Gecko and the PVB baselines in
// isolation) against workload generators on the simulated device and
// collects per-purpose IO breakdowns.
//
// Experiments are data. Experiments (experiments.go) is the registry: one
// entry per table, figure and sweep, carrying its name, group, table title,
// the geckobench flags it reads and a run function from Params to typed rows
// (a sweep is registered as it is declared: func(Params), or func of the
// scale alone through the scaled adapter).
// cmd/geckobench (selection, JSON, one generic table renderer), the root
// package's re-export, the goldens under testdata/bench, the
// BenchmarkExperiment loop and CI's single bench step are all derived from
// it; adding an experiment is adding its row type, its run function and one
// entry.
//
// The evaluation's claims are one table (claims.go): an id, a source, a
// predicate over an entry's typed rows and the scales at which it must hold.
// They are checked on rows already produced, never by running again: the
// quick goldens in tests, and geckobench's own rows at any scale.
//
// Every FTL-level experiment shares one engine-run harness (harness.go), and
// each job in it is done in one place. newEngineRun is the only place a
// device, a sharded ftl.Engine and a seeded workload are assembled (growing
// geometry and cache until every shard is workable; endurance's erase budget
// and fault plan are fields of its spec). pump drives batches of writes with
// optional interleaved trims. warm brings the stack to steady-state garbage
// collection with two uniform overwrites, which map about 86.5 % of the
// logical pages, so write-amplification is still rising after it (ROADMAP
// item 18). open warms a run and anchors its measured window, the only check
// of MeasureWrites; close turns its anchors into the window's counter, stat,
// simulated-time and die-time deltas, and measure is open, pump and close. Every measured
// point goes through them, the queue sweep's rows included. crash is the one
// power-fail, recover and audit step of the recovery simulation, the
// recovery sweep and the restart sweep's cold half. The paper's own FTL
// comparisons (Figure 13 bottom, Figure 14, the recovery simulation) and the
// root package's ablation benchmarks run the harness at one channel with one
// operation per batch — MeasureFTL — where a one-shard engine issues exactly
// the IO of a bare ftl.FTL (pinned by internal/ftl's
// TestOneShardEngineMatchesBareFTL). Only the isolated-structure rig of
// Figures 9-12 (RunIsolated) drives Logarithmic Gecko and the PVB without an
// FTL around them. The sweeps beyond the paper:
//
//   - ChannelSweep measures how the sharded engine's write throughput scales
//     with the channel count.
//   - RecoverySweep crashes the engine and measures how parallel per-shard
//     recovery scales with channels, checkpoint interval and capacity.
//   - LatencySweep records per-write service-time distributions (p50 through
//     p99.9 and max) and compares inline whole-victim garbage collection
//     against the incremental bounded scheduler across victim policies and
//     workloads.
//   - TrimSweep interleaves host trims at increasing fractions and shows
//     write-amplification falling monotonically.
//   - WearSweep compares the single user write frontier against hot/cold
//     separation and wear-aware allocation, reporting write-amplification
//     and erase-count spread per victim policy and workload.
//   - RestartSweep compares warm restarts from the shutdown checkpoint with
//     cold GeckoRec recovery of the identical state.
//   - QueueSweep drives the async submission queue closed- and open-loop
//     against the queueing model's saturation knee.
//
// The harness builds flash.Device + ftl.Engine directly rather than going
// through geckoftl.Open: the root package imports this one (a cycle), and the
// public Snapshot carries the GC-stall distribution (GCStalledWrites) and the
// fallback count (GC.Fallbacks) the sweeps report but not yet the per-die
// busy time ChannelSweep reads. Once it does, moving the sweeps onto the
// public device is a change to newEngineRun alone.
//
// All results are deterministic: time is the device's simulated latency
// model, never the host clock, and same seed means same bytes whatever
// GOMAXPROCS is (testdata/bench pins the quick-scale rows).
package sim
