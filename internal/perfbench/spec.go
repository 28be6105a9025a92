package main

import "fmt"

// The common device's pages: 64 to a block, 4 KiB each.
const (
	pagesPerBlock = 64
	pageSize      = 4096
)

// sizing is everything that makes a run long besides its operation count.
// The benchmark always runs at full; the package's test runs the same code
// at a size the race detector gets through in seconds.
type sizing struct {
	// Blocks sizes the common device: at full, 4096 blocks and, at the
	// default 70 % logical-to-physical ratio, about 183 500 logical pages.
	Blocks int
	// Fill is the share of the logical pages the set-up writes, and then
	// overwrites that many times at random: all of them at full.
	Fill float64
	// SetupRepeats is how many times a run sets the device up; setup_s is
	// the median and the last device is the one measured.
	SetupRepeats int
	// CrashWindow is how many writes precede each end-of-run crash.
	CrashWindow int
	// ReferenceSteps is the length of the reference loop (reference.go).
	ReferenceSteps int
	// IsolatedCalls is how many calls each T3 drive makes after its warm-up,
	// and IsolatedBlocks the size of the T3 fixtures' own devices.
	IsolatedCalls, IsolatedBlocks int
}

var full = sizing{Blocks: 4096, Fill: 1, SetupRepeats: 3, CrashWindow: 8192, ReferenceSteps: 250_000, IsolatedCalls: 200 * 1024, IsolatedBlocks: 1024}

// filled is how many of the device's logical pages the set-up writes.
func (sz sizing) filled(logicalPages int64) int64 { return int64(sz.Fill * float64(logicalPages)) }

// segments is how many equal, separately timed parts the measured phase is
// split into; host_ops_per_s is the median of their rates.
const segments = 15

// kind selects the loop a workload drives its target with.
type kind int

const (
	syncWrite kind = iota
	syncRead
	mixedBatch
	asyncWrite
	crashRecover
)

// workloadSpec describes one workload. A unit is what the driver issues in
// one step: an operation, a batch, a window of tickets or a crash cycle.
type workloadSpec struct {
	Name, Why string
	Kind      kind
	FTL       string
	Channels  int
	// CachePerShard is each shard's mapping-cache capacity in entries: Open
	// hands WithCacheEntries' value to every shard whole.
	CachePerShard int
	// UnitsPerSecond sizes the measured phase: -seconds times it units are
	// issued, whatever the host's speed, so the simulated numbers repeat.
	UnitsPerSecond int
	OpsPerUnit     int
	// HotSet bounds the LPNs a syncRead workload touches.
	HotSet int64
	// Checkpoint gives the device a checkpoint file, so Restart comes back warm.
	Checkpoint bool
}

var workloads = []workloadSpec{
	{
		Name: "write-uniform-1ch", Kind: syncWrite, FTL: "geckoftl", Channels: 1, CachePerShard: 4096,
		UnitsPerSecond: 150000, OpsPerUnit: 1,
		Why: "uniform overwrites through a 2 % cache: every write misses, evicts a dirty entry and runs GC, Gecko and translation sync",
	},
	{
		Name: "dftl-write-uniform-1ch", Kind: syncWrite, FTL: "dftl", Channels: 1, CachePerShard: 4096,
		UnitsPerSecond: 260000, OpsPerUnit: 1,
		Why: "the same writes on DFTL: shares flash, block manager, cache and translation but has no Logarithmic Gecko",
	},
	{
		Name: "read-hot-8ch", Kind: syncRead, FTL: "geckoftl", Channels: 8, CachePerShard: 1024,
		UnitsPerSecond: 3600000, OpsPerUnit: 1, HotSet: 4096,
		Why: "reads of a hot set that fits the cache: bypasses Gecko, GC and sync, so per-call overhead shows most here",
	},
	{
		Name: "mixed-batch-8ch", Kind: mixedBatch, FTL: "geckoftl", Channels: 8, CachePerShard: 1024,
		UnitsPerSecond: 2200, OpsPerUnit: 256,
		Why: "zipfian 50/45/5 reads, writes and trims in batches of 256: the goroutine-per-shard fan-out, reads behind writes, trims",
	},
	{
		Name: "async-write-8ch", Kind: asyncWrite, FTL: "geckoftl", Channels: 8, CachePerShard: 1024,
		UnitsPerSecond: 3500, OpsPerUnit: 64,
		Why: "uniform writes submitted 64 tickets at a time: the queue, tickets and worker goroutines, the third way into a shard",
	},
	{
		Name: "crash-recover-4ch", Kind: crashRecover, FTL: "geckoftl", Channels: 4, CachePerShard: 1024,
		UnitsPerSecond: 25, OpsPerUnit: 5000, Checkpoint: true,
		Why: "5000 writes then alternately a crash with GeckoRec and a warm restart: recovery scan and checkpoint code no other workload enters",
	},
}

func findWorkload(name string) (workloadSpec, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// units returns how many units the measured phase issues: a whole number per
// segment, at least one.
func (w workloadSpec) units(seconds float64) int {
	perSegment := int(float64(w.UnitsPerSecond) * seconds / segments)
	if perSegment < 1 {
		perSegment = 1
	}
	return perSegment * segments
}

// metricSpec declares one metric of BENCHMARK.json. Bound is zero for
// per-layer metrics, which have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the simulator sees, on both clocks: host_*
// is what the Go code costs, sim_* and recover_sim_ms what the modelled
// device would do. The sim bounds are not zero because the driver compares
// runs of different seeds; with one seed they repeat exactly. The host bounds
// are as wide as this shared box makes ten runs spread (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "1/s", "higher", 0.25},
	{"host_cpu_us_per_op", "us", "lower", 0.20},
	{"host_allocs_per_op", "count", "lower", 0.02},
	{"host_bytes_per_op", "B", "lower", 0.02},
	{"host_live_heap_mb", "MB", "lower", 0.15},
	{"sim_write_amp", "ratio", "lower", 0.02},
	{"sim_us_per_op", "us", "lower", 0.02},
	{"sim_ram_bytes", "B", "lower", 0.05},
	{"recover_sim_ms", "ms", "lower", 0.25},
}

func lower(unit string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

// perLayer lists the traced run's metrics, layer by layer; the layer is the
// module's name. README.md says which end-to-end metric each should move.
var perLayer = concat(
	// device: the public geckoftl.Device, spans around every call (T1).
	lower("ns",
		"device.write_ns_p50", "device.write_ns_p99", "device.write_ns_p999",
		"device.read_ns_p50", "device.read_ns_p99", "device.read_ns_p999",
		"device.trim_ns_p50", "device.trim_ns_p99",
		"device.batch_ns_per_op_p50", "device.batch_ns_per_op_p99",
		"device.submit_ns_p50", "device.submit_ns_p99",
		"device.ticket_wait_ns_p50", "device.ticket_wait_ns_p99",
		"device.self_ns_per_op"),
	[]metricSpec{{"device.samples", "count", "higher", 0}},
	lower("%", "device.trace_overhead_pct"),
	// The simulated tail, from the untraced device's Snapshot. It is a
	// histogram bucket's upper edge (6.25 % apart), so it reads the same on
	// every seed: a per-layer number, not an end-to-end one.
	lower("us", "device.sim_p999_us"),

	// engine: ftl.Engine driven directly with the same inputs (T2).
	lower("ns", "engine.ns_per_op", "engine.self_ns_per_op"),
	lower("count", "engine.allocs_per_op", "engine.allocs_per_batch"),
	lower("ratio", "engine.shard_op_imbalance"),

	// queue: a bare queue.Engine with a no-op Exec (T3), and the device's
	// own queue counters on the async workload.
	lower("ns", "queue.roundtrip_ns_p50", "queue.roundtrip_ns_p99", "queue.submit_ns"),
	lower("count", "queue.allocs_per_submit"),
	lower("ratio", "queue.shed_ratio", "queue.delayed_ratio"),
	lower("us", "queue.sim_latency_p999_us"),

	// ftl: a single ftl.FTL (T3) and the engine's counters per host op (T2).
	lower("ns", "ftl.write_ns_per_op", "ftl.read_hit_ns_per_op", "ftl.read_miss_ns_per_op", "ftl.trim_ns_per_op"),
	lower("count", "ftl.write_allocs_per_op",
		"ftl.gc_collections_per_kop", "ftl.gc_migrations_per_op", "ftl.uip_skips_per_op",
		"ftl.sync_ops_per_kop", "ftl.forced_syncs_per_kop", "ftl.checkpoints_per_kop",
		"ftl.metadata_block_erases_per_kop", "ftl.gc_fallbacks"),
	lower("us", "ftl.gc_max_stall_us"),
	lower("ratio", "ftl.user_wa", "ftl.translation_wa", "ftl.validity_wa"),
	lower("ms", "ftl.recover_host_ms_p50", "ftl.restart_warm_host_ms_p50", "ftl.check_consistency_host_ms"),
	lower("count", "ftl.recover_spare_reads", "ftl.recover_page_reads", "ftl.recover_page_writes", "ftl.recovered_entries"),

	// mapcache: a bare mapcache.Cache (T3); hit_ratio replays the workload's
	// LPN stream through a cache of one shard's capacity.
	lower("ns", "mapcache.lookup_hit_ns", "mapcache.lookup_miss_ns", "mapcache.put_new_ns", "mapcache.put_evict_ns", "mapcache.update_ns"),
	lower("count", "mapcache.allocs_per_put_evict"),
	lower("B", "mapcache.bytes_per_entry"),
	[]metricSpec{{"mapcache.hit_ratio", "ratio", "higher", 0}},

	// gecko, pvb, pvl: the page-validity stores over a metastore.BlockStore,
	// fed the invalidation stream of uniform updates (T3).
	lower("ns", "gecko.update_ns_p50", "gecko.update_ns_p999", "gecko.query_ns", "gecko.recover_dirs_ns", "gecko.scan_validity_ns"),
	lower("count", "gecko.update_allocs", "gecko.query_page_reads",
		"gecko.flushes_per_kupdate", "gecko.merges_per_kupdate", "gecko.merged_runs_per_merge",
		"gecko.flash_writes_per_update", "gecko.runs"),
	lower("B", "gecko.ram_bytes"),
	lower("ns", "pvb.ram_update_ns", "pvb.flash_update_ns", "pvb.flash_query_ns", "pvl.update_ns", "pvl.query_ns"),

	// flash: flash.Device alone (T3) and its counters per host op (T2).
	lower("ns", "flash.write_page_ns", "flash.read_page_ns", "flash.read_spare_ns", "flash.erase_block_ns", "flash.write_page_2g_ns"),
	lower("count", "flash.write_page_allocs",
		"flash.page_writes_per_op", "flash.page_reads_per_op", "flash.spare_reads_per_op", "flash.erases_per_kop"),
	lower("ratio", "flash.die_busy_imbalance"),

	// The small layers (T3).
	lower("ns", "bitmap.clone_ns", "bitmap.or_ns"),
	lower("count", "bitmap.clone_allocs"),
	lower("ns", "stats.record_ns", "stats.merge_ns",
		"workload.uniform_next_ns", "workload.zipfian_next_ns", "workload.mixed_next_ns",
		"metastore.append_ns",
		"checkpoint.encode_ns_per_kib", "checkpoint.decode_ns_per_kib"),
	lower("B", "checkpoint.bytes"),
)

func concat(parts ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
