// Command geckobench regenerates every table and figure of the GeckoFTL
// paper's evaluation section as plain-text rows, plus the engine-scaling
// experiments that go beyond the paper.
//
// Usage:
//
//	geckobench -experiment all
//	geckobench -experiment fig9 -writes 100000
//	geckobench -experiment channels -sweep 1,2,4,8,16
//	geckobench -experiment recovery -quick
//	geckobench -experiment recovery -json
//	geckobench -experiment latency -gc-pages 4 -policy metadata-aware
//	geckobench -experiment trim -trim-fractions 0,0.1,0.2,0.3 -json
//	geckobench -experiment wear -json
//	geckobench -experiment endurance -json
//	geckobench -experiment queue -depth 8 -admission shed -json
//	geckobench -experiment summary
//
// Experiments: fig1, table1, fig9, fig10, fig11, fig12, fig13ram, fig13rec,
// fig13wa, fig14, recovery, recovery-sweep, channels, latency, trim, wear,
// endurance, restart, queue, summary, all.
//
// Eight experiments go beyond the paper: channels sweeps the device's
// channel count and reports how the sharded engine's write throughput
// scales; recovery-sweep (also run by -experiment recovery) crashes the
// sharded engine and measures how recovery wall-clock scales with channel
// count, checkpoint interval and device capacity; latency records
// per-write service-time distributions (p50..p99.9, max) and compares
// inline whole-victim garbage collection against the incremental bounded
// scheduler across victim policies and workloads; trim interleaves
// host trims at increasing fractions and shows write-amplification falling
// monotonically; wear compares the single user write frontier against
// hot/cold-separated frontiers with wear-aware block allocation, reporting
// write-amplification and erase-count spread per victim policy and workload;
// endurance drives fault-injected devices with a finite per-block erase
// budget until capacity exhaustion, reporting lifetime in host writes per
// fault rate and allocation policy; and restart compares warm restarts from
// the shutdown metadata checkpoint against cold GeckoRec recovery of the
// identical state across device capacities; and queue drives the async
// submission path with open-loop arrival processes across queue depths and
// admission policies, locating the saturation knee and showing bounded
// backpressure keeping tail latency finite past it (see docs/benchmarks.md).
//
// With -json, each experiment emits one JSON object per line of the form
// {"experiment": name, "rows": [...], "go_version": ..., "gomaxprocs": ...,
// "revision": ...}, so benchmark trajectories can be recorded by machines
// instead of scraped from tables. The rows are a pure function of the flags
// (testdata/bench holds them at -quick); the other fields say what produced
// them. Host-side cost per operation is perfbench's job
// (internal/perfbench), not this tool's.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"geckoftl"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (fig1, table1, fig9, fig10, fig11, fig12, fig13ram, fig13rec, fig13wa, fig14, recovery, recovery-sweep, channels, latency, trim, wear, endurance, restart, queue, summary, all)")
		writes     = flag.Int64("writes", 0, "measured logical writes per simulation (0 = default)")
		blocks     = flag.Int("blocks", 0, "simulated device blocks (0 = default)")
		quick      = flag.Bool("quick", false, "use the small test-sized scale")
		sweepList  = flag.String("sweep", "1,2,4,8", "channel counts for the channels and recovery-sweep experiments")
		dies       = flag.Int("dies", 1, "dies per channel for the channels experiment (adds capacity, not engine overlap; see docs/benchmarks.md)")
		sweepWL    = flag.String("sweep-workload", "uniform", "workload for the channels experiment: uniform, sequential, zipfian, hotcold")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON rows (one {experiment, rows} object per experiment) instead of tables")
		gcModes    = flag.String("gc-mode", "both", "GC scheduling modes for the latency experiment: inline, incremental, or both")
		policies   = flag.String("policy", "both", "victim policies for the latency and wear experiments: greedy, metadata-aware, cost-benefit, or both (wear defaults to metadata-aware + cost-benefit)")
		gcPages    = flag.Int("gc-pages", 0, "incremental GC step budget per write for the latency experiment (0 = default)")
		trimFracs  = flag.String("trim-fractions", "0,0.1,0.2,0.3", "trim fractions for the trim experiment")
		depth      = flag.Int("depth", 0, "per-shard submission queue depth for the queue experiment's open-loop rows (0 = default)")
		depthsList = flag.String("depths", "", "queue depths for the queue experiment's closed-loop ladder, e.g. 1,4,8,16 (empty = default)")
		admission  = flag.String("admission", "", "admission policy for the queue experiment's open-loop rate rows: shed or wait (empty = shed)")
	)
	flag.Parse()
	sweep, err := parseSweep(*sweepList)
	if err != nil {
		usageExit(err)
	}
	// Validate the workload name up front so a typo is a usage error, not a
	// mid-run failure after minutes of simulation.
	if _, err := geckoftl.WorkloadByName(*sweepWL, 1024, 1); err != nil {
		usageExit(err)
	}
	modes, err := parseGCModes(*gcModes)
	if err != nil {
		usageExit(err)
	}
	pols, err := parsePolicies(*policies)
	if err != nil {
		usageExit(err)
	}
	if *gcPages < 0 {
		usageExit(fmt.Errorf("-gc-pages %d must be >= 0", *gcPages))
	}
	fractions, err := parseFractions(*trimFracs)
	if err != nil {
		usageExit(err)
	}
	if *depth < 0 {
		usageExit(fmt.Errorf("-depth %d must be >= 0", *depth))
	}
	depths, err := parseDepths(*depthsList)
	if err != nil {
		usageExit(err)
	}
	if *admission != "" {
		if _, err := geckoftl.ParseAdmissionPolicy(*admission); err != nil {
			usageExit(err)
		}
	}
	sweepOpts = geckoftl.ChannelSweepOptions{Channels: sweep, Workload: *sweepWL}
	sweepDies = *dies
	jsonMode = *jsonOut
	latencyOpts = geckoftl.LatencySweepOptions{Modes: modes, Policies: pols, GCPagesPerWrite: *gcPages}
	trimOpts = geckoftl.TrimSweepOptions{Workload: *sweepWL, TrimFractions: fractions}
	// The wear sweep's own policy default (metadata-aware + cost-benefit)
	// applies unless -policy names one explicitly.
	if *policies != "both" && *policies != "" {
		wearOpts = geckoftl.WearSweepOptions{Policies: pols}
	}
	queueOpts = geckoftl.QueueSweepOptions{Depth: *depth, Depths: depths, Policy: *admission, Workload: *sweepWL}

	scale := geckoftl.FullScale()
	if *quick {
		scale = geckoftl.QuickScale()
	}
	if *writes > 0 {
		scale.MeasureWrites = *writes
	}
	if *blocks > 0 {
		scale.Device.Blocks = *blocks
	}

	name := strings.ToLower(*experiment)
	if !knownExperiment(name) {
		usageExit(fmt.Errorf("unknown experiment %q (valid: %s)", *experiment, strings.Join(experimentNames(), ", ")))
	}
	if err := run(name, scale); err != nil {
		fmt.Fprintf(os.Stderr, "geckobench: %v\n", err)
		os.Exit(1)
	}
}

// knownExperiment reports whether name selects at least one experiment.
func knownExperiment(name string) bool {
	if name == "all" {
		return true
	}
	for _, e := range experiments() {
		if name == e.name || (e.group != "" && name == e.group) {
			return true
		}
	}
	return false
}

// experimentNames lists every selectable experiment name, in declaration
// order, ending with the "all" selector. Group selectors that match an
// experiment name (e.g. "recovery") are not repeated.
func experimentNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, e := range experiments() {
		for _, n := range []string{e.name, e.group} {
			if n != "" && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return append(names, "all")
}

// usageExit reports a bad flag value and exits with the conventional
// bad-usage status.
func usageExit(err error) {
	fmt.Fprintf(os.Stderr, "geckobench: %v\n", err)
	flag.Usage()
	os.Exit(2)
}

// experimentSpec is one runnable experiment: a producer of typed rows and a
// text renderer for them. The -json flag bypasses the renderer and encodes
// the rows directly.
type experimentSpec struct {
	name string
	// group optionally names a selector that also runs this experiment
	// (recovery-sweep runs under "recovery").
	group string
	rows  func(geckoftl.ExperimentScale) (any, error)
	print func(any)
}

func experiments() []experimentSpec {
	return []experimentSpec{
		{name: "fig1", rows: figure1Rows, print: printFigure1},
		{name: "table1", rows: table1Rows, print: printTable1},
		{name: "fig9", rows: figure9Rows, print: printFigure9},
		{name: "fig10", rows: figure10Rows, print: printFigure10},
		{name: "fig11", rows: figure11Rows, print: printFigure11},
		{name: "fig12", rows: figure12Rows, print: printFigure12},
		{name: "fig13ram", rows: figure13RAMRows, print: printFigure13RAM},
		{name: "fig13rec", rows: figure13RecoveryRows, print: printFigure13Recovery},
		{name: "fig13wa", rows: figure13WARows, print: printFigure13WA},
		{name: "fig14", rows: figure14Rows, print: printFigure14},
		{name: "recovery", rows: recoveryRows, print: printRecovery},
		{name: "recovery-sweep", group: "recovery", rows: recoverySweepRows, print: printRecoverySweep},
		{name: "channels", rows: channelSweepRows, print: printChannelSweep},
		{name: "latency", rows: latencySweepRows, print: printLatencySweep},
		{name: "trim", rows: trimSweepRows, print: printTrimSweep},
		{name: "wear", rows: wearSweepRows, print: printWearSweep},
		{name: "endurance", rows: enduranceSweepRows, print: printEnduranceSweep},
		{name: "restart", rows: restartSweepRows, print: printRestartSweep},
		{name: "queue", rows: queueSweepRows, print: printQueueSweep},
		{name: "summary", rows: summaryRows, print: printSummary},
	}
}

// vcsRevision is the commit the binary was built from, when the toolchain
// stamped one (go build inside a checkout; go run and go test do not).
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return ""
}

func run(experiment string, scale geckoftl.ExperimentScale) error {
	all := experiment == "all"
	ran := false
	enc := json.NewEncoder(os.Stdout)
	for _, e := range experiments() {
		if !all && experiment != e.name && (e.group == "" || experiment != e.group) {
			continue
		}
		ran = true
		rows, err := e.rows(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if jsonMode {
			if err := enc.Encode(struct {
				Experiment string `json:"experiment"`
				Rows       any    `json:"rows"`
				GoVersion  string `json:"go_version"`
				GOMAXPROCS int    `json:"gomaxprocs"`
				Revision   string `json:"revision,omitempty"`
			}{e.name, rows, runtime.Version(), runtime.GOMAXPROCS(0), vcsRevision()}); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			continue
		}
		e.print(rows)
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (valid: %s)", experiment, strings.Join(experimentNames(), ", "))
	}
	return nil
}

func figure1Rows(geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure1(), nil }

func printFigure1(rows any) {
	fmt.Println("Figure 1: LazyFTL integrated RAM and recovery time vs device capacity (analytical, full scale)")
	fmt.Printf("%-12s %16s %16s\n", "capacity", "RAM (MB)", "recovery (s)")
	for _, p := range rows.([]geckoftl.CapacityPoint) {
		fmt.Printf("%-12s %16.1f %16.1f\n",
			formatBytes(p.CapacityBytes), float64(p.RAMBytes)/(1<<20), p.Recovery.Seconds())
	}
}

func table1Rows(geckoftl.ExperimentScale) (any, error) { return geckoftl.Table1(), nil }

func printTable1(rows any) {
	fmt.Println("Table 1: per-operation IO costs and RAM of page-validity schemes (analytical, full scale)")
	fmt.Printf("%-20s %14s %14s %12s %12s %14s\n", "technique", "update reads", "update writes", "GC reads", "GC writes", "RAM")
	for _, r := range rows.([]geckoftl.Table1Row) {
		fmt.Printf("%-20s %14.5f %14.5f %12.3f %12.5f %14s\n",
			r.Technique, r.UpdateReads, r.UpdateWrites, r.QueryReads, r.QueryWrites, formatBytes(r.RAMBytes))
	}
}

func figure9Rows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure9(scale) }

func printFigure9(rows any) {
	fmt.Println("Figure 9: Logarithmic Gecko vs flash-resident PVB under uniform random updates (simulation)")
	fmt.Printf("%-16s %12s %12s %12s %10s\n", "scheme", "flash reads", "flash writes", "WA", "GC queries")
	for _, r := range rows.([]geckoftl.Figure9Row) {
		fmt.Printf("%-16s %12d %12d %12.4f %10d\n", r.Name, r.FlashReads, r.FlashWrites, r.WA, r.GCQueries)
	}
}

func figure10Rows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure10(scale) }

func printFigure10(rows any) {
	fmt.Println("Figure 10: entry-partitioning makes write-amplification independent of block size (simulation)")
	fmt.Printf("%-10s %22s %12s\n", "block size", "partitioning", "WA")
	for _, r := range rows.([]geckoftl.Figure10Row) {
		label := fmt.Sprintf("S=%d", r.PartitionFactor)
		if r.PartitionFactor == -1 {
			label = "recommended"
		}
		fmt.Printf("%-10d %22s %12.4f\n", r.BlockSize, label, r.WA)
	}
}

func figure11Rows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure11(scale) }

func printFigure11(rows any) {
	fmt.Println("Figure 11: write-amplification vs number of blocks K (simulation)")
	fmt.Printf("%-10s %16s %16s\n", "blocks", "gecko WA", "flash-PVB WA")
	for _, r := range rows.([]geckoftl.Figure11Row) {
		fmt.Printf("%-10d %16.4f %16.4f\n", r.Blocks, r.GeckoWA, r.PVBWA)
	}
}

func figure12Rows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure12(scale) }

func printFigure12(rows any) {
	fmt.Println("Figure 12: over-provisioning vs Logarithmic Gecko IO (simulation)")
	fmt.Printf("%-6s %12s %12s %12s\n", "R", "WA", "GC queries", "flash reads")
	for _, r := range rows.([]geckoftl.Figure12Row) {
		fmt.Printf("%-6.2f %12.4f %12d %12d\n", r.OverProvision, r.WA, r.GCQueries, r.FlashReads)
	}
}

func figure13RAMRows(geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure13RAM(), nil }

func printFigure13RAM(rows any) {
	fmt.Println("Figure 13 (top): integrated RAM breakdown per FTL (analytical, full scale)")
	fmt.Printf("%-10s %12s %12s %12s %12s %14s %12s\n", "ftl", "cache", "GMD", "PVB", "BVC", "page-validity", "total")
	for _, b := range rows.([]geckoftl.RAMBreakdown) {
		fmt.Printf("%-10s %12s %12s %12s %12s %14s %12s\n",
			b.FTL, formatBytes(b.Cache), formatBytes(b.GMD), formatBytes(b.PVB),
			formatBytes(b.BVC), formatBytes(b.PageValidity), formatBytes(b.Total()))
	}
}

func figure13RecoveryRows(geckoftl.ExperimentScale) (any, error) {
	return geckoftl.Figure13Recovery(), nil
}

func printFigure13Recovery(rows any) {
	fmt.Println("Figure 13 (middle): recovery time breakdown per FTL (analytical, full scale)")
	fmt.Printf("%-10s %12s %12s %12s %14s %12s %10s %10s\n", "ftl", "block scan", "GMD", "PVB", "page-validity", "LRU cache", "total", "battery")
	for _, b := range rows.([]geckoftl.RecoveryBreakdown) {
		fmt.Printf("%-10s %12s %12s %12s %14s %12s %10s %10v\n",
			b.FTL, fmtDur(b.BlockScan), fmtDur(b.GMD), fmtDur(b.PVB),
			fmtDur(b.PageValidity), fmtDur(b.LRUCache), fmtDur(b.Total()), b.Battery)
	}
}

func figure13WARows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure13WA(scale) }

func printFigure13WA(rows any) {
	fmt.Println("Figure 13 (bottom): write-amplification breakdown per FTL (simulation)")
	fmt.Print(geckoftl.FormatTable("", rows.([]geckoftl.Result)))
}

func figure14Rows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure14(scale) }

func printFigure14(rows any) {
	fmt.Println("Figure 14: equal RAM budget; freed PVB RAM used as extra cache (simulation)")
	fmt.Printf("%-10s %14s %10s %10s %12s %10s\n", "ftl", "cache entries", "WA", "user", "translation", "validity")
	for _, r := range rows.([]geckoftl.Figure14Row) {
		fmt.Printf("%-10s %14d %10.3f %10.3f %12.3f %10.3f\n",
			r.Name, r.CacheEntries, r.WA, r.UserWA, r.TranslationWA, r.ValidityWA)
	}
}

func recoveryRows(scale geckoftl.ExperimentScale) (any, error) {
	return geckoftl.RecoverySimulation(scale)
}

func printRecovery(rows any) {
	fmt.Println("Recovery simulation: crash each FTL mid-workload on one plane, measure recovery IO and time")
	fmt.Printf("%-10s %14s %12s %12s %12s %10s %10s\n", "ftl", "duration", "spare reads", "page reads", "page writes", "entries", "battery")
	for _, r := range rows.([]geckoftl.RecoveryResult) {
		fmt.Printf("%-10s %14s %12d %12d %12d %10d %10v\n",
			r.Name, fmtDur(r.Duration), r.SpareReads, r.PageReads, r.PageWrites, r.RecoveredMappingEntries, r.UsedBattery)
	}
}

func recoverySweepRows(scale geckoftl.ExperimentScale) (any, error) {
	return geckoftl.RecoverySweep(geckoftl.RecoverySweepOptions{Scale: scale, Channels: sweepOpts.Channels})
}

func printRecoverySweep(rows any) {
	fmt.Println("Engine recovery sweep: crash the sharded engine, recover all shards in parallel")
	fmt.Printf("%-11s %-12s %8s %7s %7s %10s %10s %8s %11s %8s %10s\n",
		"dimension", "ftl", "channels", "blocks", "cache", "wall", "serial", "speedup", "spare reads", "entries", "model-wall")
	for _, p := range rows.([]geckoftl.RecoveryPoint) {
		fmt.Printf("%-11s %-12s %8d %7d %7d %10s %10s %7.2fx %11d %8d %10s\n",
			p.Dimension, p.FTL, p.Channels, p.Blocks, p.CacheEntries,
			fmtDur(p.WallClock), fmtDur(p.SerialTime), p.Speedup, p.SpareReads, p.RecoveredEntries, fmtDur(p.ModelWall))
	}
}

func summaryRows(scale geckoftl.ExperimentScale) (any, error) { return geckoftl.Headlines(scale) }

func printSummary(rows any) {
	s := rows.(geckoftl.HeadlineSummary)
	fmt.Println("Headline claims")
	fmt.Printf("  page-validity RAM reduction vs RAM-resident PVB:   %5.1f%%  (paper: 95%%)\n", 100*s.RAMReduction)
	fmt.Printf("  recovery-time reduction vs LazyFTL:                %5.1f%%  (paper: >= 51%%)\n", 100*s.RecoveryReduction)
	fmt.Printf("  page-validity write-amplification reduction vs\n")
	fmt.Printf("  flash-resident PVB:                                %5.1f%%  (paper: 98%%)\n", 100*s.ValidityWAReduction)
}

// sweepOpts, sweepDies, latencyOpts, trimOpts, queueOpts and jsonMode carry
// flags to the experiment drivers.
var (
	sweepOpts   geckoftl.ChannelSweepOptions
	sweepDies   int
	latencyOpts geckoftl.LatencySweepOptions
	trimOpts    geckoftl.TrimSweepOptions
	wearOpts    geckoftl.WearSweepOptions
	queueOpts   geckoftl.QueueSweepOptions
	jsonMode    bool
)

// parseFractions parses a comma-separated trim-fraction list, e.g.
// "0,0.1,0.2".
func parseFractions(s string) ([]float64, error) {
	var out []float64
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		f, err := strconv.ParseFloat(field, 64)
		if err != nil || f < 0 || f >= 1 {
			return nil, fmt.Errorf("bad trim fraction %q in -trim-fractions (want [0,1))", field)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-trim-fractions %q lists no fractions", s)
	}
	return out, nil
}

func trimSweepRows(scale geckoftl.ExperimentScale) (any, error) {
	opts := trimOpts
	opts.Scale = scale
	return geckoftl.TrimSweep(opts)
}

func printTrimSweep(rows any) {
	fmt.Println("Trim sweep: write-amplification of the sharded GeckoFTL engine vs host trim fraction")
	fmt.Printf("%-9s %9s %9s %8s %8s %10s %8s %8s %8s %10s %10s\n",
		"workload", "trim-frac", "writes", "trims", "trimmed", "WA", "user", "trans", "valid", "write-p99", "trim-p99")
	for _, p := range rows.([]geckoftl.TrimPoint) {
		fmt.Printf("%-9s %9.2f %9d %8d %8d %10.3f %8.3f %8.3f %8.3f %10s %10s\n",
			p.Workload, p.TrimFraction, p.Writes, p.Trims, p.TrimmedPages,
			p.WA, p.UserWA, p.TranslationWA, p.ValidityWA,
			fmtDur(p.Write.P99), fmtDur(p.Trim.P99))
	}
}

func wearSweepRows(scale geckoftl.ExperimentScale) (any, error) {
	opts := wearOpts
	opts.Scale = scale
	return geckoftl.WearSweep(opts)
}

func printWearSweep(rows any) {
	fmt.Println("Wear sweep: WA and erase-count spread of the sharded GeckoFTL engine, single vs hot/cold frontiers")
	fmt.Printf("%-9s %-15s %-9s %5s %9s %6s %10s %8s %8s %8s %8s %6s %6s %7s %10s %10s\n",
		"workload", "policy", "frontier", "wear", "writes", "hot%", "WA", "user", "trans", "valid", "erases", "min-e", "max-e", "spread", "model-sgl", "model-sep")
	for _, p := range rows.([]geckoftl.WearPoint) {
		hotFrac := 0.0
		if p.Writes > 0 {
			hotFrac = 100 * float64(p.HotWrites) / float64(p.Writes)
		}
		fmt.Printf("%-9s %-15s %-9s %5v %9d %6.1f %10.3f %8.3f %8.3f %8.3f %8d %6d %6d %7d %10.3f %10.3f\n",
			p.Workload, p.Policy, p.Frontier, p.WearAware, p.Writes, hotFrac,
			p.WA, p.UserWA, p.TranslationWA, p.ValidityWA,
			p.Erases, p.MinErase, p.MaxErase, p.EraseSpread,
			p.ModelSingleWA, p.ModelSeparatedWA)
	}
}

func enduranceSweepRows(scale geckoftl.ExperimentScale) (any, error) {
	return geckoftl.EnduranceSweep(geckoftl.EnduranceSweepOptions{Scale: scale})
}

func printEnduranceSweep(rows any) {
	fmt.Println("Endurance sweep: device lifetime in host writes until capacity exhaustion, fault rate x allocation policy")
	fmt.Printf("%-9s %-11s %6s %7s %10s %7s %6s %9s %7s\n",
		"workload", "policy", "fault", "max-e", "lifetime", "capped", "bad", "retries", "spread")
	for _, p := range rows.([]geckoftl.EndurancePoint) {
		fmt.Printf("%-9s %-11s %6.2f %7d %10d %7v %6d %9d %7d\n",
			p.Workload, p.Policy, p.FaultRate, p.MaxEraseCount, p.Lifetime, p.Capped,
			p.BadBlocks, p.ProgramRetries, p.EraseSpread)
	}
}

func restartSweepRows(scale geckoftl.ExperimentScale) (any, error) {
	return geckoftl.RestartSweep(geckoftl.RestartSweepOptions{Scale: scale})
}

func printRestartSweep(rows any) {
	fmt.Println("Restart sweep: warm restart from the shutdown checkpoint vs cold GeckoRec recovery of identical state")
	fmt.Printf("%-9s %7s %7s %7s %10s %10s %10s %8s %11s %11s\n",
		"channels", "shards", "blocks", "cache", "ckpt", "warm", "cold", "speedup", "model-warm", "model-cold")
	for _, p := range rows.([]geckoftl.RestartPoint) {
		fmt.Printf("%-9d %7d %7d %7d %10s %10s %10s %7.2fx %11s %11s\n",
			p.Channels, p.Shards, p.Blocks, p.CacheEntries,
			formatBytes(p.CheckpointBytes), fmtDur(p.WarmWallClock), fmtDur(p.ColdWallClock),
			p.Speedup, fmtDur(p.ModelWarm), fmtDur(p.ModelCold))
	}
}

// parseDepths parses the -depths flag: a comma-separated queue-depth list,
// e.g. "1,4,8,16". Empty keeps the sweep's default ladder.
func parseDepths(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		n, err := strconv.Atoi(field)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad queue depth %q in -depths", field)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-depths %q lists no depths", s)
	}
	return out, nil
}

func queueSweepRows(scale geckoftl.ExperimentScale) (any, error) {
	opts := queueOpts
	opts.Scale = scale
	return geckoftl.QueueSweep(opts)
}

func printQueueSweep(rows any) {
	fmt.Println("Queue sweep: async submission engine vs the synchronous baseline and the queueing model's saturation knee")
	fmt.Printf("%-7s %-19s %-10s %6s %9s %9s %7s %8s %9s %8s %9s %9s %9s %9s\n",
		"mode", "workload", "policy", "depth", "offered/s", "tput/s", "WA", "knee/s", "shed", "delayed", "p50", "p99", "p99.9", "bound")
	for _, p := range rows.([]geckoftl.QueuePoint) {
		offered := "-"
		if p.Offered > 0 {
			offered = fmt.Sprintf("%.0f", p.Offered)
		}
		bound := "-"
		if p.DelayBound > 0 {
			bound = fmtDur(p.DelayBound)
		}
		fmt.Printf("%-7s %-19s %-10s %6d %9s %9.0f %7.3f %8.0f %9d %8d %9s %9s %9s %9s\n",
			p.Mode, p.Workload, p.Policy, p.Depth, offered, p.Throughput, p.WA, p.ModelKnee,
			p.Shed, p.Delayed, fmtDur(p.Latency.P50), fmtDur(p.Latency.P99), fmtDur(p.Latency.P999), bound)
	}
}

// parseGCModes parses the -gc-mode flag: a single geckoftl.GCMode name or "both".
func parseGCModes(s string) ([]geckoftl.GCMode, error) {
	if s == "" || s == "both" {
		return []geckoftl.GCMode{geckoftl.GCInline, geckoftl.GCIncremental}, nil
	}
	m, err := geckoftl.ParseGCMode(s)
	if err != nil {
		return nil, err
	}
	return []geckoftl.GCMode{m}, nil
}

// parsePolicies parses the -policy flag: a single geckoftl.VictimPolicy name or
// "both".
func parsePolicies(s string) ([]geckoftl.VictimPolicy, error) {
	if s == "" || s == "both" {
		return []geckoftl.VictimPolicy{geckoftl.VictimMetadataAware, geckoftl.VictimGreedy}, nil
	}
	p, err := geckoftl.ParseVictimPolicy(s)
	if err != nil {
		return nil, err
	}
	return []geckoftl.VictimPolicy{p}, nil
}

func latencySweepRows(scale geckoftl.ExperimentScale) (any, error) {
	opts := latencyOpts
	opts.Scale = scale
	return geckoftl.LatencySweep(opts)
}

func printLatencySweep(rows any) {
	fmt.Println("Latency sweep: per-write service time of the sharded GeckoFTL engine, inline vs incremental GC")
	fmt.Printf("%-9s %-15s %-12s %3s %10s %8s %9s %9s %9s %9s %8s %10s %10s %5s\n",
		"workload", "policy", "gc-mode", "k", "WA", "p50", "p90", "p99", "p99.9", "max", "stalled", "max-stall", "bound", "fb")
	for _, p := range rows.([]geckoftl.LatencyPoint) {
		fmt.Printf("%-9s %-15s %-12s %3d %10.3f %8s %9s %9s %9s %9s %8d %10s %10s %5d\n",
			p.Workload, p.Policy, p.GCMode, p.GCPagesPerWrite, p.WA,
			fmtDur(p.Write.P50), fmtDur(p.Write.P90), fmtDur(p.Write.P99), fmtDur(p.Write.P999), fmtDur(p.Write.Max),
			p.GCStalledWrites.Count, fmtDur(p.MaxGCStall), fmtDur(p.ModelStallBound), p.GCFallbacks)
	}
}

// parseSweep parses a comma-separated channel-count list, e.g. "1,2,4,8".
func parseSweep(s string) ([]int, error) {
	var out []int
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		n, err := strconv.Atoi(field)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad channel count %q in -sweep", field)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep %q lists no channel counts", s)
	}
	return out, nil
}

func channelSweepRows(scale geckoftl.ExperimentScale) (any, error) {
	opts := sweepOpts
	opts.Scale = scale
	opts.Scale.Device.DiesPerChannel = sweepDies
	return geckoftl.ChannelSweep(opts)
}

func printChannelSweep(rows any) {
	wl := sweepOpts.Workload
	if wl == "" {
		wl = "uniform"
	}
	fmt.Printf("Channel scaling: sharded GeckoFTL engine write throughput vs channel count (%s workload, %d dies/channel)\n",
		wl, sweepDies)
	fmt.Printf("%-9s %6s %12s %10s %10s %8s %12s %10s\n",
		"channels", "dies", "writes/s", "speedup", "WA", "wall", "model-w/s", "imbalance")
	for _, p := range rows.([]geckoftl.ChannelPoint) {
		fmt.Printf("%-9d %6d %12.0f %9.2fx %10.3f %8s %12.0f %10.3f\n",
			p.Channels, p.Dies, p.Throughput, p.Speedup, p.WA, fmtDur(p.WallTime), p.ModelThroughput, p.LoadImbalance)
	}
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func fmtDur(d time.Duration) string {
	if d >= time.Second {
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
	return d.Round(time.Microsecond).String()
}
