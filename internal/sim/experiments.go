package sim

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
)

// ExperimentScale controls how much work the simulation experiments do. The
// Quick scale is used by tests; the Full scale by the benchmark harness and
// the geckobench tool.
type ExperimentScale struct {
	// Device is the simulated device geometry.
	Device DeviceSpec
	// MeasureWrites is the size of the measured window.
	MeasureWrites int64
	// CacheEntries is the LRU cache capacity used by FTL-level experiments.
	CacheEntries int
	// Seed seeds the workloads.
	Seed int64
}

// QuickScale is small enough for unit tests.
func QuickScale() ExperimentScale {
	return ExperimentScale{
		Device:        DeviceSpec{Blocks: 128, PagesPerBlock: 16, PageSize: 512, OverProvision: 0.7},
		MeasureWrites: 4000,
		CacheEntries:  256,
		Seed:          1,
	}
}

// FullScale is the default scale of the benchmark harness and geckobench.
func FullScale() ExperimentScale {
	return ExperimentScale{
		Device:        DefaultDeviceSpec(),
		MeasureWrites: 40000,
		CacheEntries:  1024,
		Seed:          1,
	}
}

// Params is everything an experiment run can depend on: the scale plus the
// sweep dimensions geckobench exposes as flags. The zero value of every
// field but Scale selects the experiment's own default, so Params{Scale: s}
// is the run the recorded goldens pin.
type Params struct {
	// Scale sizes the simulations (-quick, -writes, -blocks).
	Scale ExperimentScale
	// Channels lists channel counts (-sweep); Dies is the dies per channel
	// of the channels experiment (-dies).
	Channels []int
	Dies     int
	// Workload names the page stream (-sweep-workload).
	Workload string
	// GCModes, Policies and GCPagesPerWrite select GC scheduling modes,
	// victim policies and the incremental step budget (-gc-mode, -policy,
	// -gc-pages).
	GCModes         []ftl.GCMode
	Policies        []ftl.VictimPolicy
	GCPagesPerWrite int
	// TrimFractions lists host trim fractions (-trim-fractions).
	TrimFractions []float64
	// Depth, Depths and Admission shape the queue experiment's open-loop
	// depth, closed-loop depth ladder and admission policy (-depth, -depths,
	// -admission).
	Depth     int
	Depths    []int
	Admission string
}

// Experiment is one entry of the registry: all that geckobench, the goldens
// under testdata/bench, the benchmarks and CI know about an experiment.
type Experiment struct {
	// Name selects the experiment; Group, when set, is a second selector
	// that also runs it (recovery-sweep runs under "recovery").
	Name, Group string
	// Title heads the experiment's text table.
	Title string
	// Flags names the geckobench flags, beyond the scale's, whose Params
	// fields Run reads.
	Flags []string
	// Run produces the experiment's typed rows: a slice of row structs (one
	// struct for summary). Their JSON encoding is the recorded contract.
	Run func(Params) (any, error)
	// NewRows returns a pointer to an empty value of Run's row type, for
	// decoding recorded rows back into it.
	NewRows func() any
	// Claims are what the evaluation claims of the rows Run returns with
	// default parameters: the entries of the claims table (claims.go) under
	// its name. Verdicts checks them.
	Claims []Claim
}

// experiment builds a registry entry from a typed run function.
func experiment[R any](name, group, title string, flags []string, run func(Params) (R, error)) Experiment {
	return Experiment{
		Name: name, Group: group, Title: title, Flags: flags,
		Run:     func(p Params) (any, error) { return run(p) },
		NewRows: func() any { return new(R) },
		Claims:  slices.DeleteFunc(slices.Clone(claims), func(c Claim) bool { return !strings.HasPrefix(c.ID, name+".") }),
	}
}

// analytic adapts a model evaluation that depends on no parameter.
func analytic[R any](rows func() R) func(Params) (R, error) {
	return func(Params) (R, error) { return rows(), nil }
}

// scaled adapts a simulation that depends on the scale alone.
func scaled[R any](rows func(ExperimentScale) (R, error)) func(Params) (R, error) {
	return func(p Params) (R, error) { return rows(p.Scale) }
}

// Experiments returns the registry, in the order "all" runs it: the paper's
// tables and figures, then the sweeps that go beyond the paper. Adding an
// experiment is adding its row type, its run function, one entry here and
// its claims, plus the golden `go test -run TestExperimentGoldens -update .`
// records.
func Experiments() []Experiment {
	return []Experiment{
		experiment("fig1", "", "Figure 1: LazyFTL integrated RAM and recovery time vs device capacity (analytical, full scale)",
			nil, analytic(Figure1)),
		experiment("table1", "", "Table 1: per-operation IO costs and RAM of page-validity schemes (analytical, full scale)",
			nil, analytic(Table1)),
		experiment("fig9", "", "Figure 9: Logarithmic Gecko vs flash-resident PVB under uniform random updates (simulation)",
			nil, scaled(Figure9)),
		experiment("fig10", "", "Figure 10: entry-partitioning makes write-amplification independent of block size (simulation; PartitionFactor -1 is the recommended factor)",
			nil, scaled(Figure10)),
		experiment("fig11", "", "Figure 11: write-amplification vs number of blocks K (simulation)",
			nil, scaled(Figure11)),
		experiment("fig12", "", "Figure 12: over-provisioning vs Logarithmic Gecko IO (simulation)",
			nil, scaled(Figure12)),
		experiment("fig13ram", "", "Figure 13 (top): integrated RAM breakdown per FTL (analytical, full scale)",
			nil, analytic(Figure13RAM)),
		experiment("fig13rec", "", "Figure 13 (middle): recovery time breakdown per FTL (analytical, full scale)",
			nil, analytic(Figure13Recovery)),
		experiment("fig13wa", "", "Figure 13 (bottom): write-amplification breakdown per FTL (simulation)",
			nil, scaled(Figure13WA)),
		experiment("fig14", "", "Figure 14: equal RAM budget; freed PVB RAM used as extra cache (simulation)",
			nil, scaled(Figure14)),
		experiment("recovery", "", "Recovery simulation: crash each FTL mid-workload on one plane, measure recovery IO and time",
			nil, scaled(RecoverySimulation)),
		experiment("recovery-sweep", "recovery", "Engine recovery sweep: crash the sharded engine, recover all shards in parallel",
			[]string{"sweep"}, RecoverySweep),
		experiment("channels", "", "Channel scaling: sharded GeckoFTL engine write throughput vs channel count (uniform workload, 1 die per channel by default)",
			[]string{"sweep", "dies", "sweep-workload"}, ChannelSweep),
		experiment("latency", "", "Latency sweep: per-write service time of the sharded GeckoFTL engine, inline vs incremental GC",
			[]string{"gc-mode", "policy", "gc-pages"}, LatencySweep),
		experiment("trim", "", "Trim sweep: write-amplification of the sharded GeckoFTL engine vs host trim fraction",
			[]string{"sweep-workload", "trim-fractions"}, TrimSweep),
		experiment("wear", "", "Wear sweep: WA and erase-count spread of the sharded GeckoFTL engine, single vs hot/cold frontiers",
			[]string{"policy"}, WearSweep),
		experiment("endurance", "", "Endurance sweep: device lifetime in host writes until capacity exhaustion, fault rate x allocation policy",
			nil, scaled(EnduranceSweep)),
		experiment("restart", "", "Restart sweep: warm restart from the shutdown checkpoint vs cold GeckoRec recovery of identical state",
			nil, scaled(RestartSweep)),
		experiment("queue", "", "Queue sweep: async submission engine vs the synchronous baseline and the queueing model's saturation knee",
			[]string{"sweep-workload", "depth", "depths", "admission"}, QueueSweep),
		experiment("summary", "", "Headline claims: reductions as fractions (paper: page-validity RAM 0.95 vs RAM-resident PVB, recovery time >= 0.51 vs LazyFTL, page-validity WA 0.98 vs flash-resident PVB)",
			nil, scaled(Headlines)),
	}
}

// isolated describes an isolated page-validity run of the scheme at this
// scale: the scale's geometry with half as many metadata blocks as user
// blocks.
func (s ExperimentScale) isolated(scheme SchemeBuilder) IsolatedOptions {
	return IsolatedOptions{
		UserBlocks:    s.Device.Blocks,
		MetaBlocks:    s.Device.Blocks / 2,
		PagesPerBlock: s.Device.PagesPerBlock,
		PageSize:      s.Device.PageSize,
		OverProvision: s.Device.OverProvision,
		Scheme:        scheme,
		MeasureWrites: s.MeasureWrites,
		Seed:          s.Seed,
	}
}

// Figure9Row is one bar group of Figure 9: a page-validity scheme with its
// internal IO counts and write-amplification under uniformly random updates.
type Figure9Row struct {
	IsolatedResult
}

// Figure9 compares Logarithmic Gecko under size ratios T = 2..32 against the
// flash-resident PVB baseline (Section 5.1). Logarithmic Gecko must beat the
// baseline at every T, and T = 2 should be (close to) the best tuning.
func Figure9(scale ExperimentScale) ([]Figure9Row, error) {
	schemes := []SchemeBuilder{FlashPVBScheme()}
	for _, t := range []int{2, 4, 8, 16, 32} {
		schemes = append(schemes, GeckoScheme(t, 0))
	}
	var rows []Figure9Row
	for _, s := range schemes {
		res, err := RunIsolated(scale.isolated(s))
		if err != nil {
			return nil, fmt.Errorf("sim: figure 9 (%s): %w", s.Name, err)
		}
		rows = append(rows, Figure9Row{res})
	}
	return rows, nil
}

// Figure10Row is one point of Figure 10: write-amplification for a block size
// B and an entry-partitioning factor S.
type Figure10Row struct {
	BlockSize       int
	PartitionFactor int
	WA              float64
}

// Figure10 shows that entry-partitioning makes Logarithmic Gecko's
// write-amplification independent of the block size B (Section 5.2): without
// partitioning (S = 1) WA grows with B, with the recommended S it stays flat,
// and with excessive S it grows again because of key space-amplification.
// The number of blocks K is held fixed while B grows, as in the paper.
func Figure10(scale ExperimentScale) ([]Figure10Row, error) {
	var rows []Figure10Row
	blockSizes := []int{16, 32, 64, 128}
	for _, b := range blockSizes {
		for _, s := range []int{1, 0, b / 2} { // 0 selects the recommended factor
			opts := scale.isolated(GeckoScheme(2, s))
			opts.PagesPerBlock = b
			res, err := RunIsolated(opts)
			if err != nil {
				return nil, fmt.Errorf("sim: figure 10 (B=%d S=%d): %w", b, s, err)
			}
			factor := s
			if factor == 0 {
				factor = -1 // recommended
			}
			rows = append(rows, Figure10Row{BlockSize: b, PartitionFactor: factor, WA: res.WA})
		}
	}
	return rows, nil
}

// Figure11Row is one point of Figure 11: write-amplification versus the
// number of blocks K for Logarithmic Gecko and the flash-resident PVB.
type Figure11Row struct {
	Blocks  int
	GeckoWA float64
	PVBWA   float64
}

// Figure11 scales the device capacity (number of blocks K) and shows that
// Logarithmic Gecko's write-amplification grows only logarithmically while
// the flash PVB's stays flat but far higher (Section 5.2, "Capacity").
func Figure11(scale ExperimentScale) ([]Figure11Row, error) {
	var rows []Figure11Row
	for _, k := range []int{64, 128, 256, 512} {
		row := Figure11Row{Blocks: k}
		for _, s := range []SchemeBuilder{GeckoScheme(2, 0), FlashPVBScheme()} {
			opts := scale.isolated(s)
			opts.UserBlocks, opts.MetaBlocks = k, k/2
			res, err := RunIsolated(opts)
			if err != nil {
				return nil, fmt.Errorf("sim: figure 11 (K=%d, %s): %w", k, s.Name, err)
			}
			if strings.HasPrefix(s.Name, "gecko") {
				row.GeckoWA = res.WA
			} else {
				row.PVBWA = res.WA
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure12Row is one point of Figure 12: Logarithmic Gecko's IO under a given
// over-provisioning ratio R.
type Figure12Row struct {
	OverProvision float64
	WA            float64
	GCQueries     int64
	FlashReads    int64
}

// Figure12 varies over-provisioning, which controls how frequently
// garbage-collection (and therefore GC queries) runs relative to updates
// (Section 5.2, "Over-Provisioning"). Less over-provisioning means more GC
// queries, but the overall increase in write-amplification stays small
// because flash reads are cheap relative to writes.
func Figure12(scale ExperimentScale) ([]Figure12Row, error) {
	var rows []Figure12Row
	for _, r := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		opts := scale.isolated(GeckoScheme(2, 0))
		opts.OverProvision = r
		res, err := RunIsolated(opts)
		if err != nil {
			return nil, fmt.Errorf("sim: figure 12 (R=%.1f): %w", r, err)
		}
		rows = append(rows, Figure12Row{OverProvision: r, WA: res.WA, GCQueries: res.GCQueries, FlashReads: res.FlashReads})
	}
	return rows, nil
}

// Figure13WA runs the five FTLs under uniformly random writes and reports the
// write-amplification breakdown of Figure 13 (bottom).
func Figure13WA(scale ExperimentScale) ([]Result, error) {
	var out []Result
	for _, kind := range model.Kinds() {
		res, err := MeasureFTL(scale, kind, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: figure 13 WA (%s): %w", kind, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Figure13RAM returns the analytical integrated-RAM breakdown (Figure 13 top)
// at the paper's full 2 TB scale.
func Figure13RAM() []model.RAMBreakdown { return model.RAMAll(model.Default()) }

// Figure13Recovery returns the analytical recovery-time breakdown (Figure 13
// middle) at the paper's full 2 TB scale.
func Figure13Recovery() []model.RecoveryBreakdown { return model.RecoveryAll(model.Default()) }

// Figure1 returns the capacity sweep of Figure 1 (LazyFTL RAM requirement and
// recovery time versus device capacity).
func Figure1() []model.CapacityPoint {
	capacities := []int64{64 << 30, 128 << 30, 256 << 30, 512 << 30, 1 << 40, 2 << 40, 4 << 40}
	return model.Figure1(model.Default(), capacities)
}

// Table1 returns the evaluated Table 1 at the paper's full 2 TB scale.
func Table1() []model.Table1Row { return model.Table1(model.Default()) }

// Figure14Row is one bar group of Figure 14: an FTL given the same total RAM
// budget, with its cache size and write-amplification breakdown.
type Figure14Row struct {
	Result
	CacheEntries int
}

// Figure14 reproduces the better-RAM-utilization experiment of Section 5.4:
// all three FTLs receive the same RAM budget; DFTL spends most of it on the
// RAM-resident PVB, while µ-FTL and GeckoFTL give it to the LRU cache. All
// three use GeckoFTL's garbage-collection scheme, as in the paper. The
// experiment uses a device with enough blocks that the PVB dwarfs the
// baseline cache, which is what makes the trade-off interesting at full
// scale (64 MB of PVB versus a 4 MB cache).
func Figure14(scale ExperimentScale) ([]Figure14Row, error) {
	scale.Device = DeviceSpec{
		Blocks:        scale.Device.Blocks * 2,
		PagesPerBlock: 32,
		PageSize:      scale.Device.PageSize,
		OverProvision: scale.Device.OverProvision,
	}
	cfg := scale.Device.Config()
	pvbBytes := int64(cfg.Blocks) * int64((cfg.PagesPerBlock+7)/8)
	pvbEntries := int(pvbBytes / 8)
	baseCache := pvbEntries / 4
	if baseCache < 32 {
		baseCache = 32
	}
	bigCache := baseCache + pvbEntries

	// Same garbage-collection scheme for all three (Section 5.4).
	sameGC := func(o *ftl.Options) { o.VictimPolicy = ftl.VictimMetadataAware }
	var rows []Figure14Row
	for _, c := range []struct {
		kind  model.FTLKind
		cache int
	}{{model.DFTL, baseCache}, {model.MuFTL, bigCache}, {model.GeckoFTL, bigCache}} {
		scale.CacheEntries = c.cache
		res, err := MeasureFTL(scale, c.kind, sameGC)
		if err != nil {
			return nil, fmt.Errorf("sim: figure 14 (%s): %w", c.kind, err)
		}
		rows = append(rows, Figure14Row{Result: res, CacheEntries: c.cache})
	}
	return rows, nil
}

// RecoveryResult is the measured (simulated) recovery cost of one FTL,
// complementing the analytical Figure 13 middle with an executable check.
type RecoveryResult struct {
	Name                    string
	Duration                time.Duration
	SpareReads              int64
	PageReads               int64
	PageWrites              int64
	RecoveredMappingEntries int
	UsedBattery             bool
}

// RecoverySimulation warms each FTL on one plane as the sweeps do, crashes it
// and measures its recovery.
func RecoverySimulation(scale ExperimentScale) ([]RecoveryResult, error) {
	var out []RecoveryResult
	for _, kind := range model.Kinds() {
		run, err := newEngineRun(runSpec{scale: scale, channels: 1, kind: kind, batchPerDie: 1})
		if err != nil {
			return nil, err
		}
		if _, err := run.warm(); err != nil {
			return nil, fmt.Errorf("sim: recovery workload (%s): %w", kind, err)
		}
		report, err := run.crash()
		if err != nil {
			return nil, fmt.Errorf("sim: recovery (%s): %w", kind, err)
		}
		out = append(out, RecoveryResult{
			Name:                    kind.String(),
			Duration:                report.WallClock,
			SpareReads:              report.SpareReads,
			PageReads:               report.PageReads,
			PageWrites:              report.PageWrites,
			RecoveredMappingEntries: report.RecoveredMappingEntries,
			UsedBattery:             report.UsedBattery,
		})
	}
	return out, nil
}

// HeadlineSummary evaluates the paper's three headline claims: the reduction
// in page-validity RAM, the reduction in recovery time, and the reduction in
// the write-amplification contributed by page-validity metadata relative to a
// flash-resident PVB.
type HeadlineSummary struct {
	RAMReduction        float64
	RecoveryReduction   float64
	ValidityWAReduction float64
}

// Headlines computes the summary: the RAM and recovery reductions come from
// the analytical models at full 2 TB scale, the write-amplification reduction
// from the isolated simulation at the given scale.
func Headlines(scale ExperimentScale) (HeadlineSummary, error) {
	p := model.Default()
	out := HeadlineSummary{
		RAMReduction:      model.RAMReductionVsPVB(model.GeckoFTL, p),
		RecoveryReduction: model.RecoveryReductionVsLazyFTL(model.GeckoFTL, p),
	}
	gecko, err := RunIsolated(scale.isolated(GeckoScheme(2, 0)))
	if err != nil {
		return out, err
	}
	pvbRes, err := RunIsolated(scale.isolated(FlashPVBScheme()))
	if err != nil {
		return out, err
	}
	if pvbRes.WA > 0 {
		out.ValidityWAReduction = 1 - gecko.WA/pvbRes.WA
	}
	return out, nil
}
