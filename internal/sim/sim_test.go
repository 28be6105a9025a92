package sim

import "testing"

func TestRunIsolatedValidation(t *testing.T) {
	if _, err := RunIsolated(IsolatedOptions{}); err == nil {
		t.Error("empty isolated options accepted")
	}
	if _, err := RunIsolated(IsolatedOptions{UserBlocks: 16, MetaBlocks: 8, PagesPerBlock: 8, PageSize: 256, Scheme: GeckoScheme(2, 0)}); err == nil {
		t.Error("zero measure writes accepted")
	}
}

func TestIsolatedGeckoBeatsFlashPVB(t *testing.T) {
	scale := QuickScale()
	run := func(s SchemeBuilder) IsolatedResult {
		res, err := RunIsolated(IsolatedOptions{
			UserBlocks:    scale.Device.Blocks,
			MetaBlocks:    scale.Device.Blocks / 2,
			PagesPerBlock: scale.Device.PagesPerBlock,
			PageSize:      scale.Device.PageSize,
			OverProvision: 0.7,
			Scheme:        s,
			MeasureWrites: scale.MeasureWrites,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gecko := run(GeckoScheme(2, 0))
	pvb := run(FlashPVBScheme())
	if gecko.WA >= pvb.WA {
		t.Errorf("gecko WA %.4f not below flash PVB %.4f", gecko.WA, pvb.WA)
	}
	// The flash PVB does roughly one write per update; Logarithmic Gecko
	// does a small fraction of that.
	if gecko.FlashWrites*5 > pvb.FlashWrites {
		t.Errorf("gecko writes %d not well below PVB writes %d", gecko.FlashWrites, pvb.FlashWrites)
	}
	if gecko.RAMBytes <= 0 || pvb.RAMBytes <= 0 {
		t.Error("missing RAM accounting")
	}
}

func TestFigure9Shape(t *testing.T) {
	rows, err := Figure9(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("figure 9 rows = %d, want 6", len(rows))
	}
	byName := map[string]Figure9Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	pvb := byName["flash-pvb"]
	for name, row := range byName {
		if name == "flash-pvb" {
			continue
		}
		if row.WA >= pvb.WA {
			t.Errorf("%s WA %.4f not below flash PVB %.4f", name, row.WA, pvb.WA)
		}
	}
	// T = 2 must be at least as good as T = 32 (the paper's conclusion that
	// small T minimizes write-amplification).
	if byName["gecko(T=2,S=4)"].WA > byName["gecko(T=32,S=4)"].WA {
		t.Errorf("T=2 WA %.4f above T=32 WA %.4f", byName["gecko(T=2,S=4)"].WA, byName["gecko(T=32,S=4)"].WA)
	}
}

func TestFigure10PartitioningFlattensBlockSizeDependence(t *testing.T) {
	rows, err := Figure10(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Collect WA by partitioning mode across block sizes.
	unpartitioned := map[int]float64{} // B -> WA for S=1
	recommended := map[int]float64{}   // B -> WA for recommended S
	for _, r := range rows {
		switch r.PartitionFactor {
		case 1:
			unpartitioned[r.BlockSize] = r.WA
		case -1:
			recommended[r.BlockSize] = r.WA
		}
	}
	// Without partitioning, WA at B=128 must clearly exceed WA at B=16.
	if !(unpartitioned[128] > unpartitioned[16]*1.5) {
		t.Errorf("unpartitioned WA does not grow with B: %v", unpartitioned)
	}
	// With the recommended partitioning the growth must be much smaller.
	growthUnpart := unpartitioned[128] / unpartitioned[16]
	growthRec := recommended[128] / recommended[16]
	if growthRec >= growthUnpart {
		t.Errorf("partitioning did not flatten block-size dependence: %.2fx vs %.2fx", growthRec, growthUnpart)
	}
}

func TestFigure11CapacityScaling(t *testing.T) {
	rows, err := Figure11(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("figure 11 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GeckoWA >= r.PVBWA {
			t.Errorf("K=%d: gecko WA %.4f not below PVB %.4f", r.Blocks, r.GeckoWA, r.PVBWA)
		}
	}
	// Gecko's WA grows (at most logarithmically) with K; the PVB's stays
	// roughly flat. Check the qualitative trend between the extremes.
	first, last := rows[0], rows[len(rows)-1]
	if last.GeckoWA < first.GeckoWA*0.8 {
		t.Errorf("gecko WA shrank with capacity: %v -> %v", first.GeckoWA, last.GeckoWA)
	}
	pvbGrowth := last.PVBWA / first.PVBWA
	if pvbGrowth > 1.3 || pvbGrowth < 0.7 {
		t.Errorf("PVB WA should be roughly capacity-independent, got growth %.2fx", pvbGrowth)
	}
}

func TestFigure12OverProvisioning(t *testing.T) {
	rows, err := Figure12(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("figure 12 rows = %d", len(rows))
	}
	// Less over-provisioning (higher R) means garbage-collection runs more
	// often, so GC queries per write increase monotonically overall.
	if rows[len(rows)-1].GCQueries <= rows[0].GCQueries {
		t.Errorf("GC queries did not increase with R: first=%d last=%d", rows[0].GCQueries, rows[len(rows)-1].GCQueries)
	}
	// Write-amplification stays low for any reasonable over-provisioning.
	for _, r := range rows {
		if r.WA > 0.6 {
			t.Errorf("R=%.1f: validity WA %.3f unexpectedly high", r.OverProvision, r.WA)
		}
	}
}

func TestFigure13WAOrdering(t *testing.T) {
	results, err := Figure13WA(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if len(byName) != 5 {
		t.Fatalf("figure 13 WA results = %d", len(byName))
	}
	// µ-FTL pays the most for page-validity metadata; GeckoFTL and the
	// RAM-PVB FTLs pay little (DFTL/LazyFTL pay nothing).
	if !(byName["uFTL"].ValidityWA > 5*byName["GeckoFTL"].ValidityWA) {
		t.Errorf("uFTL validity WA %.3f not well above GeckoFTL %.3f",
			byName["uFTL"].ValidityWA, byName["GeckoFTL"].ValidityWA)
	}
	if byName["DFTL"].ValidityWA != 0 {
		t.Errorf("DFTL validity WA = %v, want 0", byName["DFTL"].ValidityWA)
	}
	// GeckoFTL's overall WA is the lowest of the flash-resident-metadata
	// FTLs and no worse than the battery-backed DFTL by a wide margin.
	if byName["GeckoFTL"].WA >= byName["uFTL"].WA {
		t.Errorf("GeckoFTL WA %.3f not below uFTL %.3f", byName["GeckoFTL"].WA, byName["uFTL"].WA)
	}
	if byName["GeckoFTL"].WA >= byName["IB-FTL"].WA*1.5 {
		t.Errorf("GeckoFTL WA %.3f far above IB-FTL %.3f", byName["GeckoFTL"].WA, byName["IB-FTL"].WA)
	}
}

func TestFigure13AnalyticalParts(t *testing.T) {
	ram := Figure13RAM()
	rec := Figure13Recovery()
	if len(ram) != 5 || len(rec) != 5 {
		t.Fatalf("analytical breakdowns incomplete: %d RAM rows, %d recovery rows", len(ram), len(rec))
	}
	table := Table1()
	if len(table) != 3 {
		t.Fatalf("table 1 rows = %d", len(table))
	}
	fig1 := Figure1()
	if len(fig1) < 5 {
		t.Fatalf("figure 1 points = %d", len(fig1))
	}
}

func TestFigure14LargerCacheHelps(t *testing.T) {
	rows, err := Figure14(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure14Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// µ-FTL and GeckoFTL get the RAM freed by dropping the PVB as extra
	// cache.
	if byName["uFTL"].CacheEntries <= byName["DFTL"].CacheEntries {
		t.Error("uFTL did not receive a larger cache")
	}
	// With the larger cache, translation overhead drops for µ-FTL and
	// GeckoFTL relative to DFTL; GeckoFTL gets the best of both worlds: its
	// total WA is the lowest.
	if byName["GeckoFTL"].TranslationWA > byName["DFTL"].TranslationWA {
		t.Errorf("GeckoFTL translation WA %.3f above DFTL %.3f",
			byName["GeckoFTL"].TranslationWA, byName["DFTL"].TranslationWA)
	}
	if byName["GeckoFTL"].WA > byName["uFTL"].WA || byName["GeckoFTL"].WA > byName["DFTL"].WA {
		t.Errorf("GeckoFTL WA %.3f not the lowest (DFTL %.3f, uFTL %.3f)",
			byName["GeckoFTL"].WA, byName["DFTL"].WA, byName["uFTL"].WA)
	}
}

func TestRecoverySimulation(t *testing.T) {
	scale := QuickScale()
	scale.MeasureWrites = 3000
	results, err := RecoverySimulation(scale)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RecoveryResult{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if !byName["DFTL"].UsedBattery || byName["GeckoFTL"].UsedBattery {
		t.Error("battery flags wrong in recovery simulation")
	}
	// GeckoFTL's recovery must not write more pages than LazyFTL's, which
	// synchronizes its recovered entries before resuming.
	if byName["GeckoFTL"].PageWrites > byName["LazyFTL"].PageWrites {
		t.Errorf("GeckoFTL recovery writes %d above LazyFTL %d",
			byName["GeckoFTL"].PageWrites, byName["LazyFTL"].PageWrites)
	}
	for name, r := range byName {
		if r.Duration <= 0 {
			t.Errorf("%s recovery duration is zero", name)
		}
	}
}

func TestHeadlines(t *testing.T) {
	sum, err := Headlines(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if sum.RAMReduction < 0.95 {
		t.Errorf("RAM reduction = %.3f, want >= 0.95", sum.RAMReduction)
	}
	if sum.RecoveryReduction < 0.51 {
		t.Errorf("recovery reduction = %.3f, want >= 0.51", sum.RecoveryReduction)
	}
	if sum.ValidityWAReduction < 0.80 {
		t.Errorf("validity WA reduction = %.3f, want >= 0.80", sum.ValidityWAReduction)
	}
}

func TestScales(t *testing.T) {
	if QuickScale().MeasureWrites >= FullScale().MeasureWrites {
		t.Error("quick scale not smaller than full scale")
	}
	if err := FullScale().Device.Config().Validate(); err != nil {
		t.Errorf("full-scale device invalid: %v", err)
	}
	if _, err := DefaultDeviceSpec().NewDevice(); err != nil {
		t.Errorf("default device spec invalid: %v", err)
	}
}
