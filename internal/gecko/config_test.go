package gecko

import (
	"testing"
	"testing/quick"
	"unsafe"

	"geckoftl/internal/flash"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(1<<16, 128, 4096)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.SizeRatio != 2 {
		t.Errorf("default T = %d, want 2", cfg.SizeRatio)
	}
	// With B = 128 and 4-byte keys the recommended partition factor is
	// 128/32 = 4, as in the paper's Section 3.3 example.
	if cfg.PartitionFactor != 4 {
		t.Errorf("default S = %d, want 4", cfg.PartitionFactor)
	}
	if cfg.String() == "" {
		t.Error("empty String")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultConfig(1024, 128, 4096)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero blocks", func(c *Config) { c.Blocks = 0 }},
		{"zero pages per block", func(c *Config) { c.PagesPerBlock = 0 }},
		{"zero page size", func(c *Config) { c.PageSize = 0 }},
		{"size ratio 1", func(c *Config) { c.SizeRatio = 1 }},
		{"zero partition factor", func(c *Config) { c.PartitionFactor = 0 }},
		{"partition factor above B", func(c *Config) { c.PartitionFactor = c.PagesPerBlock + 1 }},
		{"negative buffer limit", func(c *Config) { c.BufferLimit = -1 }},
		{"page too small for an entry", func(c *Config) { c.PageSize = 1; c.PartitionFactor = 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestSpareKeysCoverEveryAcceptedKey holds Validate to what a run page's
// spare area can encode: the largest key of the largest accepted
// configuration survives the spare round trip, and one more block or one more
// sub-key is refused rather than wrapped.
func TestSpareKeysCoverEveryAcceptedKey(t *testing.T) {
	largest := DefaultConfig(maxBlocks-1, 256, 4096)
	largest.PartitionFactor = maxPartitionFactor
	if err := largest.Validate(); err != nil {
		t.Fatalf("largest encodable config refused: %v", err)
	}
	lo := key{0, WholeBlock}
	hi := key{flash.BlockID(largest.Blocks - 1), int16(largest.PartitionFactor - 1)}
	got := decodeRunPageSpare(encodeRunPageSpare(7, 1, 2, lo, hi), 0)
	if got.minKey() != lo || got.maxKey() != hi {
		t.Errorf("spare keys %v..%v came back as %v..%v", lo, hi, got.minKey(), got.maxKey())
	}
	for name, mutate := range map[string]func(*Config){
		"one block too many":   func(c *Config) { c.Blocks++ },
		"one sub-key too many": func(c *Config) { c.PartitionFactor++ },
	} {
		cfg := largest
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: %v accepted", name, cfg)
		}
	}
}

// TestEntryWidth pins the host image of a Gecko entry at the paper's widths:
// a 4-byte block, a 2-byte sub-key and the erase flag.
func TestEntryWidth(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 8 {
		t.Errorf("a Gecko entry takes %d bytes, want 8", got)
	}
}

// TestScanRecordWidth holds the directory scan's record of a page to what
// the page's spare area carries (two packed words and the write sequence)
// plus its address: the scan slice lives as long as the Gecko does.
func TestScanRecordWidth(t *testing.T) {
	if got := unsafe.Sizeof(runPageMeta{}); got != 32 {
		t.Errorf("a scanned run page takes %d bytes, want 32", got)
	}
}

func TestEntrySizing(t *testing.T) {
	// Without partitioning: key 4 bytes + 3 header + B/8 bitmap bytes.
	cfg := DefaultConfig(1024, 128, 4096)
	cfg.PartitionFactor = 1
	if got, want := cfg.BitsPerEntry(), 128; got != want {
		t.Errorf("BitsPerEntry = %d, want %d", got, want)
	}
	if got, want := cfg.EntryBytes(), 4+3+16; got != want {
		t.Errorf("EntryBytes = %d, want %d", got, want)
	}
	if got, want := cfg.EntriesPerPage(), 4096/23; got != want {
		t.Errorf("EntriesPerPage = %d, want %d", got, want)
	}

	// With the recommended partitioning (S=4): chunks of 32 bits.
	cfg.PartitionFactor = 4
	if got, want := cfg.BitsPerEntry(), 32; got != want {
		t.Errorf("partitioned BitsPerEntry = %d, want %d", got, want)
	}
	if got, want := cfg.EntryBytes(), 4+3+4; got != want {
		t.Errorf("partitioned EntryBytes = %d, want %d", got, want)
	}
	// Partitioning increases V substantially.
	if cfg.EntriesPerPage() <= 4096/23 {
		t.Error("partitioning did not increase entries per page")
	}
}

func TestPartitioningMakesEntrySizeIndependentOfB(t *testing.T) {
	// The whole point of Section 3.3: with recommended S, the entry size
	// (and therefore V and the update cost) does not grow with B.
	sizes := map[int]bool{}
	for _, b := range []int{64, 128, 256, 512} {
		cfg := DefaultConfig(1024, b, 4096)
		sizes[cfg.EntryBytes()] = true
	}
	if len(sizes) != 1 {
		t.Errorf("entry sizes vary with B under recommended partitioning: %v", sizes)
	}
}

func TestLevels(t *testing.T) {
	cfg := DefaultConfig(1<<16, 128, 4096)
	cfg.PartitionFactor = 1
	v := cfg.EntriesPerPage()
	l := cfg.Levels()
	// L = ceil(log_T(K/V)); check the bound T^(L-1) < K/V <= T^L.
	ratio := float64(cfg.Blocks) / float64(v)
	lower, upper := 1.0, 1.0
	for i := 0; i < l-1; i++ {
		lower *= float64(cfg.SizeRatio)
	}
	for i := 0; i < l; i++ {
		upper *= float64(cfg.SizeRatio)
	}
	if !(lower < ratio && ratio <= upper) {
		t.Errorf("Levels = %d does not bracket K/V = %.1f (T^%d=%.0f, T^%d=%.0f)", l, ratio, l-1, lower, l, upper)
	}
	// A tiny device fits in a single level.
	small := DefaultConfig(4, 128, 4096)
	if small.Levels() != 1 {
		t.Errorf("tiny device Levels = %d, want 1", small.Levels())
	}
}

func TestLevelOfRunPages(t *testing.T) {
	cfg := DefaultConfig(1024, 128, 4096)
	cfg.SizeRatio = 2
	cases := []struct{ pages, level int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {7, 2}, {8, 3}, {1024, 10},
	}
	for _, c := range cases {
		if got := cfg.LevelOfRunPages(c.pages); got != c.level {
			t.Errorf("LevelOfRunPages(%d) = %d, want %d", c.pages, got, c.level)
		}
	}
	cfg.SizeRatio = 4
	if got := cfg.LevelOfRunPages(15); got != 1 {
		t.Errorf("T=4 LevelOfRunPages(15) = %d, want 1", got)
	}
	if got := cfg.LevelOfRunPages(16); got != 2 {
		t.Errorf("T=4 LevelOfRunPages(16) = %d, want 2", got)
	}
}

func TestLargestRunPages(t *testing.T) {
	cfg := DefaultConfig(1<<12, 128, 4096)
	// Every block's S sub-keys and its erase key.
	keys := cfg.Blocks * (cfg.PartitionFactor + 1)
	want := (keys + cfg.EntriesPerPage() - 1) / cfg.EntriesPerPage()
	if got := cfg.LargestRunPages(); got != want {
		t.Errorf("LargestRunPages = %d, want %d", got, want)
	}
}

// Property: LevelOfRunPages is consistent with the level bounds
// T^i <= pages < T^(i+1).
func TestQuickLevelBounds(t *testing.T) {
	f := func(pagesRaw uint16, tRaw uint8) bool {
		pages := int(pagesRaw)%4096 + 1
		ratio := int(tRaw)%8 + 2
		cfg := DefaultConfig(1024, 128, 4096)
		cfg.SizeRatio = ratio
		level := cfg.LevelOfRunPages(pages)
		lower := 1
		for i := 0; i < level; i++ {
			lower *= ratio
		}
		return pages >= lower && pages < lower*ratio
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnalyticalCostModel(t *testing.T) {
	cfg := DefaultConfig(1<<20, 128, 4096)
	m := cfg.AnalyticalCost()
	// Updates must be sub-constant: far cheaper than one flash write.
	if m.UpdateWrites >= 1 || m.UpdateWrites <= 0 {
		t.Errorf("amortized update writes = %v, want in (0,1)", m.UpdateWrites)
	}
	// Queries cost one read per level.
	if m.QueryReads != float64(cfg.Levels()) {
		t.Errorf("query reads = %v, want %d", m.QueryReads, cfg.Levels())
	}
	// Logarithmic Gecko must beat the flash PVB baseline on
	// write-amplification for the paper's default workload parameters
	// (GC queries ~100x rarer than updates, delta = 10).
	pvb := FlashPVBCost(1<<20, 128, 4096)
	gcPerWrite, delta := 0.01, 10.0
	if gWA, pWA := m.WriteAmplification(gcPerWrite, delta), pvb.WriteAmplification(gcPerWrite, delta); gWA >= pWA {
		t.Errorf("gecko WA %v not below flash-PVB WA %v", gWA, pWA)
	}
	// And the RAM-resident PVB needs orders of magnitude more RAM.
	ram := RAMPVBCost(1<<20, 128)
	if ram.RAMBytes <= 20*m.RAMBytes {
		t.Errorf("RAM PVB %d bytes not >> gecko %d bytes", ram.RAMBytes, m.RAMBytes)
	}
}

func TestWriteAmplificationDefaultsDelta(t *testing.T) {
	m := CostModel{UpdateReads: 1, UpdateWrites: 1}
	if got := m.WriteAmplification(0, 0); got != 2 {
		t.Errorf("WA with delta<=0 = %v, want reads counted at full cost (2)", got)
	}
}

func TestOptimalSizeRatioPrefersSmallTForWriteHeavyWorkloads(t *testing.T) {
	cfg := DefaultConfig(1<<22, 128, 4096)
	// The paper's regime: updates dominate GC queries, writes cost 10x
	// reads. The update cost T*log_T(N) is analytically minimized near
	// T = e, so the optimum must be 2 or 3, and write-amplification must
	// grow monotonically for the larger ratios Figure 9 sweeps.
	got := OptimalSizeRatio(cfg, 0.01, 10, 32)
	if got != 2 && got != 3 {
		t.Errorf("optimal T = %d, want 2 or 3", got)
	}
	was := make(map[int]float64)
	for _, ratio := range []int{2, 8, 32} {
		c := cfg
		c.SizeRatio = ratio
		was[ratio] = c.AnalyticalCost().WriteAmplification(0.01, 10)
	}
	if !(was[2] < was[8] && was[8] < was[32]) {
		t.Errorf("write-amplification not increasing in T: %v", was)
	}
	// In a hypothetical regime where GC queries vastly dominate, larger T
	// (fewer levels) must win.
	if got := OptimalSizeRatio(cfg, 100, 10, 32); got <= 3 {
		t.Errorf("optimal T for query-heavy regime = %d, want > 3", got)
	}
}

func TestAnalyticalRAMIsTinyComparedToPVB(t *testing.T) {
	// The headline claim: a 95% reduction in integrated RAM.
	blocks, b, p := 1<<22, 128, 4096
	gecko := DefaultConfig(blocks, b, p).AnalyticalRAMBytes()
	pvb := RAMPVBCost(blocks, b).RAMBytes
	reduction := 1 - float64(gecko)/float64(pvb)
	if reduction < 0.95 {
		t.Errorf("RAM reduction vs RAM-resident PVB = %.3f, want >= 0.95", reduction)
	}
}
