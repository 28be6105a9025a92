package model

import (
	"testing"
	"time"
)

func TestDefaultParametersMatchPaperFigure2(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("default parameters invalid: %v", err)
	}
	if bytes := p.PhysicalPages() * p.PageSize; bytes != 2<<40 {
		t.Errorf("capacity = %d, want 2 TiB", bytes)
	}
	// Translation table: ~1.4 GB for the 2 TB device (Section 2).
	tt := p.TranslationTableBytes()
	if tt < 1400<<20 || tt > 1600<<20 {
		t.Errorf("translation table = %d bytes, want about 1.4-1.5 GB", tt)
	}
	// GMD: ~1.4 MB (Section 2).
	gmd := p.GMDBytes()
	if gmd < 1300<<10 || gmd > 1600<<10 {
		t.Errorf("GMD = %d bytes, want about 1.4 MB", gmd)
	}
	// PVB: 64 MB (Section 2, "Scalability of PVB").
	if got := p.PVBBytes(); got != 64<<20 {
		t.Errorf("PVB = %d bytes, want 64 MB", got)
	}
	// LRU cache: 4 MB.
	if got := p.CacheBytes(); got != 4<<20 {
		t.Errorf("cache = %d bytes, want 4 MB", got)
	}
	// The PVB is roughly 45x larger than the GMD (Section 2).
	ratio := float64(p.PVBBytes()) / float64(p.GMDBytes())
	if ratio < 40 || ratio > 50 {
		t.Errorf("PVB/GMD ratio = %.1f, want about 45", ratio)
	}
}

func TestValidateRejectsBadParameters(t *testing.T) {
	cases := []func(*Parameters){
		func(p *Parameters) { p.Blocks = 0 },
		func(p *Parameters) { p.PagesPerBlock = 0 },
		func(p *Parameters) { p.PageSize = 0 },
		func(p *Parameters) { p.OverProvision = 0 },
		func(p *Parameters) { p.OverProvision = 1 },
		func(p *Parameters) { p.CacheEntries = 0 },
		func(p *Parameters) { p.BytesPerCacheEntry = 0 },
		func(p *Parameters) { p.DirtyFraction = -0.1 },
		func(p *Parameters) { p.GeckoSizeRatio = 1 },
	}
	for i, mutate := range cases {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWithCapacityScalesBlocks(t *testing.T) {
	p := Default().WithCapacity(128 << 30) // 128 GB
	if bytes := p.PhysicalPages() * p.PageSize; bytes != 128<<30 {
		t.Errorf("capacity = %d, want 128 GB", bytes)
	}
	if p.PagesPerBlock != Default().PagesPerBlock || p.PageSize != Default().PageSize {
		t.Error("WithCapacity changed geometry other than block count")
	}
}

func TestFTLKindNames(t *testing.T) {
	want := map[FTLKind]string{GeckoFTL: "GeckoFTL", DFTL: "DFTL", LazyFTL: "LazyFTL", MuFTL: "uFTL", IBFTL: "IB-FTL"}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), name)
		}
	}
	if FTLKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
	if len(Kinds()) != 5 {
		t.Errorf("Kinds() returned %d FTLs", len(Kinds()))
	}
}

func TestRAMBreakdownFigure13Top(t *testing.T) {
	p := Default()
	byKind := map[FTLKind]RAMBreakdown{}
	for _, b := range RAMAll(p) {
		byKind[b.FTL] = b
	}
	// DFTL and LazyFTL carry the 64 MB PVB and therefore have the largest
	// footprints.
	if byKind[DFTL].PVB != p.PVBBytes() || byKind[LazyFTL].PVB != p.PVBBytes() {
		t.Error("PVB not charged to DFTL/LazyFTL")
	}
	for _, k := range []FTLKind{GeckoFTL, MuFTL, IBFTL} {
		if byKind[k].PVB != 0 {
			t.Errorf("%v charged a RAM-resident PVB", k)
		}
		if byKind[k].Total() >= byKind[DFTL].Total() {
			t.Errorf("%v total %d not below DFTL %d", k, byKind[k].Total(), byKind[DFTL].Total())
		}
	}
	// GeckoFTL and µ-FTL achieve the lowest footprints; IB-FTL sits in
	// between because of its chain heads (Section 5.3).
	if byKind[GeckoFTL].Total() >= byKind[IBFTL].Total() {
		t.Errorf("GeckoFTL %d not below IB-FTL %d", byKind[GeckoFTL].Total(), byKind[IBFTL].Total())
	}
	if byKind[MuFTL].Total() > byKind[GeckoFTL].Total() {
		t.Errorf("uFTL %d above GeckoFTL %d; the paper has uFTL slightly lower", byKind[MuFTL].Total(), byKind[GeckoFTL].Total())
	}
}

func TestHeadlineRAMReduction(t *testing.T) {
	// "a 95% reduction in space requirements" for page-validity metadata.
	p := Default()
	got := RAMReductionVsPVB(GeckoFTL, p)
	if got < 0.95 {
		t.Errorf("GeckoFTL page-validity RAM reduction vs PVB = %.3f, want >= 0.95", got)
	}
	// The whole-FTL reduction (excluding the cache, whose size is a free
	// parameter) is bounded by the BVC but still substantial.
	dftl := RAM(DFTL, p).Total() - p.CacheBytes()
	geckoFTL := RAM(GeckoFTL, p).Total() - p.CacheBytes()
	if whole := 1 - float64(geckoFTL)/float64(dftl); whole < 0.75 {
		t.Errorf("GeckoFTL whole-metadata RAM reduction = %.3f, want >= 0.75", whole)
	}
}

func TestRecoveryBreakdownFigure13Middle(t *testing.T) {
	p := Default()
	byKind := map[FTLKind]RecoveryBreakdown{}
	for _, b := range RecoveryAll(p) {
		byKind[b.FTL] = b
	}
	// Battery flags.
	if !byKind[DFTL].Battery || !byKind[MuFTL].Battery {
		t.Error("DFTL / uFTL not marked as battery-backed")
	}
	if byKind[GeckoFTL].Battery || byKind[LazyFTL].Battery || byKind[IBFTL].Battery {
		t.Error("battery flag set on a battery-less FTL")
	}
	// LazyFTL and IB-FTL pay the dirty-entry synchronization bottleneck;
	// GeckoFTL does not.
	if byKind[GeckoFTL].LRUCache >= byKind[LazyFTL].LRUCache {
		t.Errorf("GeckoFTL cache recovery %v not below LazyFTL %v", byKind[GeckoFTL].LRUCache, byKind[LazyFTL].LRUCache)
	}
	// LazyFTL also pays the PVB rebuild; GeckoFTL and µ-FTL do not.
	if byKind[LazyFTL].PVB == 0 {
		t.Error("LazyFTL PVB rebuild not charged")
	}
	if byKind[GeckoFTL].PVB != 0 || byKind[MuFTL].PVB != 0 {
		t.Error("PVB rebuild charged to a flash-resident-PVB FTL")
	}
	// Every battery-less FTL's recovery is dominated by structure scans and
	// stays positive.
	for _, k := range Kinds() {
		if byKind[k].Total() <= 0 {
			t.Errorf("%v total recovery time is zero", k)
		}
		if byKind[k].BlockScan <= 0 || byKind[k].GMD <= 0 {
			t.Errorf("%v missing the shared scan costs", k)
		}
	}
}

func TestHeadlineRecoveryReduction(t *testing.T) {
	// "at least a 51% reduction in recovery time" vs the LazyFTL baseline.
	p := Default()
	got := RecoveryReductionVsLazyFTL(GeckoFTL, p)
	if got < 0.51 {
		t.Errorf("GeckoFTL recovery reduction vs LazyFTL = %.3f, want >= 0.51", got)
	}
}

func TestFigure1TrendsWithCapacity(t *testing.T) {
	base := Default()
	capacities := []int64{64 << 30, 256 << 30, 1 << 40, 2 << 40, 4 << 40}
	points := Figure1(base, capacities)
	if len(points) != len(capacities) {
		t.Fatalf("Figure1 returned %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].RAMBytes <= points[i-1].RAMBytes {
			t.Errorf("RAM requirement not increasing with capacity: %v", points)
		}
		if points[i].Recovery <= points[i-1].Recovery {
			t.Errorf("recovery time not increasing with capacity: %v", points)
		}
	}
	// The introduction's calibration points: at 128 GB the RAM requirement
	// reaches ~4 MB (excluding the cache the introduction holds fixed); at
	// 2 TB recovery takes tens of seconds.
	p128 := base.WithCapacity(128 << 30)
	ramNoCache := RAM(LazyFTL, p128).Total() - p128.CacheBytes()
	if ramNoCache < 3<<20 || ramNoCache > 6<<20 {
		t.Errorf("128 GB metadata RAM = %d bytes, want about 4 MB", ramNoCache)
	}
	p2tb := base.WithCapacity(2 << 40)
	rec := Recovery(LazyFTL, p2tb).Total()
	if rec < 10*time.Second || rec > 120*time.Second {
		t.Errorf("2 TB LazyFTL recovery = %v, want tens of seconds", rec)
	}
}

func TestTable1Shape(t *testing.T) {
	rows := Table1(Default())
	if len(rows) != 3 {
		t.Fatalf("Table1 returned %d rows", len(rows))
	}
	ram, fpvb, lg := rows[0], rows[1], rows[2]
	if ram.UpdateReads != 0 || ram.UpdateWrites != 0 || ram.QueryReads != 0 {
		t.Error("RAM-resident PVB should have zero IO costs")
	}
	if fpvb.UpdateReads != 1 || fpvb.UpdateWrites != 1 || fpvb.QueryReads != 1 {
		t.Errorf("flash-resident PVB costs = %+v, want 1/1/1", fpvb)
	}
	if !(lg.UpdateWrites < fpvb.UpdateWrites) {
		t.Error("Logarithmic Gecko updates not cheaper than flash PVB")
	}
	if !(lg.QueryReads > fpvb.QueryReads) {
		t.Error("Logarithmic Gecko queries not more expensive than flash PVB (the trade-off)")
	}
	if !(ram.RAMBytes > 20*lg.RAMBytes) {
		t.Errorf("RAM PVB %d not far above Logarithmic Gecko %d", ram.RAMBytes, lg.RAMBytes)
	}
}

func TestRecoveryScalesWithCache(t *testing.T) {
	// LazyFTL's recovery bottleneck grows with the cache (dirty bound),
	// GeckoFTL's grows only through the cheap spare-area scan.
	small := Default()
	big := Default()
	big.CacheEntries *= 8
	lazyGrowth := Recovery(LazyFTL, big).LRUCache - Recovery(LazyFTL, small).LRUCache
	geckoGrowth := Recovery(GeckoFTL, big).LRUCache - Recovery(GeckoFTL, small).LRUCache
	if geckoGrowth >= lazyGrowth {
		t.Errorf("GeckoFTL cache-recovery growth %v not below LazyFTL %v", geckoGrowth, lazyGrowth)
	}
}

func TestEngineRecoveryScalesWithShards(t *testing.T) {
	p := Default()
	serial := Recovery(GeckoFTL, p).Total()
	one := EngineRecovery(GeckoFTL, p, 1)
	if one.WallClock != serial || one.SerialTime != serial {
		t.Errorf("1-shard engine recovery (%v wall, %v serial) != single-plane %v",
			one.WallClock, one.SerialTime, serial)
	}
	prev := one
	for _, shards := range []int{2, 4, 8, 16} {
		est := EngineRecovery(GeckoFTL, p, shards)
		if est.WallClock >= prev.WallClock {
			t.Errorf("%d shards: wall-clock %v not below %d shards' %v",
				shards, est.WallClock, prev.Shards, prev.WallClock)
		}
		// Dividing the device across shards never reduces total scan work by
		// more than the per-shard fixed costs; the serial time stays within a
		// factor of the single-plane total.
		if est.SerialTime > 2*serial || 2*est.SerialTime < serial {
			t.Errorf("%d shards: serial %v implausible vs single-plane %v", shards, est.SerialTime, serial)
		}
		if est.WallClock != est.PerShard.Total() {
			t.Errorf("%d shards: wall-clock %v != per-shard total %v", shards, est.WallClock, est.PerShard.Total())
		}
		prev = est
	}
	// The paper's ordering survives sharding: LazyFTL's synchronize-before-
	// resume recovery stays more expensive than GeckoFTL's bounded scan at
	// the same shard count.
	if g, l := EngineRecovery(GeckoFTL, p, 8), EngineRecovery(LazyFTL, p, 8); g.WallClock >= l.WallClock {
		t.Errorf("8-shard GeckoFTL recovery %v not below LazyFTL %v", g.WallClock, l.WallClock)
	}
}
