package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/mapcache"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// testFTL builds the given FTL over a small but realistic geometry: blocks
// of 16 pages of 512 bytes, 70% over-provisioning, strict sequential writes.
func testFTL(t *testing.T, kind model.FTLKind, blocks, cacheEntries int) *FTL {
	t.Helper()
	f, err := New(newTestDevice(t, blocks, 16, 512), OptionsFor(kind, cacheEntries))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runWorkload drives writes (and optionally reads) through the FTL.
func runWorkload(t *testing.T, f *FTL, gen workload.Generator, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		op := gen.Next()
		var err error
		if op.Kind == workload.OpRead {
			err = f.Read(op.Page)
		} else {
			err = f.Write(op.Page)
		}
		if err != nil {
			t.Fatalf("%s op %d (%v %d): %v", f.Name(), i, op.Kind, op.Page, err)
		}
	}
}

// queryValidity returns the block's invalid pages as f's page-validity store
// answers them.
func queryValidity(t *testing.T, f *FTL, block flash.BlockID) *bitmap.Bitmap {
	t.Helper()
	invalid := bitmap.New(f.cfg.PagesPerBlock)
	if err := f.validity.QueryInto(block, invalid); err != nil {
		t.Fatal(err)
	}
	return invalid
}

// checkConsistency verifies the FTL's end-state invariants after a Flush:
//
//  1. every logical page's flash-resident mapping points to a written page
//     whose spare area names that logical page;
//  2. no two logical pages map to the same physical page;
//  3. for every written page of every user block, the page-validity store
//     marks it invalid exactly when the translation table does not reference
//     it (no false invalidations of live data, no missed invalidations of
//     stale data).
//
// strictStale controls the missed-invalidation half of (3). Invalidations
// that were buffered in Logarithmic Gecko's RAM buffer when power failed and
// that were reported outside synchronization operations cannot all be
// reconstructed (Appendix C.2 recovers the synchronization-reported ones);
// the affected pages are benign space leakage that the UIP check prevents
// from ever being migrated, so post-recovery checks pass strictStale=false.
func checkConsistency(t *testing.T, f *FTL, strictStale bool) {
	t.Helper()
	if err := f.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	referenced := make(map[flash.PPN]flash.LPN)
	for lpn := flash.LPN(0); int64(lpn) < f.logicalPages; lpn++ {
		ppn := f.table.FlashEntry(lpn)
		if ppn == flash.InvalidPPN {
			continue
		}
		if prev, dup := referenced[ppn]; dup {
			t.Fatalf("physical page %d mapped by both %d and %d", ppn, prev, lpn)
		}
		referenced[ppn] = lpn
		spare, written, err := f.dev.ReadSpare(ppn, flash.PurposeRecovery)
		if err != nil || !written {
			t.Fatalf("mapping of %d points at unwritten page %d (err=%v)", lpn, ppn, err)
		}
		if spare.Logical != lpn {
			t.Fatalf("mapping of %d points at page %d holding logical %d", lpn, ppn, spare.Logical)
		}
	}

	for block := range f.bm.BlocksInGroup(GroupUser) {
		invalid := queryValidity(t, f, block)
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			_, isLive := referenced[ppn]
			if isLive && invalid.Get(offset) {
				t.Fatalf("%s: live page %d (block %d offset %d) marked invalid", f.Name(), ppn, block, offset)
			}
			if strictStale && !isLive && !invalid.Get(offset) {
				t.Fatalf("%s: stale page %d (block %d offset %d) not marked invalid", f.Name(), ppn, block, offset)
			}
		}
	}
}

func TestNewValidatesOptions(t *testing.T) {
	dev := newTestDevice(t, 32, 16, 512)
	if _, err := New(dev, Options{CacheEntries: 0}); err == nil {
		t.Error("zero cache capacity accepted")
	}
	if _, err := New(dev, Options{CacheEntries: 64, GeckoSizeRatio: 1}); err == nil {
		t.Error("gecko size ratio 1 accepted")
	}
	for _, kind := range []model.FTLKind{-1, model.FTLKind(len(model.Kinds()))} {
		if _, err := New(dev, Options{FTL: kind, CacheEntries: 64}); err == nil {
			t.Errorf("unknown FTL %v accepted", kind)
		}
	}
	f, err := New(dev, Options{CacheEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != model.GeckoFTL.String() {
		t.Errorf("default name = %q", f.Name())
	}
}

// TestSchemeAndConstructorNames pins that each of the five constructors
// builds the FTL it is named after, under the name the experiment rows print.
func TestSchemeAndConstructorNames(t *testing.T) {
	for kind, options := range map[model.FTLKind]func(int) Options{
		model.GeckoFTL: GeckoFTLOptions, model.DFTL: DFTLOptions, model.LazyFTL: LazyFTLOptions,
		model.MuFTL: MuFTLOptions, model.IBFTL: IBFTLOptions,
	} {
		f, err := New(newTestDevice(t, 64, 16, 512), options(128))
		if err != nil {
			t.Fatal(err)
		}
		if f.Name() != kind.String() {
			t.Errorf("constructor for %s produced name %q", kind, f.Name())
		}
	}
}

func TestWriteReadRejectOutOfRange(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	if err := f.Write(-1); err == nil {
		t.Error("negative LPN write accepted")
	}
	if err := f.Write(flash.LPN(f.LogicalPages())); err == nil {
		t.Error("out-of-range write accepted")
	}
	if err := f.Read(-1); err == nil {
		t.Error("negative LPN read accepted")
	}
	if err := f.Read(flash.LPN(f.LogicalPages())); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestReadOfNeverWrittenPageIsCheap(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	before := f.dev.Counters()
	if err := f.Read(10); err != nil {
		t.Fatal(err)
	}
	delta := f.dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposeUserRead) != 0 {
		t.Error("reading a never-written logical page read a user page")
	}
}

func TestWriteThenReadHitsNewVersion(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	if err := f.Write(42); err != nil {
		t.Fatal(err)
	}
	entry, ok := f.cache.Peek(42)
	if !ok || !entry.Dirty || entry.Physical == flash.InvalidPPN {
		t.Fatalf("cache entry after write = %+v, %v", entry, ok)
	}
	spare, written, err := f.dev.ReadSpare(entry.Physical, flash.PurposeRecovery)
	if err != nil || !written || spare.Logical != 42 {
		t.Fatalf("written page spare = %+v", spare)
	}
	before := f.dev.Counters()
	if err := f.Read(42); err != nil {
		t.Fatal(err)
	}
	delta := f.dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposeUserRead) != 1 {
		t.Errorf("read IO = %v, want one user-read", delta)
	}
	if delta.Count(flash.OpPageRead, flash.PurposeTranslation) != 0 {
		t.Error("cached read still read a translation page")
	}
	if f.Stats().LogicalWrites != 1 || f.Stats().LogicalReads != 1 {
		t.Errorf("stats = %+v", f.Stats())
	}
}

func TestReadMissFetchesTranslationPage(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 4) // tiny cache to force misses
	// Write several pages so their entries evict each other and are
	// synchronized to flash.
	for lpn := flash.LPN(0); lpn < 32; lpn++ {
		if err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read a page that is certainly not cached anymore: after the flush
	// every cached entry is clean, so dropping them all loses nothing.
	target := flash.LPN(0)
	f.cache.Clear()
	before := f.dev.Counters()
	if err := f.Read(target); err != nil {
		t.Fatal(err)
	}
	delta := f.dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposeTranslation) != 1 {
		t.Errorf("read miss translation reads = %d, want 1", delta.Count(flash.OpPageRead, flash.PurposeTranslation))
	}
}

func TestUIPLazyIdentification(t *testing.T) {
	// GeckoFTL: a write miss must not read the translation table; the
	// before-image is identified lazily at synchronization time.
	f := testFTL(t, model.GeckoFTL, 96, 256)
	// Establish a flash-resident mapping for page 7, then drop it from the
	// cache so the next write is a miss.
	if err := f.Write(7); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	oldPPN := f.table.FlashEntry(7)
	if oldPPN == flash.InvalidPPN {
		t.Fatal("setup: page 7 has no flash mapping")
	}
	f.cache.Clear() // clean after the flush

	before := f.dev.Counters()
	if err := f.Write(7); err != nil {
		t.Fatal(err)
	}
	delta := f.dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposeTranslation) != 0 {
		t.Error("GeckoFTL write miss read the translation table")
	}
	entry, _ := f.cache.Peek(7)
	if !entry.UIP || !entry.Dirty {
		t.Errorf("entry after write miss = %+v, want dirty+UIP", entry)
	}
	// The old physical page is not yet known to the validity store.
	invalid := queryValidity(t, f, flash.BlockOf(oldPPN, f.cfg.PagesPerBlock))
	if invalid.Get(flash.OffsetOf(oldPPN, f.cfg.PagesPerBlock)) {
		t.Error("before-image reported before synchronization")
	}
	// After a flush (which synchronizes), the before-image must be known.
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	invalid = queryValidity(t, f, flash.BlockOf(oldPPN, f.cfg.PagesPerBlock))
	if !invalid.Get(flash.OffsetOf(oldPPN, f.cfg.PagesPerBlock)) {
		t.Error("before-image not reported invalid after synchronization")
	}
	entry, _ = f.cache.Peek(7)
	if entry.UIP || entry.Dirty {
		t.Errorf("entry after flush = %+v, want clean", entry)
	}
}

func TestDFTLWriteMissReadsTranslationPage(t *testing.T) {
	f := testFTL(t, model.DFTL, 96, 256)
	if err := f.Write(7); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f.cache.Clear() // clean after the flush
	before := f.dev.Counters()
	if err := f.Write(7); err != nil {
		t.Fatal(err)
	}
	delta := f.dev.Counters().Sub(before)
	if delta.Count(flash.OpPageRead, flash.PurposeTranslation) != 1 {
		t.Errorf("DFTL write miss translation reads = %d, want 1",
			delta.Count(flash.OpPageRead, flash.PurposeTranslation))
	}
}

func TestSustainedWorkloadAllFTLs(t *testing.T) {
	// Enough writes to trigger garbage-collection several times over on a
	// 96-block device, for every FTL, with full end-state verification.
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 256)
			gen := workload.MustNewUniform(f.LogicalPages(), 1)
			runWorkload(t, f, gen, 8000)
			if f.Stats().GCOperations == 0 {
				t.Error("no garbage-collection despite sustained writes")
			}
			checkConsistency(t, f, true)
		})
	}
}

func TestSequentialAndSkewedWorkloads(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 256)
	seq, err := workload.NewSequential(f.LogicalPages())
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, f, seq, 5000)
	checkConsistency(t, f, true)

	f2 := testFTL(t, model.GeckoFTL, 96, 256)
	hotCold, err := workload.NewHotCold(f2.LogicalPages(), 0.2, 0.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	runWorkload(t, f2, hotCold, 5000)
	checkConsistency(t, f2, true)

	f3 := testFTL(t, model.GeckoFTL, 96, 256)
	runWorkload(t, f3, workload.MustNewMixed(workload.MustNewUniform(f3.LogicalPages(), 3), f3.LogicalPages(), 0.3, 4), 5000)
	checkConsistency(t, f3, true)
}

func TestGCReclaimsSpace(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	gen := workload.MustNewUniform(f.LogicalPages(), 2)
	runWorkload(t, f, gen, 6000)
	if f.bm.FreeBlocks() == 0 {
		t.Error("device ran out of free blocks")
	}
	st := f.Stats()
	if st.GCOperations == 0 || st.GCMigrations == 0 {
		t.Errorf("GC stats = %+v", st)
	}
	// The metadata-aware policy must never have migrated metadata, only
	// reclaimed fully-invalid metadata blocks.
	if st.MetadataBlockErases == 0 {
		t.Error("no metadata blocks reclaimed despite sustained writes")
	}
}

func TestDirtyBoundEnforced(t *testing.T) {
	f := testFTL(t, model.LazyFTL, 96, 200)
	limit := int(0.1 * 200)
	gen := workload.MustNewUniform(f.LogicalPages(), 3)
	for i := 0; i < 3000; i++ {
		if err := f.Write(gen.Next().Page); err != nil {
			t.Fatal(err)
		}
		if f.cache.DirtyCount() > limit {
			t.Fatalf("dirty entries %d exceed bound %d after write %d", f.cache.DirtyCount(), limit, i)
		}
	}
	if f.Stats().ForcedSyncs == 0 {
		t.Error("dirty bound never forced a synchronization")
	}
	// GeckoFTL has no such bound: its dirty count is allowed to grow to the
	// cache size.
	g := testFTL(t, model.GeckoFTL, 96, 200)
	for i := 0; i < 3000; i++ {
		if err := g.Write(gen.Next().Page); err != nil {
			t.Fatal(err)
		}
	}
	if g.Stats().ForcedSyncs != 0 {
		t.Error("GeckoFTL forced synchronizations despite unbounded dirty fraction")
	}
}

func TestCheckpointsHappenEveryCOperations(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 64)
	gen := workload.MustNewUniform(f.LogicalPages(), 5)
	runWorkload(t, f, gen, 1000)
	st := f.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoints taken")
	}
	// Roughly one checkpoint per C cache operations (GC migrations add
	// operations, so allow slack upward).
	if st.Checkpoints < 1000/64/2 {
		t.Errorf("checkpoints = %d, expected at least %d", st.Checkpoints, 1000/64/2)
	}
	// DFTL takes none.
	d := testFTL(t, model.DFTL, 96, 64)
	runWorkload(t, d, gen, 1000)
	if d.Stats().Checkpoints != 0 {
		t.Error("DFTL took checkpoints")
	}
}

func TestMetadataAwareGCNeverTargetsMetadata(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 64, 128)
	gen := workload.MustNewUniform(f.LogicalPages(), 6)
	runWorkload(t, f, gen, 6000)
	// All GC migrations must have come from user blocks: with the
	// metadata-aware policy, translation and metadata pages are never
	// migrated, so the only writes with purpose gc-migration target the user
	// group... which cannot be distinguished by purpose alone. Instead check
	// that no metadata or translation block was ever picked as a victim by
	// verifying the stats: every GC operation's victim was a user block iff
	// UIPSkips+GCMigrations only ever touched user pages. The simplest
	// observable guarantee: fully-invalid metadata reclaims happened, and the
	// number of erases equals GC operations plus metadata reclaims.
	st := f.Stats()
	if got := f.bm.erases; got != st.GCOperations+st.MetadataBlockErases {
		t.Errorf("erases = %d, GC ops %d + metadata reclaims %d", got, st.GCOperations, st.MetadataBlockErases)
	}
}

func TestWriteAmplificationOrdering(t *testing.T) {
	// The core claim of the paper's evaluation: GeckoFTL's page-validity
	// write-amplification is far below the flash-resident PVB's (µ-FTL), and
	// its overall write-amplification is lower as well. The RAM-resident PVB
	// (DFTL) pays nothing for page validity.
	const ops = 10000
	results := map[string]struct {
		total, validity float64
	}{}
	for _, kind := range []model.FTLKind{model.GeckoFTL, model.DFTL, model.MuFTL} {
		f := testFTL(t, kind, 128, 256)
		gen := workload.MustNewUniform(f.LogicalPages(), 9)
		// Warm up so that steady-state GC is included.
		runWorkloadB(f, gen, ops/2)
		warm := f.dev.Counters()
		runWorkloadB(f, gen, ops)
		c := f.dev.Counters().Sub(warm)
		delta := f.cfg.Latency.WriteReadRatio()
		results[kind.String()] = struct{ total, validity float64 }{
			total:    c.WriteAmplification(ops, delta),
			validity: c.PurposeWriteAmplification(flash.PurposePageValidity, ops, delta),
		}
	}
	if !(results["GeckoFTL"].validity < results["uFTL"].validity/5) {
		t.Errorf("GeckoFTL page-validity WA %v not well below uFTL %v",
			results["GeckoFTL"].validity, results["uFTL"].validity)
	}
	if !(results["GeckoFTL"].total < results["uFTL"].total) {
		t.Errorf("GeckoFTL total WA %v not below uFTL %v", results["GeckoFTL"].total, results["uFTL"].total)
	}
	if results["DFTL"].validity != 0 {
		t.Errorf("DFTL page-validity WA = %v, want 0 (RAM-resident PVB)", results["DFTL"].validity)
	}
}

// runWorkloadB is runWorkload without a *testing.T, for benchmarks and loops
// where failures should surface as panics.
func runWorkloadB(f *FTL, gen workload.Generator, ops int) {
	for i := 0; i < ops; i++ {
		op := gen.Next()
		var err error
		if op.Kind == workload.OpRead {
			err = f.Read(op.Page)
		} else {
			err = f.Write(op.Page)
		}
		if err != nil {
			panic(err)
		}
	}
}

func TestRAMFootprintOrdering(t *testing.T) {
	// DFTL and LazyFTL keep the PVB in RAM and must therefore need much
	// more integrated RAM than GeckoFTL and µ-FTL (Figure 13 top). Use the
	// paper's block size so the PVB dominates the Gecko buffer.
	ftls := map[string]*FTL{}
	for _, kind := range model.Kinds() {
		f, err := New(newTestDevice(t, 2048, 128, 4096), OptionsFor(kind, 128))
		if err != nil {
			t.Fatal(err)
		}
		ftls[kind.String()] = f
	}
	if !(ftls["GeckoFTL"].RAMBytes() < ftls["DFTL"].RAMBytes()) {
		t.Errorf("GeckoFTL RAM %d not below DFTL %d", ftls["GeckoFTL"].RAMBytes(), ftls["DFTL"].RAMBytes())
	}
	if !(ftls["uFTL"].RAMBytes() < ftls["LazyFTL"].RAMBytes()) {
		t.Errorf("uFTL RAM %d not below LazyFTL %d", ftls["uFTL"].RAMBytes(), ftls["LazyFTL"].RAMBytes())
	}
}

func TestFlushLeavesNothingDirty(t *testing.T) {
	f := testFTL(t, model.GeckoFTL, 96, 128)
	gen := workload.MustNewUniform(f.LogicalPages(), 11)
	runWorkload(t, f, gen, 2000)
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if f.cache.DirtyCount() != 0 {
		t.Errorf("dirty entries after flush = %d", f.cache.DirtyCount())
	}
	if e, ok := f.cache.OldestDirty(); ok {
		t.Errorf("cache reports %+v as its oldest dirty entry after flush", e)
	}
}

func TestStressRandomOperationsAcrossSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	for _, kind := range model.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			f := testFTL(t, kind, 96, 128)
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 12000; i++ {
				lpn := flash.LPN(rng.Int63n(f.LogicalPages()))
				var err error
				if rng.Intn(4) == 0 {
					err = f.Read(lpn)
				} else {
					err = f.Write(lpn)
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			checkConsistency(t, f, true)
		})
	}
}

// cachedPPN returns the physical page of lpn's cached mapping entry.
func cachedPPN(t *testing.T, f *FTL, lpn flash.LPN) flash.PPN {
	t.Helper()
	e, ok := f.cache.Peek(lpn)
	if !ok {
		t.Fatalf("logical page %d is not cached", lpn)
	}
	return e.Physical
}

// TestCheckConsistencyNamesEachViolation corrupts a healthy map three ways and
// requires CheckConsistency's message for each, word for word: the
// durability hammers tell the open bugs apart by these messages.
func TestCheckConsistencyNamesEachViolation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(f *FTL) string
	}{
		{"shared", func(f *FTL) string {
			p7 := cachedPPN(t, f, 7)
			f.cache.Put(mapcache.Entry{Logical: 9, Physical: p7, Dirty: true})
			return fmt.Sprintf("ftl: logical pages 7 and 9 both map to physical page %d", p7)
		}},
		{"unprogrammed", func(f *FTL) string {
			blank := flash.PPNOf(f.bm.free[0], 0, f.cfg.PagesPerBlock)
			f.cache.Put(mapcache.Entry{Logical: 3, Physical: blank, Dirty: true})
			return fmt.Sprintf("ftl: logical page 3 maps to unprogrammed physical page %d", blank)
		}},
		{"foreign", func(f *FTL) string {
			p5 := cachedPPN(t, f, 5)
			f.cache.Put(mapcache.Entry{Logical: 4, Physical: p5, Dirty: true})
			return fmt.Sprintf("ftl: physical page %d holds logical page 5, but the map says 4", p5)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := testFTL(t, model.GeckoFTL, 64, 64)
			for lpn := flash.LPN(0); lpn < 20; lpn++ {
				if err := f.Write(lpn); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			want := tc.corrupt(f)
			if err := f.CheckConsistency(); err == nil || err.Error() != want {
				t.Fatalf("CheckConsistency = %v, want %q", err, want)
			}
		})
	}
}
