package ftl

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"time"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
	"geckoftl/internal/mapcache"
	"geckoftl/internal/model"
	"geckoftl/internal/pvb"
	"geckoftl/internal/pvl"
)

// ErrNoSpace classifies the errors that mean the FTL can no longer make
// space: no free block is left, or garbage collection finds no victim or
// stops converging. It is the end of a device's life, not a bug.
var ErrNoSpace = errors.New("ftl: out of space")

// validityStore is an FTL's page-validity store, the one New builds for it:
// Logarithmic Gecko, the RAM- or flash-resident PVB, or the IB-FTL page
// validity log. Every store implements all of it.
type validityStore interface {
	// Update reports the page at addr invalid.
	Update(addr flash.Addr) error
	// RecordErase reports the block erased: its pages are no longer invalid.
	RecordErase(block flash.BlockID) error
	// QueryInto overwrites dst, one bit per page of a block, with the
	// block's invalid pages. The caller owns dst; the store keeps no
	// reference to it.
	QueryInto(block flash.BlockID, dst *bitmap.Bitmap) error
	// RAMBytes is the store's integrated-RAM footprint.
	RAMBytes() int64
	// CrashRAM drops what the store keeps in integrated RAM, as a power
	// failure would.
	CrashRAM()
}

// flashStore is implemented by the stores whose pages live in flash:
// Logarithmic Gecko, the flash-resident PVB and the page validity log.
// Recovery counts their live pages into the BVC, and a greedy
// garbage-collector that picks one of their blocks relocates the live pages
// (GeckoFTL's metadata-aware policy never does; the latency sweep's greedy
// GeckoFTL rows do).
type flashStore interface {
	LivePages() []flash.PPN
	IsLive(ppn flash.PPN) bool
	Relocate(old, new flash.PPN) bool
}

// Stats counts the FTL's logical activity. IO counts live in the device
// counters, broken down by flash.Purpose.
type Stats struct {
	// LogicalWrites and LogicalReads count application operations served.
	LogicalWrites, LogicalReads int64
	// LogicalTrims counts host trim (discard) commands served, one per
	// logical page trimmed.
	LogicalTrims int64
	// TrimmedPages counts physical pages whose invalidation was attributed
	// to a host trim: eagerly at trim time when the before-image is known,
	// or at the later synchronization / garbage-collection step that
	// identifies it under GeckoFTL's lazy scheme. Trims of unmapped pages
	// invalidate nothing and are not counted here.
	TrimmedPages int64
	// GCOperations counts garbage-collection victim reclaims.
	GCOperations int64
	// GCMigrations counts valid pages migrated out of victims.
	GCMigrations int64
	// UIPSkips counts victim pages identified as unidentified-invalid just
	// before migration (Section 4.1) and therefore not migrated.
	UIPSkips int64
	// SyncOperations counts translation-page synchronizations.
	SyncOperations int64
	// Checkpoints counts runtime checkpoints taken (Section 4.3).
	Checkpoints int64
	// MetadataBlockErases counts translation/metadata blocks erased because
	// they became fully invalid (the Section 4.2 policy).
	MetadataBlockErases int64
	// ForcedSyncs counts synchronizations forced by the dirty-entry bound of
	// LazyFTL and IB-FTL.
	ForcedSyncs int64
	// GCFallbacks counts writes on which the incremental garbage collector
	// hit the free-block floor and fell back to an unbounded inline reclaim.
	// A healthy incremental configuration keeps this at zero.
	GCFallbacks int64
	// HotWrites and ColdWrites count how the heat classifier routed
	// application writes between the user write frontiers. Both stay zero
	// without Options.HotColdSeparation; their ratio is the observable
	// behind the wear sweep's separation results.
	HotWrites, ColdWrites int64
	// ProgramRetries counts page programs retried on the next frontier page
	// after the device reported a failed program pulse.
	ProgramRetries int64
	// BadBlocks is the number of blocks currently retired from allocation:
	// grown bad blocks (failed erases) plus worn-out blocks. A gauge rather
	// than a counter — recovery recomputes it from the device's bad-block
	// table, so it never double-counts across a crash.
	BadBlocks int64
	// ScrubOperations counts read-disturb scrubs: blocks relocated because
	// their read count since the last erase reached
	// Options.ScrubReadThreshold.
	ScrubOperations int64
}

// FTL is a page-associative flash translation layer instance: New builds the
// one Options.FTL names.
//
// FTL is not safe for concurrent use.
type FTL struct {
	opts Options
	// facts is opts.FTL's row of kindFacts; dirtyLimit is the number of dirty
	// cached entries its dirty bound allows (zero: unbounded).
	facts      facts
	dirtyLimit int

	dev   flash.Plane
	cfg   flash.Config
	bm    *blockManager
	table *translationTable
	cache *mapcache.Cache

	// validity is the page-validity store. The calls only Logarithmic Gecko
	// has (buffer flushes, directory recovery and checkpoints) assert
	// validity.(*gecko.Gecko) where they are made.
	validity validityStore
	wear     *wearLeveler
	// heat routes user writes to the hot or cold frontier when
	// Options.HotColdSeparation is on.
	heat *heatClassifier

	// onVictim, when set (OnVictim), observes every garbage-collection
	// victim at selection time; determinism tests record the sequence.
	onVictim func(flash.BlockID)

	logicalPages int64
	dirtyCount   int
	stats        Stats

	// gc is the incremental garbage-collection scheduler's RAM state (the
	// victim currently being drained), and collect the state a whole-victim
	// collection drains on; see gc.go. A power failure drops both like every
	// other RAM structure, all but their bitmaps.
	gc, collect gcState
	// opGCTime and opGCSteps account the garbage-collection work (migrations
	// and erases, by the device latency model) charged to the current or most
	// recent Write: the write's GC stall. The engine's latency
	// instrumentation reads them through LastWriteGCStall.
	opGCTime  time.Duration
	opGCSteps int

	// ckptFirst is maybeCheckpoint's scratch for checkpointSeeds, one mark
	// per translation page, allocated only for FTLs that take runtime
	// checkpoints. It is all zero between checkpoints.
	ckptFirst []int32

	// Scratch of synchronize, which is never re-entered, reused across calls.
	syncAll       []mapcache.Entry
	syncUpdates   []dirtyUpdate
	syncUncertain []flash.LPN
}

// New creates an FTL over the device with the given options.
func New(dev flash.Plane, opts Options) (*FTL, error) {
	cfg := dev.Config()
	if err := opts.validate(cfg); err != nil {
		return nil, err
	}
	facts := kindFacts[opts.FTL]
	bm := newBlockManager(dev, 0, opts.HotColdSeparation, opts.WearAwareAllocation) // reserve set below
	logicalPages := int64(cfg.LogicalPages())

	// burst is the most pages the store programs in one operation: a Gecko
	// merge cascade writes at most two largest runs, an IB-FTL cleaning pass
	// what it reinserts.
	var validity validityStore
	var burst int
	var err error
	store := &groupStore{bm: bm}
	switch opts.FTL {
	case model.GeckoFTL:
		gcfg := gecko.DefaultConfig(cfg.Blocks, cfg.PagesPerBlock, cfg.PageSize)
		gcfg.SizeRatio = opts.GeckoSizeRatio
		if opts.GeckoPartitionFactor > 0 {
			gcfg.PartitionFactor = opts.GeckoPartitionFactor
		}
		gcfg.MultiWayMerge = opts.GeckoMultiWayMerge
		validity, err = gecko.New(gcfg, store)
		burst = 2 * gcfg.LargestRunPages()
	case model.DFTL, model.LazyFTL:
		validity, err = pvb.NewRAMPVB(cfg.Blocks, cfg.PagesPerBlock)
	case model.MuFTL:
		validity, err = pvb.NewFlashPVB(cfg.Blocks, cfg.PagesPerBlock, cfg.PageSize, store)
	case model.IBFTL:
		var log *pvl.Log
		if log, err = pvl.New(pvl.Config{Blocks: cfg.Blocks, PagesPerBlock: cfg.PagesPerBlock, PageSize: cfg.PageSize}, store); err == nil {
			validity, burst = log, log.CleaningPages()
		}
	}
	if err != nil {
		return nil, err
	}
	_, keepPrevious := validity.(*gecko.Gecko)
	table := newTranslationTable(bm, logicalPages, cfg.PageSize, keepPrevious)
	cache := mapcache.New(opts.CacheEntries, table.EntriesPerPage())
	cache.Reserve(int(logicalPages))

	f := &FTL{
		opts:         opts,
		facts:        facts,
		dev:          dev,
		cfg:          cfg,
		bm:           bm,
		table:        table,
		cache:        cache,
		validity:     validity,
		wear:         newWearLeveler(opts.WearLeveling, opts.WearThreshold),
		heat:         newHeatClassifier(opts.HotColdSeparation, logicalPages),
		logicalPages: logicalPages,
		gc:           gcState{victim: flash.InvalidBlock},
		collect:      gcState{victim: flash.InvalidBlock},
	}
	if facts.checkpoints {
		f.ckptFirst = make([]int32, table.Pages())
	}
	if facts.dirtyBound {
		f.dirtyLimit = max(1, int(dirtyBoundFraction*float64(opts.CacheEntries)))
	}
	// The GC reserve holds what one operation can program before the next
	// GC check: a sync of every dirty entry the cache may hold, and a burst.
	sync := min(cmp.Or(f.dirtyLimit, opts.CacheEntries), table.Pages())
	if opts.FTL == model.MuFTL {
		// A PVB page per update: each synced page's predecessor, the user page.
		burst = sync + 1
	}
	if bm.gcReserve = max(4, (burst+sync+cfg.PagesPerBlock-1)/cfg.PagesPerBlock); bm.gcReserve >= cfg.Blocks/2 {
		return nil, fmt.Errorf("ftl: GC reserve of %d blocks too large for %d blocks", bm.gcReserve, cfg.Blocks)
	}
	return f, nil
}

// Name returns the FTL's display name.
func (f *FTL) Name() string { return f.opts.FTL.String() }

// Options returns the FTL's configuration.
func (f *FTL) Options() Options { return f.opts }

// Device returns the flash plane the FTL programs against: the whole device,
// or one partition of it when the FTL is a shard of an Engine.
func (f *FTL) Device() flash.Plane { return f.dev }

// Stats returns the FTL's logical operation counters. The fault-tolerance
// fields live in the block manager (which owns retirement and retry) and are
// overlaid here.
func (f *FTL) Stats() Stats {
	s := f.stats
	s.ProgramRetries = f.bm.ProgramRetries()
	s.BadBlocks = int64(f.bm.BadBlocks())
	return s
}

// LogicalPages returns the number of logical pages exposed to applications.
func (f *FTL) LogicalPages() int64 { return f.logicalPages }

// DirtyEntries returns the number of dirty mapping entries currently cached.
func (f *FTL) DirtyEntries() int { return f.dirtyCount }

// RAMBytes returns the integrated-RAM footprint of the FTL's data
// structures: the LRU cache (8 bytes per entry as in Section 5), the GMD, the
// BVC and block-manager state, the page-validity store, the wear-leveler's
// global statistics, and the heat classifier's per-page state.
func (f *FTL) RAMBytes() int64 {
	return f.cache.RAMBytes(8) + f.table.RAMBytes() + f.bm.RAMBytes() + f.validity.RAMBytes() +
		f.wear.RAMBytes() + f.heat.RAMBytes()
}

// OnVictim registers fn to observe every garbage-collection victim the FTL
// selects, in selection order. Tests use it to pin victim-sequence
// determinism; a nil fn removes the observer.
func (f *FTL) OnVictim(fn func(flash.BlockID)) { f.onVictim = fn }

// noteVictim reports a selected victim to the observer.
func (f *FTL) noteVictim(victim flash.BlockID) {
	if f.onVictim != nil {
		f.onVictim(victim)
	}
}

// Write serves an application update of a logical page (Section 4, "Serving
// Application Writes").
func (f *FTL) Write(lpn flash.LPN) error { return f.remap(lpn, false) }

// remap is the one body of Write and Trim: both point a logical page's cached
// mapping entry somewhere new — a freshly programmed page, or nowhere — and
// report the before-image invalid, at once when the cache knows it and lazily
// (GeckoFTL, Section 4.1) or by an eager translation-page read (the
// comparison FTLs) when it does not.
func (f *FTL) remap(lpn flash.LPN, trim bool) error {
	if lpn < 0 || int64(lpn) >= f.logicalPages {
		return fmt.Errorf("ftl: logical page %d out of range [0,%d): %w", lpn, f.logicalPages, flash.ErrOutOfRange)
	}
	// Fail fast after a power loss: RAM state left by an interrupted
	// operation is stale until PowerFail/Recover reset it, so no decision
	// (notably garbage-collection victim picking) may be based on it.
	if !f.dev.Powered() {
		return flash.ErrPowerFailed
	}
	lookup := flash.PurposeTranslation
	if trim {
		f.stats.LogicalTrims++
		lookup = flash.PurposeTrim
	} else {
		f.stats.LogicalWrites++
	}
	f.opGCTime, f.opGCSteps = 0, 0

	// Make room first so garbage-collection never runs out of destination
	// pages mid-operation: a trim allocates no user page, but the
	// synchronizations either operation can trigger (dirty eviction,
	// checkpoint, dirty bound) allocate translation pages. Under
	// GCIncremental this performs at most GCPagesPerWrite bounded steps; under
	// GCInline it reclaims whole victims until the free pool is above the
	// reserve.
	if err := f.garbageCollect(); err != nil {
		return err
	}

	cached, isCached := f.cache.Peek(lpn)
	if trim && isCached && cached.Physical == flash.InvalidPPN {
		// Already unmapped (trimmed or never written): nothing to drop. The
		// entry keeps its flags — a pending UIP identification from an
		// earlier trim must still run at its next synchronization.
		f.cache.Put(cached)
		return nil
	}

	// The before-image is known from the cache or, for FTLs without lazy
	// invalid-page identification, costs a translation page read on a miss
	// (the DFTL demand-paging behaviour). GeckoFTL defers identifying it: the
	// UIP flag records that an unidentified invalid page may exist (Section
	// 4.1), and Trimmed attributes its eventual report to the trim.
	entry := mapcache.Entry{Logical: lpn, Physical: flash.InvalidPPN, Dirty: true}
	prev := flash.InvalidPPN
	_, lazy := f.validity.(*gecko.Gecko)
	var err error
	switch {
	case isCached:
		prev = cached.Physical
		entry.UIP = cached.UIP
		entry.Uncertain = cached.Uncertain
		entry.Trimmed = cached.Trimmed
	case lazy:
		entry.UIP = true
		entry.Trimmed = trim
	default:
		if prev, err = f.table.ReadEntry(lpn, lookup); err != nil {
			return err
		}
	}

	if !trim {
		// Write the new version of the page on the frontier its temperature
		// selects (the single user frontier without hot/cold separation).
		temp := f.heat.classify(int64(lpn))
		if f.heat.enabled {
			if temp == TempHot {
				f.stats.HotWrites++
			} else {
				f.stats.ColdWrites++
			}
		}
		entry.Physical, err = f.bm.AllocateUserPage(temp, flash.SpareArea{Logical: lpn}, flash.PurposeUserWrite)
		if err != nil {
			return err
		}
	}

	// A known before-image is reported invalid immediately (Section 4.1,
	// "Application Writes"); a trim's also counts toward the trim statistics.
	if prev != flash.InvalidPPN && prev != entry.Physical {
		if trim {
			err = f.reportTrimmed(prev)
		} else {
			err = f.reportInvalid(prev)
		}
		if err != nil {
			return err
		}
		if isCached {
			f.dropIdentifiedUIP(cached, &entry)
		}
	}
	if !isCached || !cached.Dirty {
		f.dirtyCount++
	}

	if err := f.putCacheEntry(entry); err != nil {
		return err
	}
	if err := f.maybeCheckpoint(); err != nil {
		return err
	}
	if err := f.enforceDirtyBound(); err != nil {
		return err
	}
	if trim {
		return nil
	}
	return f.wearLevelIfNeeded()
}

// Read serves an application read of a logical page (Section 4, "Serving
// Application Reads").
func (f *FTL) Read(lpn flash.LPN) error {
	if lpn < 0 || int64(lpn) >= f.logicalPages {
		return fmt.Errorf("ftl: logical page %d out of range [0,%d): %w", lpn, f.logicalPages, flash.ErrOutOfRange)
	}
	if !f.dev.Powered() {
		return flash.ErrPowerFailed
	}
	f.stats.LogicalReads++

	entry, ok := f.cache.Lookup(lpn)
	if !ok {
		ppn, err := f.table.ReadEntry(lpn, flash.PurposeTranslation)
		if err != nil {
			return err
		}
		entry = mapcache.Entry{Logical: lpn, Physical: ppn}
		if err := f.putCacheEntry(entry); err != nil {
			return err
		}
	}
	if entry.Physical == flash.InvalidPPN {
		// Reading a never-written logical page returns zeroes without IO.
		return nil
	}
	if err := f.dev.ReadPage(entry.Physical, flash.PurposeUserRead); err != nil {
		return err
	}
	return f.maybeScrub(entry.Physical)
}

// maybeScrub relocates the block the page just read lives on when the block
// has absorbed ScrubReadThreshold page reads since its last erase, so that
// read-disturbed payloads are rewritten before they decay. The relocation is
// an ordinary collection (live pages migrate, the block is erased and
// re-enters the free pool), so validity bookkeeping and wear accounting need
// no special casing.
func (f *FTL) maybeScrub(ppn flash.PPN) error {
	if f.opts.ScrubReadThreshold <= 0 {
		return nil
	}
	block := flash.Decompose(ppn, f.cfg.PagesPerBlock).Block
	reads, err := f.dev.ReadCount(block)
	if err != nil {
		return err
	}
	if reads < f.opts.ScrubReadThreshold {
		return nil
	}
	// The same re-validation as wear recycling (wearLevelIfNeeded): only a
	// full, allocated, non-active user block that is neither protected nor
	// the incremental collector's in-flight victim may be collected out of
	// band. Active frontiers shed their read count when they fill, go
	// static, and a later read trips the threshold again.
	info := &f.bm.blocks[block]
	if !info.allocated || info.group != GroupUser ||
		info.writePointer < f.cfg.PagesPerBlock || f.bm.isActive(block) ||
		f.table.ProtectedBlocks()[block] || block == f.gc.victim {
		return nil
	}
	// Like a wear recycle, a scrub is this subsystem's own cost, not
	// garbage-collection scheduling: exclude its charges from the per-write
	// GC-stall metric (the read's overall latency still includes them).
	gcTimeBefore := f.opGCTime
	if err := f.collectBlock(block); err != nil {
		return err
	}
	f.opGCTime = gcTimeBefore
	f.stats.ScrubOperations++
	return nil
}

// dropIdentifiedUIP clears the UIP (and Trimmed) flag carried from cached
// into the successor entry when the before-image just reported — the cached
// physical location — is also the flash-resident translation entry. A
// carried UIP flag means a second, flash-resident before-image still awaits
// identification; for entries recreated by the recovery backwards scan the
// two coincide (the scan recovers the durably-mapped version), so the
// identification is already done: carrying UIP forward would report the same
// page again at the next synchronization and underflow the BVC (the C.3.2
// spare check cannot object — the page keeps naming this LPN until its
// block is erased). During normal operation a UIP entry always has
// Physical != FlashEntry (the table lags the cache until the entry syncs,
// which clears UIP), so this never fires there. The write and trim overwrite
// paths both call it right after reporting cached.Physical.
func (f *FTL) dropIdentifiedUIP(cached mapcache.Entry, entry *mapcache.Entry) {
	if cached.UIP && cached.Physical == f.table.FlashEntry(cached.Logical) {
		entry.UIP = false
		entry.Trimmed = false
	}
}

// reportInvalid tells the page-validity store that a physical page holds
// stale data and updates the BVC.
func (f *FTL) reportInvalid(ppn flash.PPN) error {
	addr := flash.Decompose(ppn, f.cfg.PagesPerBlock)
	if err := f.validity.Update(addr); err != nil {
		return err
	}
	if err := f.bm.InvalidatePage(ppn); err != nil {
		return err
	}
	if g, ok := f.validity.(*gecko.Gecko); ok && g.BufferLen() == 0 {
		// The Gecko buffer just flushed: the protected previous versions of
		// translation pages are no longer needed for buffer recovery. Only
		// this report checks: synchronize's update of an old translation
		// page can flush the buffer too, and recovery's replay clears once at
		// its end; checking after either would move recorded results.
		f.table.ClearProtected(true)
	}
	return nil
}

// putCacheEntry inserts a mapping entry, running a synchronization operation
// when a dirty entry is evicted.
func (f *FTL) putCacheEntry(e mapcache.Entry) error {
	evicted := f.cache.Put(e)
	if !evicted.Valid || !evicted.Entry.Dirty {
		return nil
	}
	// The evicted entry leaves the cache, so it no longer counts against the
	// dirty bound; the synchronization below writes it back.
	f.dirtyCount--
	return f.synchronize(evicted.Entry)
}

// synchronize runs a synchronization operation for the translation page of
// the given (evicted or checkpoint-selected) dirty entry: all dirty cached
// entries on the same translation page are written back together, and their
// before-images are reported to the page-validity store (Section 4.1).
func (f *FTL) synchronize(seed mapcache.Entry) error {
	tp := f.cache.TranslationPageOf(seed.Logical)
	dirty := f.cache.DirtyEntriesOnTranslationPage(tp)

	// The dirty entries arrive in ascending logical order. The seed entry may
	// already have been evicted from the cache; put it at its place among
	// them. When it is still cached it is one of them.
	all, placed := f.syncAll[:0], false
	for _, e := range dirty {
		if !placed && e.Logical >= seed.Logical {
			placed = true
			if e.Logical != seed.Logical {
				all = append(all, seed)
			}
		}
		all = append(all, e)
	}
	if !placed {
		all = append(all, seed)
	}
	f.syncAll = all

	f.syncUpdates, f.syncUncertain = f.syncUpdates[:0], f.syncUncertain[:0]
	for _, e := range all {
		flashPPN := f.table.FlashEntry(e.Logical)
		if e.Uncertain {
			f.syncUncertain = append(f.syncUncertain, e.Logical)
			if flashPPN == e.Physical {
				// The entry was wrongly assumed dirty after recovery
				// (Appendix C.3.1): clear its flags and omit it.
				f.clearFlags(e.Logical)
				continue
			}
		}
		f.syncUpdates = append(f.syncUpdates, dirtyUpdate{Logical: e.Logical, Physical: e.Physical})
		// Lazy invalid-page identification (Section 4.1): if the entry's UIP
		// flag is set, its flash-resident before-image has not been reported
		// invalid yet; the synchronization is the moment to do so.
		needsReport := e.UIP && flashPPN != flash.InvalidPPN && flashPPN != e.Physical
		if needsReport && e.Uncertain {
			// Appendix C.3.2: after recovery the before-image may already
			// have been reported and even reused; verify via its spare area
			// that it still holds this logical page before reporting it.
			spare, written, err := f.dev.ReadSpare(flashPPN, flash.PurposeTranslation)
			if err != nil {
				return err
			}
			needsReport = written && spare.Logical == e.Logical
		}
		if needsReport {
			if e.Trimmed {
				// The pending identification was caused by a host trim
				// (GeckoFTL's lazy trim path): attribute it to the trim
				// counters on top of the regular report.
				if err := f.reportTrimmed(flashPPN); err != nil {
					return err
				}
			} else if err := f.reportInvalid(flashPPN); err != nil {
				return err
			}
		}
	}

	updates := f.syncUpdates
	oldTPLocation := f.table.GMDLocation(tp)
	if err := f.table.Synchronize(tp, updates); err != nil {
		return err
	}
	if len(updates) > 0 {
		f.stats.SyncOperations++
		// FTLs whose garbage-collector may target translation blocks (the
		// greedy policy of DFTL, LazyFTL, µ-FTL and IB-FTL) track the
		// validity of translation pages in their page-validity store, so the
		// superseded version must be reported invalid. The non-greedy
		// policies never garbage-collect metadata blocks and rely on the BVC
		// alone.
		if f.opts.VictimPolicy.MigratesMetadata() && oldTPLocation != flash.InvalidPPN {
			if err := f.validity.Update(flash.Decompose(oldTPLocation, f.cfg.PagesPerBlock)); err != nil {
				return err
			}
		}
	}

	// Mark the synchronized entries clean.
	for _, u := range updates {
		f.clearFlags(u.Logical)
	}
	for _, lpn := range f.syncUncertain {
		f.cache.Update(lpn, func(en *mapcache.Entry) { en.Uncertain = false })
	}
	return nil
}

// clearFlags marks a cached entry clean (dirty, UIP and uncertainty cleared)
// and maintains the dirty counter.
func (f *FTL) clearFlags(lpn flash.LPN) {
	f.cache.Update(lpn, func(en *mapcache.Entry) {
		if en.Dirty {
			f.dirtyCount--
		}
		en.Dirty = false
		en.UIP = false
		en.Uncertain = false
		en.Trimmed = false
	})
}

// maybeCheckpoint takes a runtime checkpoint when due (Section 4.3):
// every C cache operations, dirty entries that have lingered since the
// previous checkpoint are synchronized so that the recovery backwards scan
// never has to look further back than 2*C page writes. Each of their
// translation pages is synchronized once, in ascending page order, seeded
// with the page's first lingering entry in queue order.
func (f *FTL) maybeCheckpoint() error {
	if !f.facts.checkpoints || !f.cache.CheckpointDue() {
		return nil
	}
	f.stats.Checkpoints++
	for e := range checkpointSeeds(f.cache.Checkpoint(), f.ckptFirst, f.cache) {
		// Re-check dirtiness: an earlier synchronization in this loop may
		// have cleaned the entry.
		if cur, ok := f.cache.Peek(e.Logical); !ok || !cur.Dirty {
			continue
		}
		if err := f.synchronize(e); err != nil {
			return err
		}
	}
	return nil
}

// checkpointSeeds yields, in ascending translation-page order, the first
// entry of stale on each translation page it touches. It groups them without
// a sort: one pass records in first, per page, one more than the position of
// the page's first entry, and the walk over first in page order reads them
// back. first holds one mark per translation page of cache; it must be all
// zero when the walk starts, and it is all zero again when the walk ends,
// whether it ran out or the caller stopped it.
func checkpointSeeds(stale []mapcache.Entry, first []int32, cache *mapcache.Cache) iter.Seq[mapcache.Entry] {
	return func(yield func(mapcache.Entry) bool) {
		for i, e := range stale {
			if tp := cache.TranslationPageOf(e.Logical); first[tp] == 0 {
				first[tp] = int32(i + 1)
			}
		}
		for tp, at := range first {
			if at == 0 {
				continue
			}
			first[tp] = 0
			if !yield(stale[at-1]) {
				clear(first[tp:])
				return
			}
		}
	}
}

// enforceDirtyBound restricts the number of dirty cached entries for FTLs
// that bound it (LazyFTL, IB-FTL): while over the bound, the least recently
// used dirty entry's translation page is synchronized.
func (f *FTL) enforceDirtyBound() error {
	if f.dirtyLimit == 0 {
		return nil
	}
	for f.dirtyCount > f.dirtyLimit {
		victim, ok := f.cache.OldestDirty()
		if !ok {
			return nil
		}
		f.stats.ForcedSyncs++
		if err := f.synchronize(victim); err != nil {
			return err
		}
	}
	return nil
}

// garbageCollectIfNeeded reclaims blocks until the free pool is above the
// reserve. Under the non-greedy policies, fully-invalid translation and
// metadata blocks are erased first (they cost nothing but the erase, which is
// the whole point of Section 4.2); user blocks are reclaimed by migrating
// their live pages. Under the greedy policy a fully-invalid block is simply
// the best possible victim, so no separate pass is needed.
func (f *FTL) garbageCollectIfNeeded() error {
	iterations := 0
	for f.bm.NeedsGC() {
		// Live-lock guard: on a device too small (or too full of metadata)
		// for its over-provisioning, every victim is nearly fully valid and
		// collecting it frees no space. A healthy call reclaims within a few
		// iterations; 4K reclaims without reaching the reserve means churn
		// that will never converge, so fail instead of spinning forever.
		if iterations++; iterations > 4*f.cfg.Blocks {
			return fmt.Errorf("%w: garbage collection stalled after %d reclaims with %d free blocks (device or shard too small for its live data and metadata)",
				ErrNoSpace, iterations-1, f.bm.FreeBlocks())
		}
		if !f.opts.VictimPolicy.MigratesMetadata() {
			reclaimed, err := f.reclaimFullyInvalidMetadata()
			if err != nil {
				return err
			}
			if reclaimed && !f.bm.NeedsGC() {
				return nil
			}
		}
		victim, ok := f.bm.PickVictim(f.opts.VictimPolicy, f.table.ProtectedBlocks())
		if !ok {
			return fmt.Errorf("%w: garbage-collection found no victim with %d free blocks", ErrNoSpace, f.bm.FreeBlocks())
		}
		if err := f.collectBlock(victim); err != nil {
			return err
		}
	}
	return nil
}

// reclaimFullyInvalidMetadata erases translation and metadata blocks whose
// pages are all invalid (the Section 4.2 policy: hot metadata blocks are
// never migrated, the FTL waits for them to die of natural causes).
func (f *FTL) reclaimFullyInvalidMetadata() (bool, error) {
	reclaimed := false
	protected := f.table.ProtectedBlocks()
	for _, g := range []Group{GroupTranslation, GroupMeta} {
		for _, block := range f.bm.FullyInvalidBlocks(g) {
			if protected[block] {
				continue
			}
			if err := f.eraseDeadMetadataBlock(block); err != nil {
				return reclaimed, err
			}
			reclaimed = true
		}
	}
	return reclaimed, nil
}

// eraseDeadMetadataBlock erases one fully-invalid translation or metadata
// block and does the shared bookkeeping. Both the inline reclaim above and
// the incremental scheduler's bounded variant (gc.go) go through it, so the
// two GC modes account these erases identically.
func (f *FTL) eraseDeadMetadataBlock(block flash.BlockID) error {
	if err := f.bm.Erase(block, flash.PurposeGCErase); err != nil {
		return err
	}
	f.chargeGC(f.cfg.Latency.Erase)
	if err := f.validity.RecordErase(block); err != nil {
		return err
	}
	f.stats.MetadataBlockErases++
	return nil
}

// migrateMetaPage relocates the metadata page at the given offset of a victim
// if its owning structure reports it live, reporting whether any IO was
// issued.
func (f *FTL) migrateMetaPage(victim flash.BlockID, offset int) (bool, error) {
	relocator, _ := f.validity.(flashStore)
	ppn := flash.PPNOf(victim, offset, f.cfg.PagesPerBlock)
	if relocator == nil || !relocator.IsLive(ppn) {
		return false, nil
	}
	if err := f.dev.ReadPage(ppn, flash.PurposeGCMigration); err != nil {
		return true, err
	}
	spare, _, err := f.dev.ReadSpare(ppn, flash.PurposeGCMigration)
	if err != nil {
		return true, err
	}
	newPPN, err := f.bm.AllocatePage(GroupMeta, spare, flash.PurposeGCMigration)
	if err != nil {
		return true, err
	}
	relocator.Relocate(ppn, newPPN)
	f.stats.GCMigrations++
	f.chargeGC(f.cfg.Latency.PageRead + f.cfg.Latency.SpareRead + f.cfg.Latency.PageWrite)
	return true, nil
}

// migrateValidPage migrates one supposedly-valid page out of a victim block.
// It returns false when the page turned out to be an unidentified invalid
// page and was skipped (Section 4.1, "Garbage-Collection").
func (f *FTL) migrateValidPage(ppn flash.PPN, group Group) (bool, error) {
	spare, written, err := f.dev.ReadSpare(ppn, flash.PurposeGCMigration)
	if err != nil {
		return false, err
	}
	f.chargeGC(f.cfg.Latency.SpareRead)
	if !written {
		return false, nil
	}

	if group != GroupUser {
		// Migrating a translation or metadata page would require updating
		// the structures that point at it. Under the greedy policy the paper
		// ascribes to existing FTLs, such migrations are charged as a read
		// plus a write of the page and the directory entry is moved.
		return true, f.migrateMetadataPage(ppn, spare, group)
	}

	lpn := spare.Logical
	if lpn == flash.InvalidLPN {
		return false, nil
	}

	// Section 4.1: the page may be an unidentified invalid page. If the
	// cache maps this logical page elsewhere, page ppn is a stale
	// before-image and is not migrated — the cache is authoritative for the
	// newest location, which matters under incremental GC where application
	// writes interleave with the victim drain and outdate the invalid-page
	// snapshot taken at victim selection. When the stale entry carried the
	// UIP flag, the before-image is hereby identified and the flag cleared:
	// the page disappears with the victim's erase, so reporting it later
	// would wrongly invalidate whatever page is written at that address after
	// the block is reused.
	if cached, ok := f.cache.Peek(lpn); ok && cached.Physical != ppn {
		if cached.UIP {
			if cached.Trimmed {
				// The before-image a trim left unidentified is identified
				// here, at no cost beyond the spare read already charged: it
				// vanishes with the victim's erase.
				if err := f.dev.NoteTrim(ppn, flash.PurposeTrim); err != nil {
					return false, err
				}
				f.stats.TrimmedPages++
			}
			f.cache.Update(lpn, func(en *mapcache.Entry) { en.UIP = false; en.Trimmed = false })
		}
		return false, nil
	}
	// The flash-resident mapping may also already point elsewhere (the
	// invalidation was identified and reported, but BVC bookkeeping lags for
	// entries reported through a synchronization after this GC query).
	if f.table.FlashEntry(lpn) != ppn {
		if _, ok := f.cache.Peek(lpn); !ok {
			return false, nil
		}
	}

	if err := f.dev.ReadPage(ppn, flash.PurposeGCMigration); err != nil {
		return false, err
	}
	// Migrations always land on the cold frontier: a page that stayed valid
	// long enough to be migrated is cold by observation, and keeping
	// survivors out of hot blocks is half of what hot/cold separation buys.
	newPPN, err := f.bm.AllocatePage(GroupUser, flash.SpareArea{Logical: lpn}, flash.PurposeGCMigration)
	if err != nil {
		return false, err
	}
	f.chargeGC(f.cfg.Latency.PageRead + f.cfg.Latency.PageWrite)
	// Garbage-collection migrations are treated like application writes: a
	// dirty cached mapping entry is created for every migrated page.
	entry := mapcache.Entry{Logical: lpn, Physical: newPPN, Dirty: true}
	if cached, ok := f.cache.Peek(lpn); ok {
		entry.UIP = cached.UIP
		entry.Uncertain = cached.Uncertain
		entry.Trimmed = cached.Trimmed
		if !cached.Dirty {
			f.dirtyCount++
		}
	} else {
		f.dirtyCount++
	}
	if err := f.putCacheEntry(entry); err != nil {
		return false, err
	}
	return true, nil
}

// migrateMetadataPage relocates a live translation page during a greedy
// garbage-collection of a translation block. (Metadata pages of the
// page-validity store are never live under the stores' own management, so
// only translation pages reach this path.)
func (f *FTL) migrateMetadataPage(ppn flash.PPN, spare flash.SpareArea, group Group) error {
	if err := f.dev.ReadPage(ppn, flash.PurposeGCMigration); err != nil {
		return err
	}
	newPPN, err := f.bm.AllocatePage(group, spare, flash.PurposeGCMigration)
	if err != nil {
		return err
	}
	f.chargeGC(f.cfg.Latency.PageRead + f.cfg.Latency.PageWrite)
	if group == GroupTranslation {
		tp := int(spare.Tag)
		if tp >= 0 && tp < f.table.Pages() && f.table.GMDLocation(tp) == ppn {
			f.table.SetGMDLocation(tp, newPPN)
		}
	}
	return nil
}

// Flush forces all dirty state to flash: every dirty mapping entry is
// synchronized and, for GeckoFTL, the Gecko buffer is flushed. It is used by
// examples and tests that want a clean shutdown rather than a crash.
func (f *FTL) Flush() error {
	for {
		victim, ok := f.cache.OldestDirty()
		if !ok {
			break
		}
		if err := f.synchronize(victim); err != nil {
			return err
		}
	}
	// Only Logarithmic Gecko's buffer: IB-FTL's log keeps its partial page in
	// RAM, and flushing it here would add page writes to every IB-FTL run.
	if g, ok := f.validity.(*gecko.Gecko); ok {
		if err := g.Flush(); err != nil {
			return err
		}
		f.table.ClearProtected(false)
	}
	return nil
}
