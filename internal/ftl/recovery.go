package ftl

import (
	"fmt"
	"slices"
	"time"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
	"geckoftl/internal/mapcache"
	"geckoftl/internal/pvb"
	"geckoftl/internal/pvl"
)

// RecoveryReport summarizes a recovery run: what was rebuilt and how much IO
// and simulated time it took. Recovery time follows the device latency model
// over the IOs issued between PowerFail acknowledgement and the moment normal
// operation resumes.
type RecoveryReport struct {
	// Duration is the simulated time the recovery IOs took.
	Duration time.Duration
	// SpareReads, PageReads and PageWrites are the IOs attributed to
	// recovery.
	SpareReads, PageReads, PageWrites int64
	// RecoveredMappingEntries is the number of cached mapping entries
	// recreated by the backwards scan.
	RecoveredMappingEntries int
	// RecoveredDirty is the number of recreated entries that proved to be
	// genuinely dirty (synchronized immediately for bounded-dirty FTLs,
	// verified lazily for GeckoFTL).
	RecoveredDirty int
	// UsedBattery reports that dirty entries were persisted by the battery
	// at power-failure time instead of being recovered.
	UsedBattery bool
	// SynchronizedBeforeResume reports that recovered dirty entries were
	// synchronized with the translation table before normal operation
	// resumed (LazyFTL / IB-FTL behaviour); GeckoFTL defers this.
	SynchronizedBeforeResume bool
}

// PowerFail simulates an abrupt power failure. All RAM-resident state (the
// LRU cache, GMD, BVC, block-manager bookkeeping, run directories, the
// RAM-resident PVB, chain heads) is lost; flash contents survive. FTLs with a
// battery (DFTL, µ-FTL) synchronize their dirty mapping entries with the
// translation table before the device loses power, as the paper assumes.
func (f *FTL) PowerFail() error {
	if f.facts.battery {
		// The battery keeps the device alive just long enough to flush
		// dirty state; this IO happens before the failure, not during
		// recovery.
		if err := f.Flush(); err != nil {
			return err
		}
	}
	f.crash()
	return nil
}

// crash cuts the shard's power and drops every RAM-resident structure: what
// an abrupt power failure leaves behind. Besides PowerFail, the rollbacks of
// a failed checkpoint import or engine-wide recovery return shards to this
// state (without PowerFail's battery flush: those shards' RAM is being
// discarded, not saved).
func (f *FTL) crash() {
	f.dev.PowerFail()
	f.cache.Clear()
	f.crashGC()
	f.table.CrashRAM()
	f.bm.CrashRAM()
	f.heat.CrashRAM()
	f.validity.CrashRAM()
}

// Recover restores the FTL after a power failure, implementing GeckoRec
// (Appendix C) for GeckoFTL and the corresponding recovery procedures of the
// comparison FTLs. It returns a report of the work done.
func (f *FTL) Recover() (RecoveryReport, error) {
	if f.dev.Powered() {
		return RecoveryReport{}, fmt.Errorf("ftl: Recover called without a preceding PowerFail")
	}
	f.dev.PowerOn()

	startCounters := f.dev.Counters()
	startTime := f.dev.SimulatedTime()
	report := RecoveryReport{UsedBattery: f.facts.battery}

	// Step 1: rebuild the block information directory (block types, write
	// pointers, first-write timestamps) with one spare-area read per block,
	// plus a spare read per written page of each group's newest block to
	// locate the write pointers the FTL needs to resume appending. The BVC
	// is set conservatively (every written page counted valid) so that the
	// synchronizations performed later in recovery cannot underflow it; the
	// accurate rebuild happens at the end.
	if err := f.recoverBlockManager(); err != nil {
		return RecoveryReport{}, err
	}

	// Step 2: recover the GMD by scanning the spare areas of all translation
	// pages and keeping the newest version of each. The content sequences of
	// the recovered versions are kept: the backwards scan of step 6 uses
	// them to recognize user pages whose invalidation (by a synchronized
	// overwrite or trim) is already durable.
	tpContentSeq, err := f.recoverGMD()
	if err != nil {
		return RecoveryReport{}, err
	}

	// Steps 3 & 4: recover the flash-resident page-validity structures. The
	// flash-resident PVB needs nothing more (see pvb.FlashPVB.CrashRAM).
	switch store := f.validity.(type) {
	case *gecko.Gecko:
		if err := store.RecoverDirectories(); err != nil {
			return RecoveryReport{}, err
		}
		if err := f.recoverGeckoBuffer(store); err != nil {
			return RecoveryReport{}, err
		}
	case *pvl.Log:
		// IB-FTL must rebuild its RAM-resident chain heads by scanning the
		// whole log, whose size is proportional to device capacity.
		if err := f.rebuildPVLHeads(); err != nil {
			return RecoveryReport{}, err
		}
	}

	// Step 6: recover dirty cached mapping entries with the bounded
	// backwards scan (Section 4.3), unless a battery already synchronized
	// them before power ran out.
	if !f.facts.battery {
		recovered, err := f.recoverDirtyEntries(tpContentSeq)
		if err != nil {
			return RecoveryReport{}, err
		}
		report.RecoveredMappingEntries = recovered

		if _, ok := f.validity.(*gecko.Gecko); ok {
			// Step 7 (GeckoFTL): defer synchronization; the dirty and UIP
			// flags of the recreated entries are assumed true and corrected
			// lazily after normal operation resumes (Appendix C.3).
			report.RecoveredDirty = f.cache.DirtyCount()
		} else {
			// LazyFTL and IB-FTL synchronize the recovered entries with the
			// translation table before resuming, which is the recovery-time
			// bottleneck the paper points out.
			report.SynchronizedBeforeResume = true
			dirty, err := f.synchronizeRecoveredEntries()
			if err != nil {
				return RecoveryReport{}, err
			}
			report.RecoveredDirty = dirty
		}
	}

	// DFTL and LazyFTL rebuild the RAM-resident PVB by scanning the
	// translation table: every mapped physical page is valid, every other
	// written page is invalid. This runs after the recovered dirty entries
	// have been synchronized so that the table reflects the newest versions.
	if p, ok := f.validity.(*pvb.RAMPVB); ok {
		if err := f.rebuildRAMPVB(p); err != nil {
			return RecoveryReport{}, err
		}
	}

	// Step 5 (last so that it reflects all of the above): rebuild the Blocks
	// Validity Counter from the page-validity store, the translation table
	// and the metadata structures' live-page sets.
	if err := f.rebuildBVC(); err != nil {
		return RecoveryReport{}, err
	}

	delta := f.dev.Counters().Sub(startCounters)
	report.Duration = f.dev.SimulatedTime() - startTime
	report.SpareReads = delta.TotalOp(flash.OpSpareRead)
	report.PageReads = delta.TotalOp(flash.OpPageRead)
	report.PageWrites = delta.TotalOp(flash.OpPageWrite)
	return report, nil
}

// recoverBlockManager rebuilds block groups, write pointers, and timestamps
// (GeckoRec step 1). One spare read per block identifies its type and first
// write; the write pointer within partially written blocks is taken from the
// device's program state (the FTL would find it by probing for the first
// unreadable page, an O(log B) spare-read search we charge as part of the
// per-block scan).
func (f *FTL) recoverBlockManager() error {
	bm := f.bm
	bm.CrashRAM()
	for i := 0; i < f.cfg.Blocks; i++ {
		block := flash.BlockID(i)
		info := &bm.blocks[i]
		// The controller's bad-block table is device truth, survives power
		// failure, and is consulted before any spare read: retired blocks
		// hold no live data (they are only retired once drained) and never
		// re-enter the free pool.
		bad, err := f.dev.BadBlock(block)
		if err != nil {
			return err
		}
		if bad {
			info.retired = true
			info.allocated = false
			continue
		}
		first := flash.PPNOf(block, 0, f.cfg.PagesPerBlock)
		spare, written, err := f.dev.ReadSpare(first, flash.PurposeRecovery)
		if err != nil {
			return err
		}
		wp, err := f.dev.WritePointer(block)
		if err != nil {
			return err
		}
		if !written && wp == 0 {
			info.allocated = false
			bm.free = append(bm.free, block)
			continue
		}
		// A block whose first page reads as unprogrammed but whose write
		// pointer has advanced had its first program(s) consumed by failed
		// pulses: probe forward for the first readable spare and classify the
		// block from that instead (charged like the rest of the scan).
		for offset := 1; offset < wp && !written; offset++ {
			spare, written, err = f.dev.ReadSpare(flash.PPNOf(block, offset, f.cfg.PagesPerBlock), flash.PurposeRecovery)
			if err != nil {
				return err
			}
		}
		info.allocated = true
		info.writePointer = wp
		if !written {
			// Every programmed page of the block is bad. Nothing can map into
			// it, so its BVC entry is zero; garbage collection (or frontier
			// resumption, when partial) reclaims the block like any user block.
			info.group = GroupUser
			continue
		}
		info.firstWriteSeq = spare.WriteSeq
		// The block's true last-write sequence would need a spare read of its
		// newest page; the first-write sequence is a safe stand-in that only
		// makes recovered blocks look older to the cost-benefit policy.
		info.lastProgram = spare.WriteSeq
		bm.NoteWriteSeq(spare.WriteSeq)
		switch spare.BlockType {
		case flash.BlockTranslation:
			info.group = GroupTranslation
		case flash.BlockGecko:
			info.group = GroupMeta
		default:
			info.group = GroupUser
		}
		// Conservative BVC until the accurate rebuild at the end of
		// recovery: counting every written page valid can only delay
		// garbage-collection, never corrupt it.
		info.valid = wp
	}
	// Re-base the RAM mirror of every block's erase count from the device's
	// wear state (free blocks included — the next wear-aware allocation
	// decision must not start from zeroed counters). The device stamps erase
	// counts into spare areas, so a real FTL recovers them with the same
	// per-block scan already charged above.
	for i := 0; i < f.cfg.Blocks; i++ {
		ec, err := f.dev.EraseCount(flash.BlockID(i))
		if err != nil {
			return err
		}
		bm.blocks[i].eraseCount = ec
	}
	// The free list was rebuilt above and the erase counts it is keyed by
	// were just re-based: restore the wear-aware ordering invariant.
	bm.restoreFreeOrder()
	// The most recently written, partially full block of each group resumes
	// as that group's active block. The user group can leave up to two
	// partial blocks behind under hot/cold separation — one per frontier —
	// and both must resume as frontiers: a partial block that is not active
	// would never fill and therefore never become victim-eligible, leaking
	// its free pages forever. Temperature assignment is arbitrary (the heat
	// state died with the RAM); the newest resumes as the cold frontier.
	for fr := range bm.active {
		bm.active[fr] = flash.InvalidBlock
	}
	// newer orders partial blocks newest first-write first, ties to the
	// lower ID: a scan in ascending IDs replaces a block only on a strictly
	// newer one.
	newer := func(x, y flash.BlockID) bool {
		return y == flash.InvalidBlock || bm.blocks[x].firstWriteSeq > bm.blocks[y].firstWriteSeq
	}
	for g := Group(0); g < numGroups; g++ {
		newest := [2]flash.BlockID{flash.InvalidBlock, flash.InvalidBlock}
		for i := range bm.blocks {
			info := &bm.blocks[i]
			if !info.allocated || info.group != g || info.writePointer >= f.cfg.PagesPerBlock {
				continue
			}
			if b := flash.BlockID(i); newer(b, newest[0]) {
				newest[0], newest[1] = b, newest[0]
			} else if newer(b, newest[1]) {
				newest[1] = b
			}
		}
		if newest[0] != flash.InvalidBlock {
			bm.active[frontierFor(g, TempCold)] = newest[0]
		}
		if g == GroupUser && bm.hotCold && newest[1] != flash.InvalidBlock {
			bm.active[frontierUserHot] = newest[1]
		}
	}
	bm.reindexFullBlocks()
	return nil
}

// recoverGMD rebuilds the Global Mapping Directory (GeckoRec step 2) by
// scanning the spare areas of all pages in translation blocks and keeping the
// most recently written version of each translation page. It returns each
// recovered translation page's content sequence (the Aux stamp written by
// Synchronize and preserved across garbage-collection copies): the newest
// write sequence whose effect the durable mapping content is known to
// reflect. The dirty-entry scan uses it to date the durable mapping state —
// the page's own WriteSeq will not do, because a garbage-collection copy
// refreshes it without refreshing the content. The result is indexed by
// translation page; a page with no recovered version reads zero. It is the
// FTL's own storage (gmdSeqs), valid until the next recovery.
func (f *FTL) recoverGMD() ([]uint64, error) {
	f.table.CrashRAM()
	// newest holds the WriteSeq of each page's newest version so far: zero
	// until one is found, since written pages' WriteSeqs start at 1.
	pages := f.table.Pages()
	f.gmdSeqs = fill(f.gmdSeqs, 2*pages)
	clear(f.gmdSeqs)
	newest, contentSeq := f.gmdSeqs[:pages], f.gmdSeqs[pages:]
	for block := range f.bm.BlocksInGroup(GroupTranslation) {
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			spare, ok, err := f.dev.ReadSpare(ppn, flash.PurposeRecovery)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			f.bm.NoteWriteSeq(spare.WriteSeq)
			tp := int(spare.Tag)
			if tp < 0 || tp >= pages {
				continue
			}
			if spare.WriteSeq > newest[tp] {
				newest[tp] = spare.WriteSeq
				contentSeq[tp] = spare.Aux
				f.table.SetGMDLocation(tp, ppn)
			}
		}
	}
	return contentSeq, nil
}

// recoverGeckoBuffer rebuilds the content of Logarithmic Gecko's buffer that
// was lost at power failure (Appendix C.2): the addresses of blocks erased
// and pages invalidated since the last time the buffer was flushed.
func (f *FTL) recoverGeckoBuffer(g *gecko.Gecko) error {
	// C.2.1: blocks erased since the last buffer flush are the free blocks
	// and the blocks whose first page was written after the newest run was
	// created. The block scan of step 1 already identified them.
	newestRunSeq, err := g.NewestRunWriteSeq()
	if err != nil {
		return err
	}
	for i := range f.bm.blocks {
		info := &f.bm.blocks[i]
		if !info.allocated || (newestRunSeq > 0 && info.firstWriteSeq > newestRunSeq) {
			if err := g.RecordErase(flash.BlockID(i)); err != nil {
				return err
			}
		}
	}

	// C.2.2: pages invalidated since the last buffer flush are found by
	// comparing each translation page updated since then against its
	// preserved previous version. Every mapping that changed identifies a
	// candidate before-image; its spare area confirms whether it still holds
	// that logical page before it is re-reported as invalid.
	undo := f.table.UndoLog()
	for _, tp := range f.table.UpdatedSinceProtection() {
		start, prev, ok := f.table.PreviousVersion(tp)
		if !ok {
			continue
		}
		// Read the current and previous versions of the translation page
		// (the 2V page reads of Appendix C.2.2). The previous version lives
		// on a protected block that the garbage-collector was not allowed to
		// erase while the buffer held unflushed entries.
		if loc := f.table.GMDLocation(tp); loc != flash.InvalidPPN {
			if err := f.dev.ReadPage(loc, flash.PurposeRecovery); err != nil {
				return err
			}
		}
		if prev.location != flash.InvalidPPN {
			if err := f.dev.ReadPage(prev.location, flash.PurposeRecovery); err != nil {
				return err
			}
		}
		// The undo log is the two versions' difference, in logical-page
		// order; this page's part of it comes next.
		end := start + flash.LPN(f.table.EntriesPerPage())
		for ; len(undo) > 0 && undo[0].logical() < end; undo = undo[1:] {
			lpn, oldPPN := undo[0].logical(), undo[0].previous()
			if oldPPN == f.table.FlashEntry(lpn) {
				continue
			}
			spare, written, err := f.dev.ReadSpare(oldPPN, flash.PurposeRecovery)
			if err != nil {
				return err
			}
			if written && spare.Logical == lpn {
				if err := g.Update(flash.Decompose(oldPPN, f.cfg.PagesPerBlock)); err != nil {
					return err
				}
			}
		}
	}
	f.table.ClearProtected()
	return nil
}

// rebuildRAMPVB reconstructs the RAM-resident PVB by scanning the
// flash-resident translation table: the physical page each mapping points to
// is valid; every other written user page is invalid. The scan costs one page
// read per translation page, which is the LazyFTL recovery bottleneck the
// paper identifies.
func (f *FTL) rebuildRAMPVB(p *pvb.RAMPVB) error {
	// Read every live translation page.
	for tp := 0; tp < f.table.Pages(); tp++ {
		loc := f.table.GMDLocation(tp)
		if loc == flash.InvalidPPN {
			continue
		}
		if err := f.dev.ReadPage(loc, flash.PurposeRecovery); err != nil {
			return err
		}
	}
	// valid has a bit per physical page of the shard.
	valid := make([]uint64, (f.cfg.Blocks*f.cfg.PagesPerBlock+63)/64)
	for lpn := flash.LPN(0); int64(lpn) < f.logicalPages; lpn++ {
		if ppn := f.table.FlashEntry(lpn); ppn != flash.InvalidPPN {
			valid[ppn/64] |= 1 << uint(ppn%64)
		}
	}
	// Every written page of a user block that is not referenced by the
	// translation table is invalid.
	for block := range f.bm.BlocksInGroup(GroupUser) {
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			if valid[ppn/64]&(1<<uint(ppn%64)) == 0 {
				if err := p.Update(flash.Decompose(ppn, f.cfg.PagesPerBlock)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rebuildPVLHeads rebuilds IB-FTL's RAM-resident chain heads by scanning the
// entire page validity log, one page read per log page. It only charges the
// scan: the simulator keeps the heads (see pvl.Log.CrashRAM).
func (f *FTL) rebuildPVLHeads() error {
	for block := range f.bm.BlocksInGroup(GroupMeta) {
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			if err := f.dev.ReadPage(ppn, flash.PurposeRecovery); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuildBVC recreates the Blocks Validity Counter (GeckoRec step 5): for
// every block, the number of valid pages is the number of written pages
// minus the number of invalid ones according to the page-validity store.
// Logarithmic Gecko answers for every block with one scan of its runs; the
// other stores answer one GC query per block.
func (f *FTL) rebuildBVC() error {
	// A metadata block's valid pages are the live pages of the metadata
	// structures and the valid translation pages, those the recovered GMD
	// points to; the two sit in blocks of different groups. Each is counted
	// into its block's BVC entry.
	for i := range f.bm.blocks {
		if info := &f.bm.blocks[i]; info.allocated && info.group != GroupUser {
			info.valid = 0
		}
	}
	g, isGecko := f.validity.(*gecko.Gecko)
	if isGecko {
		// On the concrete type the iterator inlines and allocates nothing.
		for ppn := range g.LivePages() {
			f.bm.countLive(ppn)
		}
	} else if lister, ok := f.validity.(flashStore); ok {
		for ppn := range lister.LivePages() {
			f.bm.countLive(ppn)
		}
	}
	for tp := 0; tp < f.table.Pages(); tp++ {
		if loc := f.table.GMDLocation(tp); loc != flash.InvalidPPN {
			f.bm.countLive(loc)
		}
	}
	var geckoScan *bitmap.Rows
	var queried *bitmap.Bitmap // the other stores answer each block into it
	if isGecko {
		var err error
		if geckoScan, err = g.ScanValidity(); err != nil {
			return err
		}
	} else {
		queried = bitmap.New(f.cfg.PagesPerBlock)
	}
	for i := range f.bm.blocks {
		info := &f.bm.blocks[i]
		if info.allocated && info.group == GroupUser {
			var invalid int
			if isGecko {
				row := geckoScan.Row(i)
				invalid = row.PopCountBelow(info.writePointer)
			} else {
				if err := f.validity.QueryInto(flash.BlockID(i), queried); err != nil {
					return err
				}
				invalid = queried.PopCountBelow(info.writePointer)
			}
			info.valid = info.writePointer - invalid
		}
	}
	f.bm.reindexFullBlocks()
	if isGecko {
		f.reconcileRecoveredUIP(geckoScan)
	}
	return nil
}

// reconcileRecoveredUIP clears the UIP flag of backwards-scan-recovered
// mapping entries whose flash-resident before-image is already recorded
// invalid. The scan recreates every entry with UIP = true (Appendix C.3,
// "assumed dirty and UIP"), but the before-image that flag will identify —
// the durable translation-table entry — may have been reported before the
// crash and persisted in a Logarithmic Gecko run, or re-derived by the
// buffer replay of Appendix C.2.2. The C.3.2 spare-area check at the entry's
// first synchronization cannot catch this case: the page keeps naming the
// logical page until its block is erased, so the stale flag would report the
// same invalidation a second time and underflow the rebuilt BVC. Recovery is
// the one moment the FTL holds the complete validity picture (the bitmaps
// rebuildBVC just scanned) in RAM, so the reconciliation costs no IO.
func (f *FTL) reconcileRecoveredUIP(geckoScan *bitmap.Rows) {
	// Only cached entries can be stale: sized for all of them, the scratch
	// does not regrow when a later recovery finds more than an earlier one.
	stale := slices.Grow(f.stale[:0], f.cache.Len())
	f.cache.ForEach(func(e mapcache.Entry) bool {
		if !e.UIP || !e.Uncertain {
			return true
		}
		flashPPN := f.table.FlashEntry(e.Logical)
		if flashPPN == flash.InvalidPPN || flashPPN == e.Physical {
			// Nothing to identify, or the C.3.1 first-synchronization abort
			// already handles it.
			return true
		}
		row := geckoScan.Row(int(flash.BlockOf(flashPPN, f.cfg.PagesPerBlock)))
		if row.Get(flash.OffsetOf(flashPPN, f.cfg.PagesPerBlock)) {
			stale = append(stale, e.Logical)
		}
		return true
	})
	for _, lpn := range stale {
		f.cache.Update(lpn, func(en *mapcache.Entry) { en.UIP = false; en.Trimmed = false })
	}
	f.stale = stale
}

// recoverDirtyEntries performs the bounded backwards scan of Section 4.3: it
// walks user blocks from most recently written to least recently written,
// reading spare areas in reverse page order, and recreates a cached mapping
// entry for every new logical page encountered, until C entries exist or the
// 2C spare-read bound is reached. Recreated entries get dirty = true,
// UIP = true and the uncertainty marker of Appendix C.3.
//
// tpContentSeq dates the durable translation state: each translation page's
// content sequence as recovered by recoverGMD. Every synchronization of a
// translation page includes all of the page's dirty cached entries, so a
// candidate user page written no later than the content sequence, which the
// durable page does not map, is a stale before-image whose invalidation was
// already synchronized — by an overwrite (whose newer version the scan
// recovers separately) or by a trim, which leaves no newer user page at all.
// Such candidates are skipped: recreating a mapping entry for one would
// resurrect overwritten or trimmed data. (When the durable page still maps
// the candidate, the candidate is the current version; it is recovered as
// uncertain and Appendix C.3.1's first synchronization aborts it at no
// cost.)
//
// The scan starts from the empty cache a crash leaves and recreates at most
// its capacity of entries, so nothing is evicted: the cache itself says which
// logical pages the scan has already recovered.
func (f *FTL) recoverDirtyEntries(tpContentSeq []uint64) (int, error) {
	capacity := f.cache.Capacity()
	maxSpareReads := 2 * capacity
	spareReads := 0
	recovered := 0

	for _, block := range f.bm.userBlocksByRecency() {
		written := f.bm.WritePointer(block)
		for offset := written - 1; offset >= 0; offset-- {
			if recovered >= capacity || spareReads >= maxSpareReads {
				return recovered, nil
			}
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			spare, ok, err := f.dev.ReadSpare(ppn, flash.PurposeRecovery)
			if err != nil {
				return recovered, err
			}
			spareReads++
			if !ok {
				continue
			}
			f.bm.NoteWriteSeq(spare.WriteSeq)
			if spare.Logical == flash.InvalidLPN {
				continue
			}
			lpn := spare.Logical
			if f.cache.Contains(lpn) {
				continue
			}
			if tpContentSeq[f.table.pageOf(lpn)] >= spare.WriteSeq && f.table.FlashEntry(lpn) != ppn {
				// Durably invalidated (see above); a newer version of lpn, if
				// any, may still appear later in the scan, so lpn is not
				// recovered yet.
				continue
			}
			recovered++
			f.cache.Put(mapcache.Entry{
				Logical:   lpn,
				Physical:  ppn,
				Dirty:     true,
				UIP:       true,
				Uncertain: true,
			})
		}
	}
	return recovered, nil
}

// synchronizeRecoveredEntries writes every recovered dirty mapping entry back
// to the translation table before normal operation resumes. LazyFTL and
// IB-FTL do this; it is what makes their recovery time grow with the cache
// size.
func (f *FTL) synchronizeRecoveredEntries() (int, error) {
	dirtyBefore := f.cache.DirtyCount()
	if err := f.synchronizePages(f.cache.DirtyEntries()); err != nil {
		return 0, err
	}
	return dirtyBefore - f.cache.DirtyCount(), nil
}
