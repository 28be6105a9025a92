package ftl

import (
	"fmt"
	"time"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// The incremental garbage collector's scheduling constants.
const (
	// incrementalGCLead is how many blocks above the reserve the incremental
	// collector engages: starting slightly early gives the bounded per-write
	// steps a cushion of free blocks to amortize a victim's drain over, so
	// the pool (almost) never falls to the hard floor. The lead is kept
	// small because every block of headroom held free is a block of
	// over-provisioned slack the steady-state garbage collector cannot use,
	// which raises write-amplification.
	incrementalGCLead = 1
	// incrementalGCFloor is the free-block count at which the incremental
	// collector abandons bounded scheduling and falls back to the inline
	// loop: below it, the allocations a single write can need (a user page,
	// synchronization pages, fresh active blocks) risk exhausting the pool
	// mid-operation. A fallback is an unbounded stall; Stats.GCFallbacks
	// counts them so experiments can verify the budget held.
	incrementalGCFloor = 2
)

// gcState is one victim drain's RAM state: the victim being drained, the
// snapshot of its invalid pages taken at selection, and the drain position.
// The incremental scheduler keeps one in FTL.gc across writes; a whole-victim
// collection (collectBlock) runs one to completion in FTL.collect. Each owns
// its snapshot bitmap: the first victim allocates it, and every later one has
// the page-validity store answer into it, so a victim costs no allocation.
// Like all RAM state a drain does not survive a power failure; an abandoned
// half-drained victim is safe because every migration decision is re-checked
// against the mapping cache and translation table (see migrateValidPage).
type gcState struct {
	// victim is the block being drained, InvalidBlock when idle.
	victim flash.BlockID
	group  Group
	// invalid is the page-validity snapshot of the victim at selection time.
	// Application writes interleaving with the drain can outdate it; the
	// per-page guards in migrateValidPage keep stale entries harmless.
	invalid *bitmap.Bitmap
	// offset is the next page offset to examine; written is the victim's
	// write pointer at selection.
	offset, written int
}

// active reports whether a victim drain is in progress.
func (g *gcState) active() bool { return g.victim != flash.InvalidBlock }

// idle retires the drain, keeping the bitmap for the next victim.
func (g *gcState) idle() { *g = gcState{victim: flash.InvalidBlock, invalid: g.invalid} }

// crashGC drops the collectors' RAM state, as a power failure would.
func (f *FTL) crashGC() {
	f.gc.idle()
	f.collect.idle()
	f.opGCTime, f.opGCSteps = 0, 0
}

// chargeGC accounts simulated device time spent on garbage-collection
// relocations and erases against the current write's stall metric. GC
// queries to the page-validity store are deliberately not charged here: they
// are accounted under the validity component, exactly as in the paper's
// write-amplification breakdown.
func (f *FTL) chargeGC(d time.Duration) { f.opGCTime += d }

// LastWriteGCStall returns the garbage-collection stall of the most recent
// Write: the simulated device time its GC migrations and erases consumed,
// and the number of bounded steps they comprised (zero steps under GCInline,
// where whole victims are reclaimed at once).
func (f *FTL) LastWriteGCStall() (time.Duration, int) { return f.opGCTime, f.opGCSteps }

// garbageCollect makes room before an application write, dispatching on the
// configured scheduling mode.
func (f *FTL) garbageCollect() error {
	if f.opts.GCMode == GCIncremental {
		return f.garbageCollectIncremental()
	}
	return f.garbageCollectIfNeeded()
}

// garbageCollectIncremental performs at most GCPagesPerWrite bounded
// garbage-collection steps: each step relocates one page out of the current
// victim, erases a drained victim or a fully-invalid metadata block, or
// selects a new victim. Work starts incrementalGCLead blocks above the
// reserve and a victim drain, once started, is carried to completion across
// writes, so the free pool hovers around the engagement threshold instead of
// oscillating against the reserve.
func (f *FTL) garbageCollectIncremental() error {
	if f.bm.FreeBlocks() <= incrementalGCFloor {
		// Safety valve: the bounded steps fell behind the write stream.
		// Abandon the drain in progress (its state may reference a victim the
		// inline loop will re-pick with a fresh validity query) and reclaim
		// inline until the pool is healthy again. This write's stall is
		// unbounded; GCFallbacks records that the budget was broken.
		f.gc.idle()
		f.stats.GCFallbacks++
		return f.garbageCollectIfNeeded()
	}
	for steps := f.opts.GCPagesPerWrite; steps > 0; steps-- {
		if !f.gc.active() && f.bm.FreeBlocks() > f.bm.gcReserve+incrementalGCLead {
			return nil
		}
		did, err := f.gcStep()
		if err != nil {
			return err
		}
		if !did {
			return nil
		}
		f.opGCSteps++
	}
	return nil
}

// gcStep performs one bounded unit of garbage-collection work and reports
// whether there was any to do.
func (f *FTL) gcStep() (bool, error) {
	if f.gc.active() {
		return true, f.drainStep(&f.gc)
	}
	// Fully-invalid translation and metadata blocks are the cheapest space
	// there is under the non-greedy policies (Section 4.2): erase one per
	// step before migrating anything.
	if !f.opts.VictimPolicy.MigratesMetadata() {
		if did, err := f.eraseDeadMetadata(1); did || err != nil {
			return did, err
		}
	}
	victim, ok := f.bm.PickVictim(f.opts.VictimPolicy)
	if !ok {
		// Nothing eligible right now (all candidates active or protected);
		// try again on a later write. If the pool keeps shrinking the floor
		// fallback reports the real error.
		return false, nil
	}
	// Selecting counts as a step: the page-validity query behind the
	// snapshot is itself IO.
	return true, f.beginVictim(&f.gc, victim)
}

// collectBlock garbage-collects one victim block to completion: the inline
// collector, wear recycling and read-disturb scrubbing reclaim whole victims.
// It drains on f.collect, not f.gc, because the latter two may run while the
// incremental scheduler holds another victim in f.gc. One f.collect is
// enough: collectBlock never nests. Its callers run only at the top of Write
// and Trim or at the end of Write and Read, and a drain (migrations,
// synchronizations, the validity store's flushes) calls none of them.
func (f *FTL) collectBlock(victim flash.BlockID) error {
	g := &f.collect
	if err := f.beginVictim(g, victim); err != nil {
		return err
	}
	for g.active() {
		if err := f.drainStep(g); err != nil {
			return err
		}
	}
	return nil
}

// collectOutOfBand reclaims a user block that wear leveling or read-disturb
// scrubbing chose, and reports whether it did. The choice may be stale: the
// block may since have been collected, reallocated, become active or
// protected, or become the incremental collector's in-flight victim, which
// collecting it here would erase under the drain's feet. Its charges are
// kept out of the GC-stall metric: they are the subsystem's own cost, and one
// recycle would otherwise break the incremental scheduler's hard bound. The
// operation's recorded latency still includes them.
func (f *FTL) collectOutOfBand(block flash.BlockID) (bool, error) {
	if g, _ := f.bm.GroupOf(block); g != GroupUser || !f.bm.Reclaimable(block) || block == f.gc.victim {
		return false, nil
	}
	stall := f.opGCTime
	if err := f.collectBlock(block); err != nil {
		return false, err
	}
	f.opGCTime = stall
	return true, nil
}

// beginVictim starts a victim's drain in g: the victim is counted, and the
// page-validity store is queried for its invalid pages, into g's bitmap.
// Metadata blocks (reachable only under the greedy policy) are drained
// through the liveness information of their owning structure instead of the
// page-validity store.
func (f *FTL) beginVictim(g *gcState, victim flash.BlockID) error {
	group, allocated := f.bm.GroupOf(victim)
	if !allocated {
		return fmt.Errorf("ftl: victim block %d is not allocated", victim)
	}
	f.stats.GCOperations++
	*g = gcState{victim: victim, group: group, written: f.bm.WritePointer(victim), invalid: g.invalid}
	if group == GroupMeta {
		return nil
	}
	if g.invalid == nil {
		g.invalid = bitmap.New(f.cfg.PagesPerBlock)
	}
	return f.validity.QueryInto(victim, g.invalid)
}

// drainStep advances g's drain to the next page that needs IO and relocates
// it (skipping unidentified invalid pages per Section 4.1); pages the
// snapshot marks invalid are skipped for free. A victim drained without
// issuing IO is erased instead: the erase is that step's work. (A drain whose
// last page needed IO reaches the erase on the following step, so no step
// ever charges more than one IO unit.)
func (f *FTL) drainStep(g *gcState) error {
	for g.offset < g.written {
		offset := g.offset
		g.offset++
		if g.group == GroupMeta {
			if did, err := f.migrateMetaPage(g.victim, offset); did || err != nil {
				return err
			}
			continue
		}
		if g.invalid.Get(offset) {
			continue
		}
		migrated, err := f.migrateValidPage(flash.PPNOf(g.victim, offset, f.cfg.PagesPerBlock), g.group)
		if err != nil {
			return err
		}
		if migrated {
			f.stats.GCMigrations++
		} else {
			// Even a skipped page cost a spare read, so it consumed this step.
			f.stats.UIPSkips++
		}
		return nil
	}
	return f.finishVictim(g)
}

// finishVictim erases the drained victim and retires the drain state. A
// victim that acquired a protected previous translation-page version
// mid-drain (possible only for translation blocks under the greedy policy)
// is left allocated for a future pick after the Gecko buffer flushes.
func (f *FTL) finishVictim(g *gcState) error {
	victim := g.victim
	g.idle()
	if f.bm.Protected(victim) {
		return nil
	}
	if err := f.bm.Erase(victim, flash.PurposeGCErase); err != nil {
		return err
	}
	f.chargeGC(f.cfg.Latency.Erase)
	return f.validity.RecordErase(victim)
}

// eraseDeadMetadata erases up to limit fully-invalid translation and
// metadata blocks, translation first, and reports whether it erased any: how
// the non-greedy policies reclaim metadata, which they never migrate but let
// die of natural causes (Section 4.2). Inline collection passes every block,
// incremental one a step. Each group is listed once and erased from that
// list; relisting after each erase would also reclaim blocks an erase's own
// RecordErase just killed, which moves µ-FTL's Figure 14 row.
func (f *FTL) eraseDeadMetadata(limit int) (bool, error) {
	erased := 0
	for _, g := range []Group{GroupTranslation, GroupMeta} {
		for _, block := range f.bm.FullyInvalidBlocks(g) {
			if err := f.bm.Erase(block, flash.PurposeGCErase); err != nil {
				return erased > 0, err
			}
			f.chargeGC(f.cfg.Latency.Erase)
			if err := f.validity.RecordErase(block); err != nil {
				return true, err
			}
			f.stats.MetadataBlockErases++
			if erased++; erased == limit {
				return true, nil
			}
		}
	}
	return erased > 0, nil
}
