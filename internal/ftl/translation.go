package ftl

import (
	"cmp"
	"fmt"
	"slices"

	"geckoftl/internal/flash"
)

// mappingEntryBytes is the size of one mapping entry in a translation page:
// a 4-byte physical address, as in Section 2 of the paper.
const mappingEntryBytes = 4

// translationTable is the flash-resident page-associative translation table
// of DFTL-style FTLs, together with its RAM-resident Global Mapping Directory
// (GMD).
//
// The table maps every logical page to the physical page that holds its
// current flash-resident version. Mapping entries are grouped into
// translation pages of entriesPerPage consecutive logical pages; the GMD
// records where the newest version of each translation page lives. The table
// also keeps, per logical page, the mapping value as stored in flash (the
// simulator does not store payloads in the device, so this mirror is the
// translation pages' content) at the width a translation page stores it,
// mappingEntryBytes: a physical page, or -1 for unmapped, in an int32, which
// New makes sure can count the shard's physical pages. Cached, possibly newer
// values live in the FTL's LRU cache and reach the table only through
// synchronization operations.
type translationTable struct {
	bm           *blockManager
	logicalPages int64
	entriesPerTP int
	pages        int
	gmd          []flash.PPN // current location of each translation page
	flashMapping []int32     // flash-resident mapping value per logical page
	// prevVersions holds the previous versions; the block manager protects
	// the blocks they are on (blockManager.Protect).
	prevVersions map[int]prevVersion
	// keepPrevious is set when the FTL has a Logarithmic Gecko buffer to
	// recover: only that recovery reads previous versions, and only Gecko's
	// flushes drop them, so any other FTL would hold them forever.
	keepPrevious bool
	// undo is the content of the previous versions, kept as what differs from
	// the current ones: for every logical page updated since its translation
	// page became protected, the mapped value it had before the first such
	// update. touched has a bit per logical page, set by that first update.
	// Like flashMapping they model flash content, not integrated RAM.
	undo    []undoRecord
	touched []uint64
	// updated is UpdatedSinceProtection's result, reused across calls.
	updated []int
}

// prevVersion is the location of a translation page as it was before the
// first update since the last Gecko buffer flush, in a block protected from
// erasure until the next one; buffer recovery (Appendix C.2.2) diffs the
// current version against it.
type prevVersion struct {
	location flash.PPN
}

// undoRecord says that the previous version of lpn's translation page maps
// lpn to old, and the current one to something else or to nothing. Both are
// held at flashMapping's width.
type undoRecord struct {
	lpn, old int32
}

// logical returns the record's logical page.
func (r undoRecord) logical() flash.LPN { return flash.LPN(r.lpn) }

// previous returns the physical page the previous version maps it to.
func (r undoRecord) previous() flash.PPN { return flash.PPN(r.old) }

// newTranslationTable creates the table for the given number of logical
// pages. Every mapping starts out unmapped (InvalidPPN) and no translation
// page exists in flash until the first synchronization touches it.
func newTranslationTable(bm *blockManager, logicalPages int64, pageSize int, keepPrevious bool) *translationTable {
	entriesPerTP := pageSize / mappingEntryBytes
	pages := int((logicalPages + int64(entriesPerTP) - 1) / int64(entriesPerTP))
	t := &translationTable{
		bm:           bm,
		logicalPages: logicalPages,
		entriesPerTP: entriesPerTP,
		pages:        pages,
		gmd:          make([]flash.PPN, pages),
		flashMapping: make([]int32, logicalPages),
		prevVersions: make(map[int]prevVersion),
		keepPrevious: keepPrevious,
	}
	if keepPrevious {
		t.touched = make([]uint64, (logicalPages+63)/64)
	}
	for i := range t.gmd {
		t.gmd[i] = flash.InvalidPPN
	}
	for i := range t.flashMapping {
		t.flashMapping[i] = int32(flash.InvalidPPN)
	}
	return t
}

// EntriesPerPage returns the number of mapping entries per translation page.
func (t *translationTable) EntriesPerPage() int { return t.entriesPerTP }

// Pages returns the number of translation pages.
func (t *translationTable) Pages() int { return t.pages }

// pageOf returns the translation page index covering a logical page.
func (t *translationTable) pageOf(lpn flash.LPN) int {
	return int(int64(lpn) / int64(t.entriesPerTP))
}

// FlashEntry returns the mapping for lpn as currently recorded in flash.
func (t *translationTable) FlashEntry(lpn flash.LPN) flash.PPN {
	return flash.PPN(t.flashMapping[lpn])
}

// ReadEntry performs the flash read of the translation page covering lpn (a
// cache miss path) and returns the flash-resident mapping. If the translation
// page has never been written, no IO happens and the mapping is unmapped.
func (t *translationTable) ReadEntry(lpn flash.LPN, p flash.Purpose) (flash.PPN, error) {
	tp := t.pageOf(lpn)
	if loc := t.gmd[tp]; loc != flash.InvalidPPN {
		if err := t.bm.dev.ReadPage(loc, p); err != nil {
			return flash.InvalidPPN, err
		}
	}
	return flash.PPN(t.flashMapping[lpn]), nil
}

// ReadPage reads the current version of translation page tp, if it has one,
// and returns its location. It is the first of the three steps of a
// synchronization operation on the page (Section 4, "Synchronization
// Operations"), which the FTL takes with the dirty cached mapping entries
// still in its cache: ReadPage, Update for each entry, and Commit. One with
// nothing to update stops after the read (Appendix C.3.1 relies on this).
// The before-images of the updated logical pages are the caller's business:
// it reports them to the page-validity store through the entries' UIP flags,
// which is how invalid user pages are identified lazily (Section 4.1).
func (t *translationTable) ReadPage(tp int) (flash.PPN, error) {
	if tp < 0 || tp >= t.pages {
		return flash.InvalidPPN, fmt.Errorf("ftl: translation page %d out of range [0,%d)", tp, t.pages)
	}
	old := t.gmd[tp]
	if old != flash.InvalidPPN {
		if err := t.bm.dev.ReadPage(old, flash.PurposeTranslation); err != nil {
			return flash.InvalidPPN, err
		}
	}
	return old, nil
}

// Update maps lpn, a logical page of translation page tp, to ppn. When the
// table keeps previous versions, it first logs what the update overwrites
// (see Commit). Only a logical page's first update of the window sees the
// previous version's value, mapped or not: were the first mapped value logged
// instead, unmapped -> A -> B would replay A, which the previous version
// never held.
func (t *translationTable) Update(tp int, lpn flash.LPN, ppn flash.PPN) error {
	if t.pageOf(lpn) != tp {
		return fmt.Errorf("ftl: update for logical page %d does not belong to translation page %d", lpn, tp)
	}
	if t.keepPrevious {
		if word, bit := &t.touched[lpn/64], uint64(1)<<(lpn%64); *word&bit == 0 {
			*word |= bit
			if before := t.flashMapping[lpn]; before != int32(flash.InvalidPPN) {
				t.undo = append(t.undo, undoRecord{lpn: int32(lpn), old: before})
			}
		}
	}
	t.flashMapping[lpn] = int32(ppn)
	return nil
}

// Commit writes the updated translation page tp out-of-place into the
// translation block group, points the GMD at it and invalidates the version
// at old, the one ReadPage returned. The first commit since the last Gecko
// buffer flush preserves that version, so that recovery can rebuild
// Logarithmic Gecko's buffer by diffing translation-page versions (Appendix
// C.2.2): it protects the block the version is on, and the undo log holds
// what the updates overwrote. Both are dropped when the Gecko buffer flushes
// (ClearProtected).
func (t *translationTable) Commit(tp int, old flash.PPN) error {
	if _, ok := t.prevVersions[tp]; !ok && t.keepPrevious {
		t.prevVersions[tp] = prevVersion{location: old}
		if old != flash.InvalidPPN {
			t.bm.Protect(flash.BlockOf(old, t.bm.cfg.PagesPerBlock))
		}
	}
	// Aux carries the content sequence: the newest write sequence the
	// mapping content of this version reflects. A synchronization includes
	// every dirty cached entry of the translation page, so the content is
	// current up to this instant. Garbage-collection copies of the page
	// refresh its WriteSeq but preserve Aux, which is what lets recovery date
	// the durable mapping state (see recoverDirtyEntries).
	spare := flash.SpareArea{Logical: flash.InvalidLPN, Tag: uint64(tp), Aux: t.bm.LastWriteSeq()}
	loc, err := t.bm.AllocatePage(GroupTranslation, spare, flash.PurposeTranslation)
	if err != nil {
		return err
	}
	if old != flash.InvalidPPN {
		if err := t.bm.InvalidatePage(old); err != nil {
			return err
		}
	}
	t.gmd[tp] = loc
	return nil
}

// PreviousVersion returns the preserved pre-update version of a translation
// page, if one is protected, together with the first logical page it covers.
func (t *translationTable) PreviousVersion(tp int) (start flash.LPN, prev prevVersion, ok bool) {
	prev, ok = t.prevVersions[tp]
	return flash.LPN(int64(tp) * int64(t.entriesPerTP)), prev, ok
}

// UndoLog returns what the protected previous versions hold that the current
// ones may not, in ascending logical-page order, and so grouped by
// translation page in UpdatedSinceProtection's order. A logical page written
// back to its old value since is still listed.
func (t *translationTable) UndoLog() []undoRecord {
	slices.SortFunc(t.undo, func(a, b undoRecord) int { return cmp.Compare(a.lpn, b.lpn) })
	return t.undo
}

// UpdatedSinceProtection returns the translation pages with a protected
// previous version, i.e. those updated since the last Gecko buffer flush.
// The result is sorted: recovery replays invalidations in this order into
// Logarithmic Gecko's buffer, and a map-ordered replay could flush different
// buffer contents on different runs of the same seeded simulation (the
// buffer drains whenever it fills mid-replay), breaking reproducibility.
// The result is the table's own storage, valid until the next call; it is
// sized for every translation page at once, so no later call regrows it.
func (t *translationTable) UpdatedSinceProtection() []int {
	out := slices.Grow(t.updated[:0], t.pages)
	for tp := range t.prevVersions {
		out = append(out, tp)
	}
	slices.Sort(out)
	t.updated = out
	return out
}

// ClearProtected drops the protected previous versions and releases their
// blocks; the FTL calls it whenever Logarithmic Gecko's buffer is flushed,
// and so do a shutdown flush and the end of a recovery's buffer replay. The
// undo log's storage is kept for the next protections: the next flush is a
// few hundred writes away, and after a recovery or a warm restart the log
// would otherwise regrow from nothing by doubling.
func (t *translationTable) ClearProtected() {
	// Whole words: a neighbour sharing one is protected too or has no bit set.
	for tp := range t.prevVersions {
		start := int64(tp) * int64(t.entriesPerTP)
		end := min(start+int64(t.entriesPerTP), t.logicalPages)
		clear(t.touched[start/64 : (end+63)/64])
	}
	t.undo = t.undo[:0]
	clear(t.prevVersions)
	t.bm.ClearProtection()
}

// GMDLocation returns the current flash location of a translation page.
func (t *translationTable) GMDLocation(tp int) flash.PPN { return t.gmd[tp] }

// SetGMDLocation restores a GMD entry; recovery uses it.
func (t *translationTable) SetGMDLocation(tp int, ppn flash.PPN) { t.gmd[tp] = ppn }

// RAMBytes returns the integrated-RAM footprint of the GMD: 4 bytes per
// translation page, as in Section 2 of the paper.
func (t *translationTable) RAMBytes() int64 { return int64(t.pages) * 4 }

// CrashRAM models the loss of the GMD at power failure. The flash-resident
// mapping content survives (it is flash), as do the protected previous
// versions, their undo log and their blocks' protection (they are flash
// pages that were deliberately not erased).
func (t *translationTable) CrashRAM() {
	for i := range t.gmd {
		t.gmd[i] = flash.InvalidPPN
	}
}
