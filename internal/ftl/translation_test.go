package ftl

import (
	"testing"
	"unsafe"

	"geckoftl/internal/flash"
)

func newTestTable(t *testing.T) (*blockManager, *translationTable, *flash.Partition) {
	t.Helper()
	dev := newTestDevice(t, 16, 8, 512)
	bm := newBlockManager(dev, 2, false, false)
	table := newTranslationTable(bm, int64(dev.Config().LogicalPages()), dev.Config().PageSize, true)
	return bm, table, dev
}

// dirtyUpdate is one mapping entry a test writes back to the table.
type dirtyUpdate struct {
	Logical  flash.LPN
	Physical flash.PPN
}

// synchronizeTable runs a synchronization of translation page tp that writes
// back updates, in order, with the table's steps as the FTL takes them: it
// reads the page and, unless there is nothing to apply, applies the updates
// and commits the new version.
func synchronizeTable(table *translationTable, tp int, updates []dirtyUpdate) error {
	old, err := table.ReadPage(tp)
	if err != nil || len(updates) == 0 {
		return err
	}
	for _, u := range updates {
		if err := table.Update(tp, u.Logical, u.Physical); err != nil {
			return err
		}
	}
	return table.Commit(tp, old)
}

func TestTranslationTableGeometry(t *testing.T) {
	_, table, dev := newTestTable(t)
	if got, want := table.EntriesPerPage(), dev.Config().PageSize/4; got != want {
		t.Errorf("EntriesPerPage = %d, want %d", got, want)
	}
	logical := int64(dev.Config().LogicalPages())
	wantPages := int((logical + int64(table.EntriesPerPage()) - 1) / int64(table.EntriesPerPage()))
	if table.Pages() != wantPages {
		t.Errorf("Pages = %d, want %d", table.Pages(), wantPages)
	}
	if table.RAMBytes() != int64(wantPages)*4 {
		t.Errorf("RAMBytes = %d, want %d", table.RAMBytes(), wantPages*4)
	}
}

func TestTranslationTableUnmappedReadsAreFree(t *testing.T) {
	_, table, dev := newTestTable(t)
	ppn, err := table.ReadEntry(5, flash.PurposeTranslation)
	if err != nil {
		t.Fatal(err)
	}
	if ppn != flash.InvalidPPN {
		t.Errorf("unmapped entry = %d, want InvalidPPN", ppn)
	}
	c := dev.Counters()
	if c.TotalOp(flash.OpPageRead) != 0 {
		t.Error("reading an entry of a never-written translation page cost IO")
	}
}

func TestTranslationTableSynchronizeRoundTrip(t *testing.T) {
	bm, table, dev := newTestTable(t)
	updates := []dirtyUpdate{{Logical: 1, Physical: 100}, {Logical: 2, Physical: 200}}
	if err := synchronizeTable(table, 0, updates); err != nil {
		t.Fatal(err)
	}
	if table.FlashEntry(1) != 100 || table.FlashEntry(2) != 200 {
		t.Error("flash mapping not updated")
	}
	loc := table.GMDLocation(0)
	if loc == flash.InvalidPPN {
		t.Fatal("GMD not updated")
	}
	if g, ok := bm.GroupOf(flash.BlockOf(loc, dev.Config().PagesPerBlock)); !ok || g != GroupTranslation {
		t.Error("translation page not written into the translation block group")
	}

	// A second synchronization that changes page 1 remaps it and invalidates
	// the old translation page in the BVC.
	oldLoc := loc
	if err := synchronizeTable(table, 0, []dirtyUpdate{{Logical: 1, Physical: 111}}); err != nil {
		t.Fatal(err)
	}
	if table.FlashEntry(1) != 111 || table.FlashEntry(2) != 200 {
		t.Error("flash mapping not updated by the second synchronization")
	}
	if table.GMDLocation(0) == oldLoc {
		t.Error("GMD still points at the old translation page")
	}
	if bm.blocks[flash.BlockOf(oldLoc, dev.Config().PagesPerBlock)].valid != 1 {
		t.Errorf("old translation page not invalidated in BVC")
	}
	c := dev.Counters()
	if got := c.Count(flash.OpPageWrite, flash.PurposeTranslation); got != 2 {
		t.Errorf("translation page writes = %d, want one per synchronization, 2", got)
	}
}

func TestTranslationTableAbortsEmptySynchronization(t *testing.T) {
	_, table, dev := newTestTable(t)
	if err := synchronizeTable(table, 0, []dirtyUpdate{{Logical: 3, Physical: 30}}); err != nil {
		t.Fatal(err)
	}
	loc := table.GMDLocation(0)
	writesBefore := dev.Counters()
	if err := synchronizeTable(table, 0, nil); err != nil {
		t.Fatal(err)
	}
	delta := dev.Counters().Sub(writesBefore)
	if delta.TotalOp(flash.OpPageWrite) != 0 {
		t.Error("aborted synchronization wrote a page")
	}
	// It costs only the read that discovered it (Appendix C.3.1).
	if got := delta.Count(flash.OpPageRead, flash.PurposeTranslation); got != 1 {
		t.Errorf("aborted synchronization read %d translation pages, want 1", got)
	}
	if table.GMDLocation(0) != loc {
		t.Error("aborted synchronization moved the translation page")
	}
}

func TestTranslationTableRejectsForeignUpdates(t *testing.T) {
	_, table, _ := newTestTable(t)
	if err := synchronizeTable(table, -1, nil); err == nil {
		t.Error("negative translation page accepted")
	}
	if err := synchronizeTable(table, table.Pages(), nil); err == nil {
		t.Error("out-of-range translation page accepted")
	}
	// An update whose logical page belongs to another translation page.
	foreign := flash.LPN(int64(table.EntriesPerPage()))
	if int(foreign) < int(table.logicalPages) {
		if err := synchronizeTable(table, 0, []dirtyUpdate{{Logical: foreign, Physical: 9}}); err == nil {
			t.Error("update for a foreign translation page accepted")
		}
	}
}

func TestTranslationTableProtectsPreviousVersions(t *testing.T) {
	_, table, dev := newTestTable(t)
	if err := synchronizeTable(table, 0, []dirtyUpdate{{Logical: 1, Physical: 10}}); err != nil {
		t.Fatal(err)
	}
	firstLoc := table.GMDLocation(0)
	// A Gecko buffer flush clears the protection window; the next update to
	// the translation page starts a new one whose previous version is the
	// state as of that flush.
	table.ClearProtected()
	if err := synchronizeTable(table, 0, []dirtyUpdate{{Logical: 1, Physical: 20}}); err != nil {
		t.Fatal(err)
	}
	tps := table.UpdatedSinceProtection()
	if len(tps) != 1 || tps[0] != 0 {
		t.Fatalf("UpdatedSinceProtection = %v", tps)
	}
	start, prev, ok := table.PreviousVersion(0)
	if !ok || start != 0 {
		t.Fatalf("PreviousVersion missing: start=%d ok=%v", start, ok)
	}
	if log := table.UndoLog(); len(log) != 1 || log[0] != (undoRecord{lpn: 1, old: 10}) {
		t.Errorf("undo log = %v, want logical 1 mapped to 10 before", log)
	}
	if prev.location != firstLoc {
		t.Errorf("previous location = %d, want %d", prev.location, firstLoc)
	}
	prevBlock := flash.BlockOf(firstLoc, dev.Config().PagesPerBlock)
	if !table.bm.Protected(prevBlock) {
		t.Error("block of the previous version not protected")
	}
	table.ClearProtected()
	if len(table.UpdatedSinceProtection()) != 0 || table.bm.Protected(prevBlock) || len(table.UndoLog()) != 0 {
		t.Error("ClearProtected left state behind")
	}
}

func TestTranslationTableCrashDropsGMDOnly(t *testing.T) {
	_, table, _ := newTestTable(t)
	if err := synchronizeTable(table, 0, []dirtyUpdate{{Logical: 1, Physical: 10}}); err != nil {
		t.Fatal(err)
	}
	table.CrashRAM()
	if table.GMDLocation(0) != flash.InvalidPPN {
		t.Error("GMD survived CrashRAM")
	}
	// The flash-resident mapping content survives (it models flash).
	if table.FlashEntry(1) != 10 {
		t.Error("flash mapping lost at CrashRAM")
	}
}

func TestGroupStoreRoundTrip(t *testing.T) {
	bm, _, dev := newTestTable(t)
	store := &groupStore{bm: bm}
	ppn, err := store.Append(flash.SpareArea{Tag: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Read(ppn); err != nil {
		t.Fatal(err)
	}
	spare, ok, err := store.ReadSpare(ppn)
	if err != nil || !ok || spare.Tag != 7 {
		t.Fatalf("spare = %+v ok=%v err=%v", spare, ok, err)
	}
	if err := store.Invalidate(ppn); err != nil {
		t.Fatal(err)
	}
	blocks := store.Blocks()
	if len(blocks) != 1 || blocks[0] != flash.BlockOf(ppn, dev.Config().PagesPerBlock) {
		t.Errorf("Blocks = %v", blocks)
	}
	if g, ok := bm.GroupOf(blocks[0]); !ok || g != GroupMeta {
		t.Error("group store did not allocate from the metadata group")
	}
	c := dev.Counters()
	if c.Count(flash.OpPageWrite, flash.PurposePageValidity) != 1 {
		t.Error("group store write not attributed to page-validity")
	}
}

// TestOnlyGeckoKeepsPreviousVersions pins who pays for previous
// translation-page versions: only Logarithmic Gecko's buffer recovery reads
// them and only its flush drops them, so an FTL without a Gecko buffer must
// record none — it would hold one dead version per translation page forever.
func TestOnlyGeckoKeepsPreviousVersions(t *testing.T) {
	dftl, err := New(newTestDevice(t, 64, 16, 512), DFTLOptions(64))
	if err != nil {
		t.Fatal(err)
	}
	// GeckoFTL does keep them between buffer flushes, or C.2.2 has nothing to
	// diff against.
	gecko, err := New(newTestDevice(t, 64, 16, 512), GeckoFTLOptions(64))
	if err != nil {
		t.Fatal(err)
	}
	geckoKept := 0
	for lpn := flash.LPN(0); int64(lpn) < dftl.LogicalPages(); lpn++ {
		if err := dftl.Write(lpn); err != nil {
			t.Fatal(err)
		}
		if err := gecko.Write(lpn); err != nil {
			t.Fatal(err)
		}
		geckoKept = max(geckoKept, len(gecko.table.UpdatedSinceProtection()))
	}
	if err := dftl.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := len(dftl.table.UpdatedSinceProtection()); n != 0 {
		t.Errorf("DFTL holds %d previous translation-page versions after a full overwrite, want 0", n)
	}
	if geckoKept == 0 {
		t.Error("GeckoFTL never held a previous translation-page version")
	}
}

// TestTranslationEntryWidth pins the host image of a translation page's
// content at the width the page stores a mapping entry in.
func TestTranslationEntryWidth(t *testing.T) {
	var table translationTable
	if got := unsafe.Sizeof(table.flashMapping[0]); got != mappingEntryBytes {
		t.Errorf("a mapping entry takes %d bytes, want %d", got, mappingEntryBytes)
	}
}

// TestNewRefusesShardsBeyondTheEntryWidth holds New to what a 4-byte mapping
// entry can address: a shard of 2^31 physical pages is refused, one block
// fewer is not.
func TestNewRefusesShardsBeyondTheEntryWidth(t *testing.T) {
	cfg := flash.DefaultConfig()
	cfg.Blocks, cfg.PagesPerBlock = 1<<25, 64
	o := GeckoFTLOptions(1024)
	if err := o.validate(cfg); err == nil {
		t.Errorf("a shard of %d physical pages accepted", cfg.Blocks*cfg.PagesPerBlock)
	}
	cfg.Blocks--
	if err := o.validate(cfg); err != nil {
		t.Errorf("a shard of %d physical pages refused: %v", cfg.Blocks*cfg.PagesPerBlock, err)
	}
}
