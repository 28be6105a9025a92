package ftl

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/mapcache"
)

// stableSortPages is the grouping runtime checkpoints used before marks: a
// stable sort of the lingering entries by translation page, then the page of
// each run of equal pages, whose first entry seeded its synchronization.
func stableSortPages(stale []mapcache.Entry, cache *mapcache.Cache) []int {
	sorted := slices.Clone(stale)
	tpOf := cache.TranslationPageOf
	slices.SortStableFunc(sorted, func(a, b mapcache.Entry) int { return cmp.Compare(tpOf(a.Logical), tpOf(b.Logical)) })
	var pages []int
	for i, e := range sorted {
		if i == 0 || tpOf(e.Logical) != tpOf(sorted[i-1].Logical) {
			pages = append(pages, tpOf(e.Logical))
		}
	}
	return pages
}

// TestCheckpointGroupingMatchesStableSort puts random lingering entries in a
// cache — repeated logical pages, pages out of order, a few or many per
// translation page — takes a checkpoint, and requires the walk of its marks
// to yield the pages, in the order, that the stable sort picked. The marks
// must be all clear after every walk, including one the caller stops early,
// as a failed synchronization stops it.
func TestCheckpointGroupingMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	anyMark := func(w uint64) bool { return w != 0 }
	for trial := 0; trial < 500; trial++ {
		perTP := 1 + rng.Intn(16)
		pages := 1 + rng.Intn(100)
		stale := make([]mapcache.Entry, rng.Intn(3*perTP*pages))
		cache := mapcache.New(max(1, len(stale)), perTP)
		for i := range stale {
			stale[i] = mapcache.Entry{
				Logical:  flash.LPN(rng.Intn(perTP * pages)),
				Physical: flash.PPN(i),
				Dirty:    true,
				UIP:      rng.Intn(2) == 0,
			}
			cache.Put(stale[i])
		}
		marks := make([]uint64, (pages+63)/64)
		cache.Checkpoint(marks)
		got := slices.Collect(markedPages(marks))
		if want := stableSortPages(stale, cache); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d entries per page): pages %v, the stable sort's %v", trial, perTP, got, want)
		}
		if i := slices.IndexFunc(marks, anyMark); i >= 0 {
			t.Fatalf("trial %d: marks of word %d left at %#x", trial, i, marks[i])
		}

		cache.MarkDirtyPages(marks)
		stop := rng.Intn(len(got) + 1)
		n := 0
		for range markedPages(marks) {
			if n == stop {
				break
			}
			n++
		}
		if i := slices.IndexFunc(marks, anyMark); i >= 0 {
			t.Fatalf("trial %d: stopped after %d pages, marks of word %d left at %#x", trial, stop, i, marks[i])
		}
	}
}

// writeSpread writes n logical pages spread evenly over the whole range,
// offset by off: with n below the cache's capacity, one entry on nearly every
// translation page.
func writeSpread(t *testing.T, f *FTL, n, off int64) {
	t.Helper()
	for i := range n {
		if err := f.Write(flash.LPN(i*(f.LogicalPages()/n) + off)); err != nil {
			t.Fatal(err)
		}
	}
}

// failedCheckpointRun builds a GeckoFTL, fills it, and leaves a set of dirty
// entries lingering in its cache — written once, then passed by two
// checkpoints while a disjoint hot set is rewritten — so that the next
// checkpoint has pages to synchronize. It makes that checkpoint due, and the
// checkpoint's first program cuts the power: its first synchronization fails.
// It returns the FTL, still holding the RAM state the failure left.
func failedCheckpointRun(t *testing.T) *FTL {
	t.Helper()
	dev := newTestFlash(t, 256, 16, 512)
	f, err := New(wholeDevice(t, dev), GeckoFTLOptions(256))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	pages := f.LogicalPages()
	for i := range 2 * pages {
		lpn := flash.LPN(i)
		if i >= pages {
			lpn = flash.LPN(rng.Int63n(pages))
		}
		if err := f.Write(lpn); err != nil {
			t.Fatal(err)
		}
	}
	writeSpread(t, f, 100, 0)
	for start := f.stats.Checkpoints; f.stats.Checkpoints < start+2; {
		writeSpread(t, f, 1, 1+f.stats.LogicalWrites%100*(pages/100))
	}
	// Cache operations that program nothing make the checkpoint due:
	// refreshes of the most recently used entry.
	var mru mapcache.Entry
	f.cache.ForEach(func(e mapcache.Entry) bool { mru = e; return false })
	for !f.cache.CheckpointDue() {
		f.cache.Put(mru)
	}
	if err := dev.SetFaultPlan(flash.FaultPlan{Schedule: []flash.FaultEvent{{Op: flash.OpPageWrite, AtCount: 1, Cut: flash.CutBefore}}}); err != nil {
		t.Fatal(err)
	}
	if err := f.maybeCheckpoint(); !errors.Is(err, flash.ErrPowerFailed) {
		t.Fatalf("checkpoint under a cut returned %v, want %v", err, flash.ErrPowerFailed)
	}
	if err := dev.SetFaultPlan(flash.FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCheckpointAfterFailedSynchronize fails a runtime checkpoint in its
// first synchronization and requires it to leave no mark behind — a mark set
// for a page it never reached would steer the next checkpoint — then
// recovers and runs the next checkpoint to a consistent FTL.
func TestCheckpointAfterFailedSynchronize(t *testing.T) {
	f := failedCheckpointRun(t)
	if i := slices.IndexFunc(f.syncPages, func(w uint64) bool { return w != 0 }); i >= 0 {
		t.Errorf("failed checkpoint left the marks of word %d at %#x", i, f.syncPages[i])
	}
	if err := f.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Recover(); err != nil {
		t.Fatal(err)
	}
	for done := f.stats.Checkpoints; f.stats.Checkpoints == done; {
		writeSpread(t, f, 1, 1+f.stats.LogicalWrites%100*(f.LogicalPages()/100))
	}
	if err := f.CheckConsistency(); err != nil {
		t.Error(err)
	}
}
