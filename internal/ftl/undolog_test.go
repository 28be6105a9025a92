package ftl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"geckoftl/internal/flash"
)

// denseVersions is how this package kept previous translation-page versions
// before the undo log: a copy of the whole page's mapping values, taken at
// its first synchronization of a protection window. It is the undo log's
// reference.
type denseVersions struct {
	table   *translationTable
	content map[int][]int32
}

// beforeSynchronize must precede every Synchronize of tp.
func (d *denseVersions) beforeSynchronize(tp int) {
	if _, ok := d.content[tp]; ok {
		return
	}
	start := int64(tp) * int64(d.table.entriesPerTP)
	end := min(start+int64(d.table.entriesPerTP), d.table.logicalPages)
	d.content[tp] = slices.Clone(d.table.flashMapping[start:end])
}

// diff is the loop buffer recovery ran over a dense version: the logical
// pages, ascending, whose previous mapping is neither the current one nor
// unmapped.
func (d *denseVersions) diff(tp int) []undoRecord {
	var out []undoRecord
	for i, old := range d.content[tp] {
		lpn := flash.LPN(int64(tp)*int64(d.table.entriesPerTP) + int64(i))
		if flash.PPN(old) == d.table.FlashEntry(lpn) || flash.PPN(old) == flash.InvalidPPN {
			continue
		}
		out = append(out, undoRecord{lpn: int32(lpn), old: old})
	}
	return out
}

// replayed is what buffer recovery takes from the undo log for each
// translation page, in the order it takes it.
func replayed(table *translationTable) map[int][]undoRecord {
	out := map[int][]undoRecord{}
	for _, r := range table.UndoLog() {
		if r.previous() != table.FlashEntry(r.logical()) {
			out[table.pageOf(r.logical())] = append(out[table.pageOf(r.logical())], r)
		}
	}
	return out
}

// requireSameDiff compares the undo log with the dense reference, page by
// page, and the pages each has.
func requireSameDiff(t *testing.T, when string, table *translationTable, dense *denseVersions) {
	t.Helper()
	got := replayed(table)
	protected := table.UpdatedSinceProtection()
	if len(protected) != len(dense.content) {
		t.Fatalf("%s: %d translation pages protected, the reference has %d", when, len(protected), len(dense.content))
	}
	for _, tp := range protected {
		if _, ok := dense.content[tp]; !ok {
			t.Fatalf("%s: translation page %d protected, the reference has none", when, tp)
		}
		if want := dense.diff(tp); !slices.Equal(got[tp], want) {
			t.Fatalf("%s: translation page %d replays %v, the dense diff is %v", when, tp, got[tp], want)
		}
		delete(got, tp)
	}
	if len(got) != 0 {
		t.Fatalf("%s: the undo log has records of unprotected translation pages: %v", when, got)
	}
}

// newUndoTable builds a table whose translation pages hold 50 entries, so
// that they share words of the touched bitmap, the last one fewer.
func newUndoTable(t *testing.T) (*translationTable, *denseVersions) {
	t.Helper()
	dev := newTestDevice(t, 64, 16, 200)
	table := newTranslationTable(newBlockManager(dev, 2, false, false), int64(dev.Config().LogicalPages()), dev.Config().PageSize, true)
	if table.entriesPerTP%64 == 0 || table.logicalPages%int64(table.entriesPerTP) == 0 || table.Pages() < 4 {
		t.Fatalf("test setup: %d logical pages in translation pages of %d", table.logicalPages, table.entriesPerTP)
	}
	return table, &denseVersions{table: table, content: map[int][]int32{}}
}

// TestUndoLogNamedSequences walks the sequences the first-touch rule exists
// for through one logical page each, in one protection window, and states
// what recovery must replay.
func TestUndoLogNamedSequences(t *testing.T) {
	const a, b, c = flash.PPN(100), flash.PPN(200), flash.PPN(300)
	for _, tc := range []struct {
		name   string
		before []flash.PPN // synchronized before the window opens
		window []flash.PPN // synchronized, one at a time, inside it
		want   []flash.PPN // the old values replayed for the page
	}{
		{name: "unmapped, A, B", window: []flash.PPN{a, b}},
		{name: "A, B", before: []flash.PPN{a}, window: []flash.PPN{b}, want: []flash.PPN{a}},
		{name: "A, B, C: two synchronizations in a window", before: []flash.PPN{a}, window: []flash.PPN{b, c}, want: []flash.PPN{a}},
		{name: "A, B, A", before: []flash.PPN{a}, window: []flash.PPN{b, a}},
		{name: "A, trimmed, B", before: []flash.PPN{a}, window: []flash.PPN{flash.InvalidPPN, b}, want: []flash.PPN{a}},
	} {
		table, dense := newUndoTable(t)
		const lpn = flash.LPN(57) // in translation page 1, in a word page 0 shares
		sync := func(ppn flash.PPN) {
			dense.beforeSynchronize(1)
			if err := synchronizeTable(table, 1, []dirtyUpdate{{Logical: lpn, Physical: ppn}}); err != nil {
				t.Fatal(err)
			}
		}
		// An earlier window that touched the page, ended with its log's
		// storage kept.
		for _, ppn := range tc.before {
			sync(ppn)
		}
		table.ClearProtected()
		clear(dense.content)
		for _, ppn := range tc.window {
			sync(ppn)
		}
		requireSameDiff(t, tc.name, table, dense)
		var got []flash.PPN
		for _, r := range replayed(table)[1] {
			got = append(got, r.previous())
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: replays old values %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestUndoLogMatchesDenseVersions drives random synchronizations — several
// logical pages at a time, values that repeat, pages synchronized again in
// the same window, unmapped pages, trims — with windows ended and power
// lost in the middle of them, and after every step requires the undo
// log to replay, for every protected translation page, exactly the dense
// diff, in its order.
func TestUndoLogMatchesDenseVersions(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		table, dense := newUndoTable(t)
		for step := 0; step < 60; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			switch n := rng.Intn(20); {
			case n == 0:
				when += " (window ended)"
				table.ClearProtected()
				clear(dense.content)
				if len(table.UndoLog()) != 0 || slices.ContainsFunc(table.touched, func(w uint64) bool { return w != 0 }) {
					t.Fatalf("%s: the window's log or touched bits outlive it", when)
				}
			case n == 1:
				when += " (power lost)"
				table.CrashRAM()
			default:
				tp := rng.Intn(table.Pages())
				start := int64(tp) * int64(table.entriesPerTP)
				span := min(int64(table.entriesPerTP), table.logicalPages-start)
				var updates []dirtyUpdate
				for range 1 + rng.Intn(4) {
					// Few logical pages and few values: collisions are the point.
					u := dirtyUpdate{Logical: flash.LPN(start + rng.Int63n(min(span, 6))*7%span), Physical: flash.PPN(1 + rng.Intn(4))}
					if rng.Intn(8) == 0 {
						u.Physical = flash.InvalidPPN
					}
					updates = append(updates, u)
				}
				dense.beforeSynchronize(tp)
				if err := synchronizeTable(table, tp, updates); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
			}
			requireSameDiff(t, when, table, dense)
		}
	}
}
