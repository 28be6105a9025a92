package ftl

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
)

// TestRetainedStorageCarriesNoContent holds what a crash or a warm restart
// keeps of a shard's Go storage — the undo log's, recovery's scratch, the
// checkpoint's run directories — to capacity without content. One device of
// two shards, filled once, alternates 5000 seeded writes with a crash and
// GeckoRec or a warm restart, 30 of each, on the FTLs it was opened with. A
// twin device takes the same writes, but each of its crashes and restarts
// hands every partition to a new FTL (reboot), which brings no storage from
// before. After every crash or restart the reused FTLs must hold empty undo
// logs; after it and after the writes that follow, both devices must map
// the same logical pages, pass CheckConsistency and have spent the same
// simulated time. The geometry is one where some Gecko run outlives the
// writes between two recoveries, so that a scan slice kept with its
// content lists that run's pages twice.
func TestRetainedStorageCarriesNoContent(t *testing.T) {
	newEngine := func() *Engine {
		e, err := NewEngine(engineTestDevice(t, 2048, 2), GeckoFTLOptions(128), 2)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	reused, twin := newEngine(), newEngine()
	same := func(when string) {
		t.Helper()
		for _, e := range []*Engine{reused, twin} {
			if err := e.CheckConsistency(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		sameMapped(t, mappedSet(t, twin), mappedSet(t, reused), when)
		if got, want := reused.dev.SimulatedTime(), twin.dev.SimulatedTime(); got != want {
			t.Fatalf("%s: simulated time %v, a new FTL's %v", when, got, want)
		}
	}
	write := func(lpn flash.LPN) {
		for _, e := range []*Engine{reused, twin} {
			if err := e.Write(lpn); err != nil {
				t.Fatal(err)
			}
		}
	}
	pages := reused.LogicalPages()
	for lpn := range flash.LPN(pages) {
		write(lpn)
	}
	// Each cycle writes a quarter of the logical pages, a different one
	// every third cycle, so that most translation pages go unwritten
	// between two recoveries.
	rng := rand.New(rand.NewSource(57))
	quarter := pages / 4
	for cycle := range 60 {
		lo := int64(cycle/3%4) * quarter
		for range 5000 {
			write(flash.LPN(lo + rng.Int63n(quarter)))
		}
		what := fmt.Sprintf("cycle %d, crash", cycle)
		if cycle%2 == 1 {
			what = fmt.Sprintf("cycle %d, restart", cycle)
		}
		same(what + ": the writes before it")
		for _, e := range []*Engine{reused, twin} {
			var file *checkpoint.File
			if cycle%2 == 1 {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				data, err := e.EncodeCheckpoint(nil)
				if err != nil {
					t.Fatal(err)
				}
				if file, err = checkpoint.Decode(data); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if e == twin {
				reboot(t, e)
			}
			if file != nil {
				if err := e.RestoreCheckpoint(file); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			} else if _, err := e.Recover(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		for i, sh := range reused.shards {
			if undo := sh.ftl.table.undo; len(undo) != 0 {
				t.Fatalf("%s: shard %d's undo log holds %d records after it", what, i, len(undo))
			}
		}
		same(what)
	}
}

// reboot gives every shard of the power-failed engine a new FTL over the
// same partition, as a controller that boots from nothing has. The
// simulator keeps no payload in the device: the translation pages' content,
// the protected previous versions and the pages of Logarithmic Gecko's runs
// live in the structures of the FTL that wrote them, so the new FTL
// inherits those, copied to their length, and nothing else.
func reboot(t *testing.T, e *Engine) {
	t.Helper()
	for _, sh := range e.shards {
		old := sh.ftl
		f, err := New(old.dev, old.opts)
		if err != nil {
			t.Fatal(err)
		}
		f.table.flashMapping = slices.Clone(old.table.flashMapping)
		f.table.prevVersions = maps.Clone(old.table.prevVersions)
		f.table.undo = slices.Clip(slices.Clone(old.table.undo))
		f.table.touched = slices.Clone(old.table.touched)
		f.bm.protected = old.bm.protected.Clone()
		pageContent(f.validity.(*gecko.Gecko)).Set(pageContent(old.validity.(*gecko.Gecko)))
		sh.ftl = f
	}
}

// pageContent is the Gecko's flash image, a field its package keeps
// unexported.
func pageContent(g *gecko.Gecko) reflect.Value {
	v := reflect.ValueOf(g).Elem().FieldByName("pageContent")
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
