package ftl

import (
	"testing"

	"geckoftl/internal/model"
)

// TestGCReserve pins the free-block reserve New derives from a shard's
// geometry: a full translation sync plus the store's largest burst, at least
// 4 blocks. At the simulator's quick and full scales, and on perfbench's
// shards for the two FTLs perfbench runs (GeckoFTL and DFTL), it is the 4
// every recorded number was taken with; it grows with the shard past that.
func TestGCReserve(t *testing.T) {
	type want map[model.FTLKind]int
	all4 := want{model.GeckoFTL: 4, model.DFTL: 4, model.LazyFTL: 4, model.MuFTL: 4, model.IBFTL: 4}
	for _, c := range []struct {
		name                                   string
		blocks, pagesPerBlock, pageSize, cache int
		want                                   want
	}{
		{"quick", 128, 16, 512, 256, all4},
		{"full", 256, 32, 1024, 1024, all4},
		{"perfbench-1ch", 4096, 64, 4096, 4096,
			want{model.GeckoFTL: 4, model.DFTL: 4, model.LazyFTL: 4, model.MuFTL: 6, model.IBFTL: 10}},
		{"perfbench-4ch", 1024, 64, 4096, 1024, all4},
		{"perfbench-8ch", 512, 64, 4096, 1024, all4},
		{"16x-full", 4096, 32, 1024, 1024,
			want{model.GeckoFTL: 17, model.DFTL: 12, model.LazyFTL: 4, model.MuFTL: 23, model.IBFTL: 30}},
		{"64x-full", 16384, 32, 1024, 1024,
			want{model.GeckoFTL: 55, model.DFTL: 32, model.LazyFTL: 4, model.MuFTL: 65, model.IBFTL: 111}},
	} {
		for _, kind := range model.Kinds() {
			f, err := New(newTestDevice(t, c.blocks, c.pagesPerBlock, c.pageSize), OptionsFor(kind, c.cache))
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, kind, err)
			}
			if got := f.bm.gcReserve; got != c.want[kind] {
				t.Errorf("%s %v: GC reserve %d blocks, want %d", c.name, kind, got, c.want[kind])
			}
		}
	}

	// Two-page blocks of 32 bytes: a Gecko run page holds 4 entries, so
	// two largest runs and a sync need 38 of the 64 blocks. DFTL's sync
	// alone needs 6.
	if _, err := New(newTestDevice(t, 64, 2, 32), GeckoFTLOptions(64)); err == nil {
		t.Error("GeckoFTL accepted a shard too small for its GC reserve")
	}
	if _, err := New(newTestDevice(t, 64, 2, 32), DFTLOptions(64)); err != nil {
		t.Errorf("DFTL refused a shard its GC reserve fits: %v", err)
	}
}
