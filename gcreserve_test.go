package geckoftl_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"geckoftl"
)

// TestLargeDeviceFillsAndOverwrites drives every FTL through the public
// device at 16 times the quick geometry: a sequential fill, two passes of
// uniform overwrites, and the flush of Close. Each shard's GC reserve must
// hold a whole translation sync and its validity store's largest burst, or
// the free pool runs dry mid-merge (GeckoFTL, quick scale's cache) or in
// the final sync (µ-FTL, Open's default cache).
func TestLargeDeviceFillsAndOverwrites(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine writes: the race detector finds nothing here, and makes the 2-s fill take 45 s")
	}
	ctx := context.Background()
	for _, cache := range []int{256, 1024} {
		for _, name := range []string{"geckoftl", "dftl", "lazyftl", "uftl", "ibftl"} {
			dev := open(t, geckoftl.WithGeometry(2048, 16, 512), geckoftl.WithCacheEntries(cache), geckoftl.WithFTL(name))
			pages := dev.LogicalPages()
			rng := rand.New(rand.NewSource(1))
			for i := range 3 * pages {
				lpn := geckoftl.LPN(i)
				if i >= pages {
					lpn = geckoftl.LPN(rng.Int63n(pages))
				}
				if err := dev.Write(ctx, lpn); err != nil {
					t.Fatalf("%s, cache %d: write %d of %d: %v", name, cache, i, 3*pages, err)
				}
			}
			if err := dev.Close(ctx); err != nil {
				t.Fatalf("%s, cache %d: %v", name, cache, err)
			}
		}
	}
}

// TestOpenRefusesShardTooSmallForGCReserve opens a shard of two-page,
// 32-byte blocks. GeckoFTL's reserve (two largest Gecko runs and a
// translation sync) needs more than half of it, DFTL's does not.
func TestOpenRefusesShardTooSmallForGCReserve(t *testing.T) {
	geometry := geckoftl.WithGeometry(64, 2, 32)
	if _, err := geckoftl.Open(geometry, geckoftl.WithCacheEntries(64)); !errors.Is(err, geckoftl.ErrInvalidConfig) {
		t.Errorf("GeckoFTL: Open returned %v, want errors.Is(..., ErrInvalidConfig)", err)
	}
	open(t, geometry, geckoftl.WithCacheEntries(64), geckoftl.WithFTL("dftl"))
}
