package geckoftl_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"geckoftl"
)

// TestSnapshotConcurrentWithShardWork reads Snapshot in a loop while
// WriteBatch and SubmitWrite/Wait drive every shard, on a die-aligned
// geometry (256 blocks on 4 channels: four latches) and on one whose shards
// split dies (250 blocks on 3 channels: the three shards share one latch).
// Snapshot reads the device's per-die counters and erase counts through the
// latch the shards hold for a whole host operation, so under -race a Device
// aggregate that skipped the latch is reported here; afterwards the map must
// still be consistent with the flash.
func TestSnapshotConcurrentWithShardWork(t *testing.T) {
	for _, g := range []struct{ blocks, channels int }{{256, 4}, {250, 3}} {
		t.Run(fmt.Sprintf("%dblocks-%dch", g.blocks, g.channels), func(t *testing.T) {
			ctx := context.Background()
			dev := open(t,
				geckoftl.WithGeometry(g.blocks, 32, 1024),
				geckoftl.WithChannels(g.channels, 1),
				geckoftl.WithCacheEntries(256),
			)
			defer dev.Close(ctx)
			pages := dev.LogicalPages()
			const rounds = 200

			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			snapshots := 0
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					dev.Snapshot()
					snapshots++
				}
			}()

			var work sync.WaitGroup
			work.Add(2)
			go func() {
				defer work.Done()
				rng := rand.New(rand.NewSource(1))
				lpns := make([]geckoftl.LPN, 64)
				for range rounds {
					for i := range lpns {
						lpns[i] = geckoftl.LPN(rng.Int63n(pages))
					}
					if err := dev.WriteBatch(ctx, lpns); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() {
				defer work.Done()
				rng := rand.New(rand.NewSource(2))
				tickets := make([]*geckoftl.Ticket, 16)
				for range rounds {
					for i := range tickets {
						tk, err := dev.SubmitWrite(ctx, geckoftl.LPN(rng.Int63n(pages)))
						if err != nil {
							t.Error(err)
							return
						}
						tickets[i] = tk
					}
					for _, tk := range tickets {
						if err := tk.Wait(ctx); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			work.Wait()
			close(stop)
			reader.Wait()
			if snapshots == 0 {
				t.Fatal("no Snapshot ran beside the writers")
			}
			if err := dev.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			if got, want := dev.Snapshot().Ops.Writes, int64(rounds*(64+16)); got != want {
				t.Errorf("Snapshot counts %d writes, want %d", got, want)
			}
			if err := dev.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
