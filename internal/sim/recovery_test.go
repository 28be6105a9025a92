package sim

import (
	"math"
	"testing"
	"time"

	"geckoftl/internal/model"
)

// TestRecoverySweepTrends runs the engine-recovery sweep at the quick scale
// and pins the qualitative trends the analytic model predicts: recovery
// parallelism scales with channels, the backwards scan is bounded by the
// checkpointed cache capacity, and LazyFTL's recovery grows with capacity
// while GeckoFTL's stays bounded by comparison.
func TestRecoverySweepTrends(t *testing.T) {
	points, err := RecoverySweep(Params{Scale: QuickScale()})
	if err != nil {
		t.Fatal(err)
	}
	byDim := map[string][]RecoveryPoint{}
	for _, p := range points {
		byDim[p.Dimension] = append(byDim[p.Dimension], p)
		if p.WallClock <= 0 || p.SerialTime < p.WallClock {
			t.Errorf("%s %s: degenerate times wall=%v serial=%v", p.Dimension, p.FTL, p.WallClock, p.SerialTime)
		}
		if p.RecoveredEntries > p.CacheEntries {
			t.Errorf("%s %s: recovered %d entries with a %d-entry budget", p.Dimension, p.FTL, p.RecoveredEntries, p.CacheEntries)
		}
		if p.Shards == 1 && p.WallClock != p.SerialTime {
			t.Errorf("%s %s: single shard wall %v != serial %v", p.Dimension, p.FTL, p.WallClock, p.SerialTime)
		}
	}

	// Channels dimension: parallel recovery is measurably below the serial
	// scan at the widest point, and beats the single-channel wall-clock.
	chans := byDim["channels"]
	if len(chans) < 2 {
		t.Fatalf("channels dimension has %d points", len(chans))
	}
	first, widest := chans[0], chans[len(chans)-1]
	if widest.Channels <= first.Channels {
		t.Fatalf("channels dimension not ordered: %d then %d", first.Channels, widest.Channels)
	}
	if 2*widest.WallClock >= widest.SerialTime {
		t.Errorf("%d channels: wall %v not measurably below serial %v", widest.Channels, widest.WallClock, widest.SerialTime)
	}
	if 2*widest.WallClock >= first.WallClock {
		t.Errorf("wall-clock did not shrink with channels: %v at %d channels vs %v at %d",
			widest.WallClock, widest.Channels, first.WallClock, first.Channels)
	}
	if widest.ModelWall >= first.ModelWall {
		t.Errorf("model disagrees with the channels trend: %v at %d channels vs %v at %d",
			widest.ModelWall, widest.Channels, first.ModelWall, first.Channels)
	}

	// Checkpoint dimension: the recovered-entry count follows the cache
	// capacity (the checkpointed backwards scan recreates at most C entries
	// within 2C spare reads per shard).
	checkpoints := append([]RecoveryPoint(nil), byDim["checkpoint"]...)
	checkpoints = append(checkpoints, widest) // same topology, the scale's own budget
	for _, a := range checkpoints {
		for _, b := range checkpoints {
			if a.CacheEntries < b.CacheEntries && a.RecoveredEntries > b.RecoveredEntries {
				t.Errorf("smaller cache %d recovered more entries (%d) than cache %d (%d)",
					a.CacheEntries, a.RecoveredEntries, b.CacheEntries, b.RecoveredEntries)
			}
		}
	}

	// Capacity dimension: at every size LazyFTL's synchronize-before-resume
	// recovery costs more than GeckoFTL's, and the gap widens as the device
	// grows — the Figure 1 / Figure 13 middle trend. The analytic model must
	// agree on both counts.
	type pair struct{ gecko, lazy RecoveryPoint }
	byBlocks := map[int]*pair{}
	blocksOrder := []int{}
	for _, p := range byDim["capacity"] {
		pr := byBlocks[p.Blocks]
		if pr == nil {
			pr = &pair{}
			byBlocks[p.Blocks] = pr
			blocksOrder = append(blocksOrder, p.Blocks)
		}
		if p.FTL == "LazyFTL" {
			pr.lazy = p
		} else {
			pr.gecko = p
		}
	}
	if len(blocksOrder) < 2 {
		t.Fatalf("capacity dimension has %d sizes", len(blocksOrder))
	}
	var prevGap, prevModelGap time.Duration
	for i, blocks := range blocksOrder {
		pr := byBlocks[blocks]
		if pr.lazy.WallClock <= pr.gecko.WallClock {
			t.Errorf("%d blocks: LazyFTL recovery %v not above GeckoFTL %v", blocks, pr.lazy.WallClock, pr.gecko.WallClock)
		}
		if pr.lazy.ModelWall <= pr.gecko.ModelWall {
			t.Errorf("%d blocks: model LazyFTL %v not above model GeckoFTL %v", blocks, pr.lazy.ModelWall, pr.gecko.ModelWall)
		}
		gap := pr.lazy.WallClock - pr.gecko.WallClock
		modelGap := pr.lazy.ModelWall - pr.gecko.ModelWall
		if i > 0 {
			if gap <= prevGap {
				t.Errorf("%d blocks: LazyFTL-GeckoFTL gap %v did not widen from %v", blocks, gap, prevGap)
			}
			if modelGap <= prevModelGap {
				t.Errorf("%d blocks: model gap %v did not widen from %v", blocks, modelGap, prevModelGap)
			}
		}
		prevGap, prevModelGap = gap, modelGap
	}
}

// TestRecoveryExperimentsAgree requires the recovery simulation, which warms
// each FTL the way the sweeps do before crashing it, to agree with the
// recovery sweep's one-channel capacity point on the same scale.
func TestRecoveryExperimentsAgree(t *testing.T) {
	scale := FullScale()
	results, err := RecoverySimulation(scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []model.FTLKind{model.GeckoFTL, model.LazyFTL} {
		sweep, err := recoveryPoint("capacity", scale, kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if r.Name != kind.String() {
				continue
			}
			if diff := math.Abs(float64(r.Duration-sweep.WallClock)) / float64(sweep.WallClock); diff > 0.05 {
				t.Errorf("%v: recovery simulation %v, recovery sweep %v (%.1f %% apart, want <= 5 %%)",
					kind, r.Duration, sweep.WallClock, 100*diff)
			}
		}
	}
}
