package ftl

import (
	"fmt"
	"math/rand"
	"testing"

	"geckoftl/internal/flash"
)

// checkPreviousVersions requires every previous translation-page version the
// protection window holds to be still programmed and to carry its page's tag:
// buffer recovery (Appendix C.2.2) reads each of them, so garbage collection
// must not have erased its block. Every protected block must be a
// translation block (wear leveling counts on no user block being
// protected). It returns how many of the protected blocks are full and
// fully invalid, the dead blocks the protection alone keeps from being
// erased.
func checkPreviousVersions(f *FTL) (int, error) {
	for _, tp := range f.table.UpdatedSinceProtection() {
		_, prev, _ := f.table.PreviousVersion(tp)
		if prev.location == flash.InvalidPPN {
			continue
		}
		spare, written, err := f.dev.ReadSpare(prev.location, flash.PurposeRecovery)
		if err != nil {
			return 0, err
		}
		if !written || spare.Logical != flash.InvalidLPN || spare.Tag != uint64(tp) {
			return 0, fmt.Errorf("previous version of translation page %d at %d is gone: written %v, spare %+v",
				tp, prev.location, written, spare)
		}
	}
	dead := 0
	for i := range f.bm.blocks {
		id := flash.BlockID(i)
		if !f.bm.Protected(id) {
			continue
		}
		if g, _ := f.bm.GroupOf(id); g != GroupTranslation {
			return 0, fmt.Errorf("protected block %d is in the %v group", id, g)
		}
		if f.bm.isFull(&f.bm.blocks[i]) && f.bm.blocks[id].valid == 0 {
			dead++
		}
	}
	return dead, nil
}

// TestProtectedPreviousVersionsSurvive drives GeckoFTL under both GC
// schedules and both policies that meet translation blocks (metadata-aware
// erases them when dead, greedy migrates them) on a small device with a small
// cache, so translation pages are synchronized, superseded and collected
// constantly. Writes and trims mix, and the stream is cut once by a power
// failure and a recovery. After every host operation each protected previous
// version must still be on flash, and over the run some protected block must
// have been dead, or the skip this test guards was never needed. Without the
// skip in FullyInvalidBlocks metadata-aware erases a previous version; without
// it in PickVictim greedy keeps picking a protected dead block, which
// finishVictim drains but does not erase, until the collector stalls.
func TestProtectedPreviousVersionsSurvive(t *testing.T) {
	const ops = 6000
	for _, mode := range []GCMode{GCInline, GCIncremental} {
		for _, policy := range []VictimPolicy{VictimMetadataAware, VictimGreedy} {
			t.Run(fmt.Sprintf("%v/%v", mode, policy), func(t *testing.T) {
				opts := GeckoFTLOptions(16)
				opts.GCMode = mode
				opts.VictimPolicy = policy
				f, err := New(newTestDevice(t, 64, 16, 512), opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))
				deadSeen := 0
				for op := range ops {
					if op == ops/2 {
						if err := f.PowerFail(); err != nil {
							t.Fatal(err)
						}
						if _, err := f.Recover(); err != nil {
							t.Fatal(err)
						}
					}
					lpn := flash.LPN(rng.Int63n(f.LogicalPages()))
					if rng.Intn(10) == 0 {
						err = f.Trim(lpn)
					} else {
						err = f.Write(lpn)
					}
					if err != nil {
						t.Fatalf("operation %d: %v", op, err)
					}
					dead, err := checkPreviousVersions(f)
					if err != nil {
						t.Fatalf("after operation %d: %v", op, err)
					}
					deadSeen += dead
				}
				if deadSeen == 0 {
					t.Error("no protected block was ever dead: the stream never needed the protection")
				}
			})
		}
	}
}
