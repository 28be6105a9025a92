package ftl

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"geckoftl/internal/flash"
)

// naivePickVictim is PickVictim as it was before the exclusion tests moved
// behind the score comparison: every full block is tested against the active
// frontiers and the excluded set first. It is the oracle for the lazy scan.
func naivePickVictim(bm *blockManager, policy VictimPolicy, excluded map[flash.BlockID]bool) (flash.BlockID, bool) {
	best := flash.InvalidBlock
	bestValid := -1
	bestScore := -1.0
	for i := range bm.blocks {
		info := &bm.blocks[i]
		if !info.allocated || info.writePointer < bm.cfg.PagesPerBlock {
			continue
		}
		id := flash.BlockID(i)
		if bm.isActive(id) || excluded[id] {
			continue
		}
		if !policy.MigratesMetadata() && info.group != GroupUser {
			continue
		}
		switch policy {
		case VictimCostBenefit:
			score := bm.costBenefitScore(info)
			if best == flash.InvalidBlock || score > bestScore {
				best = id
				bestScore = score
			}
		default:
			if best == flash.InvalidBlock || info.valid < bestValid {
				best = id
				bestValid = info.valid
			}
		}
	}
	return best, best != flash.InvalidBlock
}

// naiveFullyInvalidBlocks is FullyInvalidBlocks without the dead-count
// shortcut: an unconditional scan of every block.
func naiveFullyInvalidBlocks(bm *blockManager, g Group) []flash.BlockID {
	var out []flash.BlockID
	for i := range bm.blocks {
		info := &bm.blocks[i]
		if info.allocated && info.group == g && info.valid == 0 &&
			info.writePointer >= bm.cfg.PagesPerBlock && !bm.isActive(flash.BlockID(i)) {
			out = append(out, flash.BlockID(i))
		}
	}
	return out
}

// TestVictimScansMatchNaive compares the lazy victim scan and the
// count-guarded dead-block scan with their naive forms over random block
// tables: few distinct valid counts and ages so scores tie, full and partial
// blocks of every group, active frontiers that are full, and exclusion sets
// that cover the best candidates.
func TestVictimScansMatchNaive(t *testing.T) {
	const blocks, pagesPerBlock = 96, 8
	policies := []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bm := newBlockManager(newTestDevice(t, blocks, pagesPerBlock, 512), 2, seed%2 == 0, false)
		bm.programs = 1000
		for i := range bm.blocks {
			info := &bm.blocks[i]
			info.allocated = rng.Intn(8) != 0
			info.group = Group(rng.Intn(int(numGroups)))
			if rng.Intn(4) != 0 {
				info.group = GroupUser
			}
			info.writePointer = pagesPerBlock
			if rng.Intn(6) == 0 {
				info.writePointer = rng.Intn(pagesPerBlock)
			}
			// Mostly-dead tables on some seeds, so that zero-valid ties and
			// dead metadata blocks are common.
			if info.valid = rng.Intn(3); seed%3 != 0 {
				info.valid = rng.Intn(info.writePointer + 1)
			}
			info.lastProgram = uint64(900 + 25*rng.Intn(4))
		}
		for fr := range bm.active {
			if rng.Intn(3) != 0 {
				bm.active[fr] = flash.BlockID(rng.Intn(blocks))
			}
		}
		bm.recountDead()

		exclusions := []map[flash.BlockID]bool{nil, {}}
		some := map[flash.BlockID]bool{}
		for range 10 {
			some[flash.BlockID(rng.Intn(blocks))] = true
		}
		exclusions = append(exclusions, some)
		// Exclude what each policy would pick, and then the runners-up too.
		best := map[flash.BlockID]bool{}
		for range 2 {
			for _, policy := range policies {
				if id, ok := naivePickVictim(bm, policy, best); ok {
					best[id] = true
				}
			}
			exclusions = append(exclusions, maps.Clone(best))
		}

		for _, policy := range policies {
			for _, excluded := range exclusions {
				want, wantOK := naivePickVictim(bm, policy, excluded)
				got, gotOK := bm.PickVictim(policy, excluded)
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d %v excluding %d blocks: PickVictim = %d,%v, naive scan = %d,%v",
						seed, policy, len(excluded), got, gotOK, want, wantOK)
				}
			}
		}
		for g := Group(0); g < numGroups; g++ {
			if got, want := bm.FullyInvalidBlocks(g), naiveFullyInvalidBlocks(bm, g); !slices.Equal(got, want) {
				t.Fatalf("seed %d group %v: FullyInvalidBlocks = %v, naive scan = %v", seed, g, got, want)
			}
		}
	}
}

// TestDeadCountsFollowBlockState drives the block manager through its own
// methods — fills, invalidations down to zero, frontier rotation, erases —
// and checks after every step that the maintained dead counts equal a
// recount, and that FullyInvalidBlocks agrees with the naive scan.
func TestDeadCountsFollowBlockState(t *testing.T) {
	const blocks, pagesPerBlock = 24, 4
	rng := rand.New(rand.NewSource(7))
	bm := newBlockManager(newTestDevice(t, blocks, pagesPerBlock, 512), 2, false, false)
	var live []flash.PPN
	check := func(step int, what string) {
		t.Helper()
		maintained := bm.dead
		bm.recountDead()
		if bm.dead != maintained {
			t.Fatalf("step %d after %s: dead counts %v, recount %v", step, what, maintained, bm.dead)
		}
		for g := Group(0); g < numGroups; g++ {
			if got, want := bm.FullyInvalidBlocks(g), naiveFullyInvalidBlocks(bm, g); !slices.Equal(got, want) {
				t.Fatalf("step %d after %s: FullyInvalidBlocks(%v) = %v, naive scan = %v", step, what, g, got, want)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 && bm.FreeBlocks() > 1:
			g := Group(rng.Intn(int(numGroups)))
			ppn, err := bm.AllocatePage(g, flash.SpareArea{Logical: flash.LPN(step)}, g.purpose())
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, ppn)
			check(step, "allocate")
		case op < 9 && len(live) > 0:
			i := rng.Intn(len(live))
			if err := bm.InvalidatePage(live[i]); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, i, i+1)
			check(step, "invalidate")
		default:
			for g := Group(0); g < numGroups; g++ {
				for _, block := range bm.FullyInvalidBlocks(g) {
					if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
						t.Fatal(err)
					}
					check(step, "erase")
				}
			}
		}
	}
	bm.CrashRAM()
	check(-1, "crash")
}
