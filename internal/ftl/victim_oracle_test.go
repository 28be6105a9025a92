package ftl

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"geckoftl/internal/flash"
)

// naivePickVictim is PickVictim as a pass over the whole block table, every
// full block tested against the active frontiers and the protected set first:
// what the manager did before it indexed its full blocks. It is the oracle
// for the index (and, under cost-benefit, for the lazy scored pass).
func naivePickVictim(bm *blockManager, policy VictimPolicy, protected map[flash.BlockID]bool) (flash.BlockID, bool) {
	best := flash.InvalidBlock
	bestValid := -1
	bestScore := -1.0
	for i := range bm.blocks {
		info := &bm.blocks[i]
		if !info.allocated || info.writePointer < bm.cfg.PagesPerBlock {
			continue
		}
		id := flash.BlockID(i)
		if bm.isActive(id) || protected[id] {
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

// naiveFullyInvalidBlocks is FullyInvalidBlocks without the index: an
// unconditional scan of every block.
func naiveFullyInvalidBlocks(bm *blockManager, g Group, protected map[flash.BlockID]bool) []flash.BlockID {
	var out []flash.BlockID
	for i := range bm.blocks {
		info := &bm.blocks[i]
		if info.allocated && info.group == g && info.valid == 0 && info.writePointer >= bm.cfg.PagesPerBlock &&
			!bm.isActive(flash.BlockID(i)) && !protected[flash.BlockID(i)] {
			out = append(out, flash.BlockID(i))
		}
	}
	return out
}

// checkIndex audits the full-block index against the block table: every
// allocated full block sits in exactly one bucket, the one for its group and
// valid count, no other bit is set, and every bucket's population count is
// the number of its bits.
func (bm *blockManager) checkIndex() error {
	for g := Group(0); g < numGroups; g++ {
		for valid := 0; valid < bm.full.valids; valid++ {
			bits, n := bm.full.bucket(g, valid)
			set := 0
			for i := range len(bits) * 64 {
				if bits[i/64]&(1<<uint(i%64)) == 0 {
					continue
				}
				set++
				if i >= len(bm.blocks) {
					return fmt.Errorf("bucket (%v, %d valid) holds block %d of %d", g, valid, i, len(bm.blocks))
				}
				if info := &bm.blocks[i]; !bm.isFull(info) || info.group != g || info.valid != valid {
					return fmt.Errorf("bucket (%v, %d valid) holds block %d: allocated %v, group %v, %d valid, write pointer %d",
						g, valid, i, info.allocated, info.group, info.valid, info.writePointer)
				}
			}
			if int(*n) != set {
				return fmt.Errorf("bucket (%v, %d valid) counts %d blocks, holds %d", g, valid, *n, set)
			}
		}
	}
	for i := range bm.blocks {
		info := &bm.blocks[i]
		if !bm.isFull(info) {
			continue
		}
		if bits, _ := bm.full.bucket(info.group, info.valid); bits[i/64]&(1<<uint(i%64)) == 0 {
			return fmt.Errorf("full block %d (%v, %d valid) is not in its bucket", i, info.group, info.valid)
		}
	}
	return nil
}

// checkVictims compares, on the manager's current state, PickVictim under
// every policy and FullyInvalidBlocks for every group with the naive scans,
// with each of the protection sets protected through the manager in turn.
// It leaves no block protected.
func checkVictims(bm *blockManager, protections []map[flash.BlockID]bool) error {
	defer bm.ClearProtection()
	for _, protected := range protections {
		bm.ClearProtection()
		for id := range protected {
			bm.Protect(id)
		}
		for _, policy := range []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit} {
			want, wantOK := naivePickVictim(bm, policy, protected)
			got, gotOK := bm.PickVictim(policy)
			if got != want || gotOK != wantOK {
				return fmt.Errorf("%v with %d blocks protected: PickVictim = %d,%v, naive scan = %d,%v",
					policy, len(protected), got, gotOK, want, wantOK)
			}
		}
		for g := Group(0); g < numGroups; g++ {
			if got, want := bm.FullyInvalidBlocks(g), naiveFullyInvalidBlocks(bm, g, protected); !slices.Equal(got, want) {
				return fmt.Errorf("FullyInvalidBlocks(%v) with %d blocks protected = %v, naive scan = %v", g, len(protected), got, want)
			}
		}
	}
	return nil
}

// TestVictimScansMatchNaive compares the indexed victim choice and the
// indexed dead-block list with their naive forms over random block tables:
// few distinct valid counts and ages so scores tie, full and partial blocks
// of every group, active frontiers that are full, and protection sets that
// cover the best candidates. Each table is then changed through the
// manager's own methods — programs that fill the frontiers, invalidations,
// erases — and compared again, with the index audited at every stage.
func TestVictimScansMatchNaive(t *testing.T) {
	const blocks, pagesPerBlock = 96, 8
	policies := []VictimPolicy{VictimGreedy, VictimMetadataAware, VictimCostBenefit}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bm := newBlockManager(newTestDevice(t, blocks, pagesPerBlock, 512), 2, seed%2 == 0, false)
		bm.lastSeq = 1000
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
		bm.reindexFullBlocks()

		protections := []map[flash.BlockID]bool{nil}
		some := map[flash.BlockID]bool{}
		for range 10 {
			some[flash.BlockID(rng.Intn(blocks))] = true
		}
		protections = append(protections, some)
		// Protect what each policy would pick, and then the runners-up too;
		// then every other dead block of each group.
		best := map[flash.BlockID]bool{}
		for range 2 {
			for _, policy := range policies {
				if id, ok := naivePickVictim(bm, policy, best); ok {
					best[id] = true
				}
			}
			protections = append(protections, maps.Clone(best))
		}
		dead := map[flash.BlockID]bool{}
		for g := Group(0); g < numGroups; g++ {
			for i, id := range naiveFullyInvalidBlocks(bm, g, nil) {
				if i%2 == 0 {
					dead[id] = true
				}
			}
		}
		protections = append(protections, dead)
		check := func(stage string) {
			t.Helper()
			if err := bm.checkIndex(); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, stage, err)
			}
			if err := checkVictims(bm, protections); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, stage, err)
			}
		}
		check("random table")

		// The table above is not a state the device is in (the manager's
		// write pointers are invented), so from here on the frontiers start
		// on fresh blocks of a device that is: free what is not allocated.
		for fr := range bm.active {
			bm.active[fr] = flash.InvalidBlock
		}
		bm.free = bm.free[:0]
		for i := range bm.blocks {
			if info := &bm.blocks[i]; !info.allocated {
				*info = blockInfo{}
				bm.free = append(bm.free, flash.BlockID(i))
			}
		}
		for step := 0; step < 60 && bm.FreeBlocks() > 1; step++ {
			g := Group(rng.Intn(int(numGroups)))
			ppn, err := bm.AllocatePage(g, flash.SpareArea{Logical: flash.LPN(step)}, flash.PurposeUserWrite)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(2) == 0 {
				if err := bm.InvalidatePage(ppn); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("after programs")
		for i := range bm.blocks {
			if info := &bm.blocks[i]; info.allocated && info.valid > 0 && rng.Intn(2) == 0 {
				// Which page dies does not matter to the manager.
				if err := bm.InvalidatePage(flash.PPNOf(flash.BlockID(i), 0, pagesPerBlock)); err != nil {
					t.Fatal(err)
				}
			}
		}
		check("after invalidations")
		erased := 0
		for g := Group(0); g < numGroups; g++ {
			for _, block := range bm.FullyInvalidBlocks(g) {
				if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
					t.Fatal(err)
				}
				erased++
			}
		}
		check(fmt.Sprintf("after %d erases", erased))
	}
}

// TestFullBlockIndexFollowsBlockState is the differential through the real
// mutators: a bare block manager on a tiny geometry, both user frontiers on,
// driven by a seeded stream of AllocatePage, AllocateUserPage, InvalidatePage
// and Erase while the device fails programs and erases (by rate, and at
// scripted counts). After every step the index is audited and every policy's
// victim and every group's dead-block list is compared with the naive scans,
// under a random protection set. It ends with a crash and a reindex.
func TestFullBlockIndexFollowsBlockState(t *testing.T) {
	const blocks, pagesPerBlock = 48, 4
	steps := 50000
	if testing.Short() {
		steps = 5000
	}
	device := newTestFlash(t, blocks, pagesPerBlock, 512)
	dev := wholeDevice(t, device)
	plan := flash.FaultPlan{Seed: 11, ProgramFailRate: 0.03, EraseFailRate: 0.0005}
	for _, at := range []uint64{1, 2, 3, 4, 9, 10, 11, 12} {
		// Whole blocks of failed programs: a block that fills without ever
		// holding a valid page.
		plan.Schedule = append(plan.Schedule, flash.FaultEvent{Op: flash.OpPageWrite, AtCount: at})
	}
	plan.Schedule = append(plan.Schedule, flash.FaultEvent{Op: flash.OpErase, AtCount: 2})
	if err := device.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	bm := newBlockManager(dev, 2, true, false)
	var live []flash.PPN
	check := func(step int, what string) {
		t.Helper()
		if err := bm.checkIndex(); err != nil {
			t.Fatalf("step %d after %s: %v", step, what, err)
		}
		protected := map[flash.BlockID]bool{}
		for range rng.Intn(6) {
			protected[flash.BlockID(rng.Intn(blocks))] = true
		}
		if err := checkVictims(bm, []map[flash.BlockID]bool{protected}); err != nil {
			t.Fatalf("step %d after %s: %v", step, what, err)
		}
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4 && bm.FreeBlocks() > 2:
			var ppn flash.PPN
			var err error
			if g := Group(rng.Intn(int(numGroups))); g == GroupUser {
				ppn, err = bm.AllocateUserPage(Temperature(rng.Intn(2)), flash.SpareArea{Logical: flash.LPN(step)}, flash.PurposeUserWrite)
			} else {
				ppn, err = bm.AllocatePage(g, flash.SpareArea{Logical: flash.LPN(step)}, flash.PurposeUserWrite)
			}
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
				// check asks for the list again, and the list is valid until
				// the next call: range over a copy.
				for _, block := range slices.Clone(bm.FullyInvalidBlocks(g)) {
					if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
						t.Fatal(err)
					}
					check(step, "erase")
				}
			}
		}
	}
	if bm.ProgramRetries() == 0 || bm.BadBlocks() == 0 {
		t.Fatalf("the stream met %d failed programs and %d retired blocks; it should meet both", bm.ProgramRetries(), bm.BadBlocks())
	}
	bm.CrashRAM()
	check(-1, "crash")
}
