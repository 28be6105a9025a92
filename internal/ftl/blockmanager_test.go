package ftl

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"geckoftl/internal/flash"
)

// wholeDevice returns a partition spanning all of dev. Every FTL runs on a
// partition, an Engine shard's or this one, so a test's lone FTL or block
// manager is built on it.
func wholeDevice(t testing.TB, dev *flash.Device) *flash.Partition {
	t.Helper()
	part, err := dev.Partition(0, dev.Config().Blocks)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// newTestDevice returns a whole-device partition of a new device of the
// given geometry.
func newTestDevice(t testing.TB, blocks, pagesPerBlock, pageSize int) *flash.Partition {
	t.Helper()
	return wholeDevice(t, newTestFlash(t, blocks, pagesPerBlock, pageSize))
}

// newTestFlash returns a new device of the given geometry.
func newTestFlash(t testing.TB, blocks, pagesPerBlock, pageSize int) *flash.Device {
	t.Helper()
	cfg := flash.ScaledConfig(blocks)
	cfg.PagesPerBlock = pagesPerBlock
	cfg.PageSize = pageSize
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestGroupNamesAndTypes(t *testing.T) {
	if GroupUser.String() != "user" || GroupTranslation.String() != "translation" || GroupMeta.String() != "meta" {
		t.Error("group names wrong")
	}
	if Group(9).String() == "" {
		t.Error("unknown group has empty name")
	}
	if GroupUser.blockType() != flash.BlockUser || GroupTranslation.blockType() != flash.BlockTranslation || GroupMeta.blockType() != flash.BlockGecko {
		t.Error("group block types wrong")
	}
	if VictimGreedy.String() != "greedy" || VictimMetadataAware.String() != "metadata-aware" {
		t.Error("victim policy names wrong")
	}
}

func TestBlockManagerAllocation(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	if bm.FreeBlocks() != 8 {
		t.Fatalf("FreeBlocks = %d, want 8", bm.FreeBlocks())
	}
	// Allocate five user pages: they fill one block and start a second.
	var ppns []flash.PPN
	for i := 0; i < 5; i++ {
		ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: flash.LPN(i)}, flash.PurposeUserWrite)
		if err != nil {
			t.Fatal(err)
		}
		ppns = append(ppns, ppn)
	}
	firstBlock := flash.BlockOf(ppns[0], 4)
	secondBlock := flash.BlockOf(ppns[4], 4)
	if firstBlock == secondBlock {
		t.Error("five pages with 4 pages/block stayed in one block")
	}
	if g, ok := bm.GroupOf(firstBlock); !ok || g != GroupUser {
		t.Errorf("first block group = %v, %v", g, ok)
	}
	if bm.blocks[firstBlock].valid != 4 {
		t.Errorf("BVC of full block = %d, want 4", bm.blocks[firstBlock].valid)
	}
	if bm.FreeBlocks() != 6 {
		t.Errorf("FreeBlocks = %d, want 6", bm.FreeBlocks())
	}
	// The block type is stamped on the first page of each block.
	spare, ok, err := dev.ReadSpare(ppns[0], flash.PurposeRecovery)
	if err != nil || !ok || spare.BlockType != flash.BlockUser {
		t.Errorf("first page spare = %+v", spare)
	}
}

func TestBlockManagerGroupsAreSeparate(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	up, _ := bm.AllocatePage(GroupUser, flash.SpareArea{}, flash.PurposeUserWrite)
	tp, _ := bm.AllocatePage(GroupTranslation, flash.SpareArea{}, flash.PurposeTranslation)
	mp, _ := bm.AllocatePage(GroupMeta, flash.SpareArea{}, flash.PurposePageValidity)
	blocks := map[flash.BlockID]bool{}
	for _, ppn := range []flash.PPN{up, tp, mp} {
		blocks[flash.BlockOf(ppn, 4)] = true
	}
	if len(blocks) != 3 {
		t.Errorf("groups share blocks: %v", blocks)
	}
	if got := slices.Collect(bm.BlocksInGroup(GroupUser)); len(got) != 1 {
		t.Errorf("user group blocks = %v", got)
	}
}

func TestBlockManagerInvalidateAndErase(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	var ppns []flash.PPN
	for i := 0; i < 8; i++ { // two full user blocks
		ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{}, flash.PurposeUserWrite)
		if err != nil {
			t.Fatal(err)
		}
		ppns = append(ppns, ppn)
	}
	block := flash.BlockOf(ppns[0], 4)
	for _, ppn := range ppns[:4] {
		if err := bm.InvalidatePage(ppn); err != nil {
			t.Fatal(err)
		}
	}
	if bm.blocks[block].valid != 0 {
		t.Errorf("BVC = %d, want 0", bm.blocks[block].valid)
	}
	if err := bm.InvalidatePage(ppns[0]); err == nil {
		t.Error("BVC underflow not detected")
	}
	fully := bm.FullyInvalidBlocks(GroupUser)
	if len(fully) != 1 || fully[0] != block {
		t.Errorf("FullyInvalidBlocks = %v, want [%d]", fully, block)
	}
	if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if bm.FreeBlocks() != 6+1 {
		t.Errorf("FreeBlocks after erase = %d", bm.FreeBlocks())
	}
	if _, allocated := bm.GroupOf(block); allocated {
		t.Error("erased block still allocated")
	}
	if bm.erases != 1 {
		t.Errorf("Erases = %d, want 1", bm.erases)
	}
}

func TestBlockManagerEraseGuards(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	if err := bm.Erase(3, flash.PurposeGCErase); err == nil {
		t.Error("erasing an unallocated block accepted")
	}
	ppn, _ := bm.AllocatePage(GroupUser, flash.SpareArea{}, flash.PurposeUserWrite)
	active := flash.BlockOf(ppn, 4)
	if err := bm.Erase(active, flash.PurposeGCErase); err == nil {
		t.Error("erasing the active block accepted")
	}
	if err := bm.InvalidatePage(flash.PPNOf(5, 0, 4)); err == nil {
		t.Error("invalidating a page of an unallocated block accepted")
	}
}

func TestVictimPolicies(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	// Fill one user block (4 pages, 1 invalid), one translation block
	// (4 pages, all invalid) and leave actives partially filled.
	var userPPNs, transPPNs []flash.PPN
	for i := 0; i < 5; i++ {
		ppn, _ := bm.AllocatePage(GroupUser, flash.SpareArea{}, flash.PurposeUserWrite)
		userPPNs = append(userPPNs, ppn)
	}
	for i := 0; i < 5; i++ {
		ppn, _ := bm.AllocatePage(GroupTranslation, flash.SpareArea{}, flash.PurposeTranslation)
		transPPNs = append(transPPNs, ppn)
	}
	bm.InvalidatePage(userPPNs[0])
	for _, ppn := range transPPNs[:4] {
		bm.InvalidatePage(ppn)
	}
	userBlock := flash.BlockOf(userPPNs[0], 4)
	transBlock := flash.BlockOf(transPPNs[0], 4)

	// Greedy picks the emptiest block regardless of group: the translation
	// block with 0 valid pages.
	victim, ok := bm.PickVictim(VictimGreedy)
	if !ok || victim != transBlock {
		t.Errorf("greedy victim = %d, %v; want translation block %d", victim, ok, transBlock)
	}
	// Metadata-aware only ever picks user blocks.
	victim, ok = bm.PickVictim(VictimMetadataAware)
	if !ok || victim != userBlock {
		t.Errorf("metadata-aware victim = %d, %v; want user block %d", victim, ok, userBlock)
	}
	// Protection is honored, survives a crash, and ClearProtection ends it.
	bm.Protect(userBlock)
	if _, ok := bm.PickVictim(VictimMetadataAware); ok {
		t.Error("protected block still picked")
	}
	bm.CrashRAM()
	if !bm.Protected(userBlock) {
		t.Error("CrashRAM dropped the protection")
	}
	bm.ClearProtection()
	if bm.Protected(userBlock) {
		t.Error("ClearProtection left the block protected")
	}
}

func TestBlockManagerCrashAndRecencyOrder(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	for i := 0; i < 9; i++ {
		if _, err := bm.AllocatePage(GroupUser, flash.SpareArea{}, flash.PurposeUserWrite); err != nil {
			t.Fatal(err)
		}
	}
	recency := slices.Collect(bm.userBlocksByRecency())
	if len(recency) != 3 {
		t.Fatalf("user blocks = %d, want 3", len(recency))
	}
	for i := 1; i < len(recency); i++ {
		if bm.blocks[recency[i-1]].firstWriteSeq < bm.blocks[recency[i]].firstWriteSeq {
			t.Error("recency order not newest-first")
		}
	}
	bm.CrashRAM()
	if bm.FreeBlocks() != 0 {
		t.Error("CrashRAM should drop the free list (it is RAM state)")
	}
	if _, allocated := bm.GroupOf(0); allocated {
		t.Error("CrashRAM left allocation state")
	}
}

// TestRecencyOrderMatchesSort gives random user blocks random first-write
// sequences, many of them tied (zero among them), and requires the lazy
// selection to yield the order of a sort by sequence, newest first, ties to
// the lowest block ID, and to yield it again after a walk stopped early.
func TestRecencyOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 200 {
		dev := newTestDevice(t, 1+rng.Intn(300), 4, 512)
		bm := newBlockManager(dev, 0, false, false)
		var want []flash.BlockID
		for i := range bm.blocks {
			switch rng.Intn(4) {
			case 0: // free
				continue
			case 1:
				bm.blocks[i].group = GroupTranslation
			default:
				want = append(want, flash.BlockID(i))
			}
			bm.blocks[i].allocated = true
			bm.blocks[i].firstWriteSeq = uint64(rng.Intn(1 + len(bm.blocks)/4))
		}
		slices.SortFunc(want, func(a, b flash.BlockID) int {
			return cmp.Or(cmp.Compare(bm.blocks[b].firstWriteSeq, bm.blocks[a].firstWriteSeq), cmp.Compare(a, b))
		})
		for range bm.userBlocksByRecency() {
			if rng.Intn(8) == 0 {
				break
			}
		}
		if got := slices.Collect(bm.userBlocksByRecency()); !slices.Equal(got, want) {
			t.Fatalf("trial %d: recency order %v, the sort's %v", trial, got, want)
		}
	}
}

func TestBlockManagerRAMBytes(t *testing.T) {
	dev := newTestDevice(t, 128, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	if got := bm.RAMBytes(); got != 128*3 {
		t.Errorf("RAMBytes = %d, want %d", got, 128*3)
	}
}
