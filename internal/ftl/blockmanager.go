package ftl

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"slices"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// Group identifies the three block groups of Figure 8 of the paper.
type Group int

const (
	// GroupUser holds application data pages.
	GroupUser Group = iota
	// GroupTranslation holds translation pages.
	GroupTranslation
	// GroupMeta holds page-validity metadata: Logarithmic Gecko runs, the
	// flash-resident PVB or the page validity log.
	GroupMeta
	numGroups
)

var groupNames = [...]string{
	GroupUser:        "user",
	GroupTranslation: "translation",
	GroupMeta:        "meta",
}

// String returns the group name.
func (g Group) String() string {
	if g >= 0 && int(g) < len(groupNames) {
		return groupNames[g]
	}
	return fmt.Sprintf("group(%d)", int(g))
}

// blockType maps a group to the block type recorded in spare areas.
func (g Group) blockType() flash.BlockType {
	switch g {
	case GroupUser:
		return flash.BlockUser
	case GroupTranslation:
		return flash.BlockTranslation
	default:
		return flash.BlockGecko
	}
}

// Temperature classifies user data by update frequency. With hot/cold
// separation enabled the block manager keeps one user write frontier per
// temperature, so blocks fill with pages of similar lifetimes: hot blocks
// invalidate almost entirely before the garbage collector reaches them, and
// cold blocks are never mixed with churn. Translation and metadata groups are
// unaffected (the paper already separates them from user data).
type Temperature int

const (
	// TempCold is the default temperature: user writes the heat classifier
	// does not recognize as hot, and garbage-collection migrations (a page
	// that survived long enough to be migrated is cold by definition).
	TempCold Temperature = iota
	// TempHot marks frequently updated logical pages.
	TempHot
)

// String returns "cold" or "hot".
func (t Temperature) String() string {
	if t == TempHot {
		return "hot"
	}
	return "cold"
}

// The block manager keeps one append-only write frontier per group, plus one
// extra user frontier for hot data when hot/cold separation is on. Frontier
// indices below numGroups coincide with the group (user frontier = cold).
const (
	frontierUserHot = int(numGroups)
	numFrontiers    = int(numGroups) + 1
)

// frontierFor maps a group and temperature to the frontier index.
func frontierFor(g Group, temp Temperature) int {
	if g == GroupUser && temp == TempHot {
		return frontierUserHot
	}
	return int(g)
}

// blockInfo is the per-block RAM state of the block manager.
type blockInfo struct {
	group Group
	// allocated reports whether the block currently belongs to a group (it
	// is not in the free pool).
	allocated bool
	// writePointer is the next free page offset within the block.
	writePointer int
	// valid is the Blocks Validity Counter entry: the number of pages in
	// the block holding live data.
	valid int
	// firstWriteSeq is the write sequence of the block's first page since
	// its last erase; recovery uses it to order blocks by age.
	firstWriteSeq uint64
	// lastProgram is the write sequence of the block's most recent page;
	// the cost-benefit victim policy uses it as the block's age anchor.
	// Recovery approximates it with firstWriteSeq (the spare scan reads only
	// first pages), which only makes recovered blocks look older, i.e.
	// better victims.
	lastProgram uint64
	// eraseCount mirrors the device's per-block erase counter in RAM so
	// that wear-aware allocation never costs IO on the write path. It is
	// lost at power failure and re-based from the device during recovery.
	eraseCount int
	// retired marks a grown bad block: its erase failed (or it was caught
	// worn out), so it holds no live data and never re-enters the free pool
	// or the wear heap. Like all blockInfo state it is lost at power
	// failure; recovery re-marks it from the device's bad-block table.
	retired bool
}

// fullBlocks indexes the allocated, full blocks — the only ones garbage
// collection may reclaim — by group and Blocks-Validity-Counter value: one
// bitset over the block IDs per (group, valid) bucket, holding exactly the
// full blocks of that group with that many valid pages, active frontiers
// included. The lowest block of the lowest non-empty bucket is the greedy
// victim, and bucket zero of a group is its fully-invalid blocks, so neither
// question scans the block table. count holds each bucket's population so
// that the empty ones, nearly all of them, cost one load to pass over.
//
// Like the block table's Go representation it is the simulator's
// bookkeeping: blockManager.RAMBytes, the paper's model, does not count it.
type fullBlocks struct {
	words  int // per bucket: one bit per block
	valids int // buckets per group: valid counts 0..PagesPerBlock
	bits   []uint64
	count  []int32
}

func newFullBlocks(blocks, pagesPerBlock int) fullBlocks {
	x := fullBlocks{words: (blocks + 63) / 64, valids: pagesPerBlock + 1}
	x.bits = make([]uint64, int(numGroups)*x.valids*x.words)
	x.count = make([]int32, int(numGroups)*x.valids)
	return x
}

// bucket returns the bitset of the group's full blocks with the given valid
// count, and its population.
func (x *fullBlocks) bucket(g Group, valid int) ([]uint64, *int32) {
	i := int(g)*x.valids + valid
	return x.bits[i*x.words : (i+1)*x.words], &x.count[i]
}

func (x *fullBlocks) add(g Group, valid int, id flash.BlockID) {
	bits, n := x.bucket(g, valid)
	bits[id/64] |= 1 << uint(id%64)
	*n++
}

func (x *fullBlocks) remove(g Group, valid int, id flash.BlockID) {
	bits, n := x.bucket(g, valid)
	bits[id/64] &^= 1 << uint(id%64)
	*n--
}

func (x *fullBlocks) clear() {
	clear(x.bits)
	clear(x.count)
}

// blockManager owns the physical layout of GeckoFTL-style FTLs: it separates
// blocks into user / translation / metadata groups, each with an active block
// written append-only (two user frontiers when hot/cold separation is on),
// keeps the Blocks Validity Counter and per-block wear state, and hands out
// garbage-collection victims.
type blockManager struct {
	dev    *flash.Partition
	cfg    flash.Config
	blocks []blockInfo
	free   []flash.BlockID
	active [numFrontiers]flash.BlockID

	// hotCold enables the second (hot) user write frontier.
	hotCold bool
	// wearAware makes takeFreeBlock pick the least-erased free block
	// instead of the most recently freed one.
	wearAware bool

	// gcReserve is the number of free blocks below which garbage-collection
	// must run before further allocations.
	gcReserve int

	// lastSeq is the write sequence of the most recent page this manager
	// programmed (bumped opportunistically during recovery scans). The
	// sequence is the partition's own, so it advances by one per page the
	// shard programs, and it is the cost-benefit policy's age clock: a
	// block's age is lastSeq − lastProgram. Synchronization operations stamp
	// it into translation-page spares as the content sequence: the instant
	// up to which the page's mapping content is known current. Unlike the
	// page's own WriteSeq it survives garbage-collection copies, which
	// refresh WriteSeq but not content.
	lastSeq uint64

	erases int64
	// frees counts blocks returned to the free pool; the wear-conservation
	// invariant (every erase frees exactly one block) ties it to erases.
	// Retiring a bad block increments neither counter, so the invariant
	// survives fault injection.
	frees int64
	// programRetries counts page programs that failed and were retried on
	// the next frontier page.
	programRetries int64

	// full finds victims and fully-invalid blocks without a pass over
	// blocks. The methods that change a block's state keep it; code that
	// rewrites blocks wholesale (recovery, checkpoint import) calls
	// reindexFullBlocks afterwards.
	full fullBlocks
	// deadBuf is FullyInvalidBlocks' reused result, and recentBuf
	// userBlocksByRecency's.
	deadBuf, recentBuf []flash.BlockID
	// protected marks the blocks holding a previous translation-page version
	// that buffer recovery reads (Appendix C.2.2); garbage collection skips
	// them until ClearProtection. It models flash the FTL deliberately leaves
	// unerased, so CrashRAM keeps it.
	protected *bitmap.Bitmap
}

// newBlockManager creates a block manager with every block free.
func newBlockManager(dev *flash.Partition, gcReserve int, hotCold, wearAware bool) *blockManager {
	cfg := dev.Config()
	bm := &blockManager{
		dev:       dev,
		cfg:       cfg,
		blocks:    make([]blockInfo, cfg.Blocks),
		full:      newFullBlocks(cfg.Blocks, cfg.PagesPerBlock),
		protected: bitmap.New(cfg.Blocks),
		hotCold:   hotCold,
		wearAware: wearAware,
		gcReserve: gcReserve,
	}
	for i := cfg.Blocks - 1; i >= 0; i-- {
		bm.free = append(bm.free, flash.BlockID(i))
	}
	bm.restoreFreeOrder()
	for g := range bm.active {
		bm.active[g] = flash.InvalidBlock
	}
	return bm
}

// restoreFreeOrder re-establishes the free pool's ordering invariant after a
// bulk rebuild (construction, recovery): a heap under wear-aware allocation,
// anything under LIFO.
func (bm *blockManager) restoreFreeOrder() {
	if bm.wearAware {
		heap.Init(freeHeap{bm})
	}
}

// isFull reports whether a block belongs in the full-block index: allocated
// and written to its last page.
func (bm *blockManager) isFull(info *blockInfo) bool {
	return info.allocated && info.writePointer >= bm.cfg.PagesPerBlock
}

// reindexFullBlocks rebuilds the full-block index from the per-block state.
func (bm *blockManager) reindexFullBlocks() {
	bm.full.clear()
	for i := range bm.blocks {
		if info := &bm.blocks[i]; bm.isFull(info) {
			bm.full.add(info.group, info.valid, flash.BlockID(i))
		}
	}
}

// FreeBlocks returns the number of blocks in the free pool.
func (bm *blockManager) FreeBlocks() int { return len(bm.free) }

// NeedsGC reports whether the free pool has dropped to the reserve.
func (bm *blockManager) NeedsGC() bool { return len(bm.free) <= bm.gcReserve }

// ProgramRetries returns the number of failed page programs the manager
// stepped over by retrying on the next frontier page.
func (bm *blockManager) ProgramRetries() int64 { return bm.programRetries }

// BadBlocks returns the number of retired (grown bad) blocks. Computed from
// the per-block state rather than counted, so it always matches the set of
// retired blocks — including after a crash and recovery re-marks them from
// the device's bad-block table.
func (bm *blockManager) BadBlocks() int {
	n := 0
	for i := range bm.blocks {
		if bm.blocks[i].retired {
			n++
		}
	}
	return n
}

// GroupOf returns the group a block currently belongs to and whether it is
// allocated at all.
func (bm *blockManager) GroupOf(block flash.BlockID) (Group, bool) {
	info := &bm.blocks[block]
	return info.group, info.allocated
}

// WritePointer returns the block's write pointer as known to the FTL.
func (bm *blockManager) WritePointer(block flash.BlockID) int { return bm.blocks[block].writePointer }

// BlocksInGroup yields the blocks currently allocated to a group, including
// its active block(s), in ascending order.
func (bm *blockManager) BlocksInGroup(g Group) iter.Seq[flash.BlockID] {
	return func(yield func(flash.BlockID) bool) {
		for i := range bm.blocks {
			if bm.blocks[i].allocated && bm.blocks[i].group == g && !yield(flash.BlockID(i)) {
				return
			}
		}
	}
}

// freeHeap orders the manager's free list as a min-heap keyed by
// (eraseCount, blockID), so wear-aware allocation pops the least-erased free
// block — ties to the lowest block ID — in O(log n) instead of scanning the
// pool. Erase counts of pooled blocks never change (only allocated blocks
// are erased), so the heap invariant holds between operations. The struct
// holds the manager pointer; heap.Interface's value receivers mutate the
// slice through it.
type freeHeap struct{ bm *blockManager }

func (h freeHeap) Len() int { return len(h.bm.free) }
func (h freeHeap) Less(i, j int) bool {
	a, b := h.bm.free[i], h.bm.free[j]
	if ea, eb := h.bm.blocks[a].eraseCount, h.bm.blocks[b].eraseCount; ea != eb {
		return ea < eb
	}
	return a < b
}
func (h freeHeap) Swap(i, j int) { h.bm.free[i], h.bm.free[j] = h.bm.free[j], h.bm.free[i] }
func (h freeHeap) Push(x any)    { h.bm.free = append(h.bm.free, x.(flash.BlockID)) }
func (h freeHeap) Pop() any {
	last := len(h.bm.free) - 1
	id := h.bm.free[last]
	h.bm.free = h.bm.free[:last]
	return id
}

// takeFreeBlock removes a block from the free pool and assigns it to a group.
// Without wear-aware allocation the most recently freed block is reused (the
// historical LIFO behaviour); with it, the least-erased free block is taken —
// coldest-erase-count first, ties broken by lowest block ID — so blocks that
// sat out rejoin the write path before churned ones wear further.
func (bm *blockManager) takeFreeBlock(g Group) (flash.BlockID, error) {
	if len(bm.free) == 0 {
		return flash.InvalidBlock, fmt.Errorf("%w: no free blocks left for group %v", ErrNoSpace, g)
	}
	var id flash.BlockID
	if bm.wearAware {
		id = heap.Pop(freeHeap{bm}).(flash.BlockID)
	} else {
		id = bm.free[len(bm.free)-1]
		bm.free = bm.free[:len(bm.free)-1]
	}
	info := &bm.blocks[id]
	info.group = g
	info.allocated = true
	info.writePointer = 0
	info.valid = 0
	info.firstWriteSeq = 0
	info.lastProgram = 0
	return id, nil
}

// AllocatePage programs the next free page of the group's cold frontier
// (allocating a new active block from the free pool when needed) and returns
// its address. The page is counted as valid in the BVC. The caller supplies
// the spare area; the block type of the first page is stamped automatically.
func (bm *blockManager) AllocatePage(g Group, spare flash.SpareArea, p flash.Purpose) (flash.PPN, error) {
	return bm.allocateOnFrontier(g, frontierFor(g, TempCold), spare, p)
}

// AllocateUserPage programs the next free page of the user group's frontier
// for the given temperature. Without hot/cold separation every temperature
// maps to the single user frontier.
func (bm *blockManager) AllocateUserPage(temp Temperature, spare flash.SpareArea, p flash.Purpose) (flash.PPN, error) {
	if !bm.hotCold {
		temp = TempCold
	}
	return bm.allocateOnFrontier(GroupUser, frontierFor(GroupUser, temp), spare, p)
}

func (bm *blockManager) allocateOnFrontier(g Group, frontier int, spare flash.SpareArea, p flash.Purpose) (flash.PPN, error) {
	for {
		active := bm.active[frontier]
		if active == flash.InvalidBlock || bm.blocks[active].writePointer >= bm.cfg.PagesPerBlock {
			id, err := bm.takeFreeBlock(g)
			if err != nil {
				return flash.InvalidPPN, err
			}
			bm.active[frontier] = id
			active = id
		}
		info := &bm.blocks[active]
		if info.firstWriteSeq == 0 {
			// Stamp the block type on every attempt until the block's first
			// program succeeds: with program faults the first page(s) can be
			// consumed unreadable, and recovery classifies the block from its
			// first readable spare.
			spare.BlockType = g.blockType()
		}
		ppn := flash.PPNOf(active, info.writePointer, bm.cfg.PagesPerBlock)
		seq, err := bm.dev.WritePage(ppn, spare, p)
		if errors.Is(err, flash.ErrProgramFailed) {
			// The device consumed the failed page (its write pointer moved
			// past it); step over it and retry on the next frontier page —
			// in a fresh block once this one runs out.
			bm.programRetries++
			info.writePointer++
			if bm.isFull(info) {
				bm.full.add(g, info.valid, active)
			}
			continue
		}
		if err != nil {
			return flash.InvalidPPN, err
		}
		if seq > bm.lastSeq {
			bm.lastSeq = seq
		}
		if info.firstWriteSeq == 0 {
			info.firstWriteSeq = seq
		}
		info.lastProgram = seq
		info.writePointer++
		info.valid++
		if bm.isFull(info) {
			bm.full.add(g, info.valid, active)
		}
		return ppn, nil
	}
}

// LastWriteSeq returns the newest write sequence the manager has observed
// (see lastSeq).
func (bm *blockManager) LastWriteSeq() uint64 { return bm.lastSeq }

// NoteWriteSeq ratchets lastSeq forward; recovery calls it with the sequence
// numbers of the spares it scans so post-recovery synchronizations stamp
// content sequences no older than the flash they recovered from.
func (bm *blockManager) NoteWriteSeq(seq uint64) {
	if seq > bm.lastSeq {
		bm.lastSeq = seq
	}
}

// InvalidatePage decrements the BVC entry of the page's block.
func (bm *blockManager) InvalidatePage(ppn flash.PPN) error {
	block := flash.BlockOf(ppn, bm.cfg.PagesPerBlock)
	info := &bm.blocks[block]
	if !info.allocated {
		return fmt.Errorf("ftl: invalidating page %d of unallocated block %d", ppn, block)
	}
	if info.valid <= 0 {
		return fmt.Errorf("ftl: BVC underflow on block %d", block)
	}
	info.valid--
	if bm.isFull(info) {
		bm.full.remove(info.group, info.valid+1, block)
		bm.full.add(info.group, info.valid, block)
	}
	return nil
}

// Erase erases a block, returns it to the free pool and resets its BVC entry.
// No frontier's active block can be erased.
func (bm *blockManager) Erase(block flash.BlockID, p flash.Purpose) error {
	info := &bm.blocks[block]
	if !info.allocated {
		return fmt.Errorf("ftl: erasing unallocated block %d", block)
	}
	for fr := range bm.active {
		if bm.active[fr] == block {
			return fmt.Errorf("ftl: erasing active %v block %d", info.group, block)
		}
	}
	err := bm.dev.EraseBlock(block, p)
	retire := errors.Is(err, flash.ErrWornOut) || errors.Is(err, flash.ErrEraseFailed)
	if err != nil && !retire {
		return err
	}
	if bm.isFull(info) {
		bm.full.remove(info.group, info.valid, block)
	}
	if retire {
		// The block's contents are dead (callers only erase drained blocks)
		// but the block itself is gone as a resource: retire it. It leaves
		// the group, never re-enters the free pool or the wear heap, and the
		// device's usable capacity shrinks by one block. Neither erases nor
		// frees is incremented — no erase happened and no block was freed —
		// so erase/free conservation holds. The erase that was due still
		// happened logically: the caller proceeds exactly as after a
		// successful reclaim.
		info.allocated = false
		info.retired = true
		info.valid = 0
		return nil
	}
	bm.erases++
	info.allocated = false
	info.valid = 0
	info.writePointer = 0
	info.firstWriteSeq = 0
	info.lastProgram = 0
	info.eraseCount++
	if bm.wearAware {
		heap.Push(freeHeap{bm}, block)
	} else {
		bm.free = append(bm.free, block)
	}
	bm.frees++
	return nil
}

// VictimPolicy selects garbage-collection victims.
type VictimPolicy int

const (
	// VictimGreedy always picks the allocated, full, non-active block with
	// the fewest valid pages, regardless of what it stores. This is the
	// policy of existing page-associative FTLs.
	VictimGreedy VictimPolicy = iota
	// VictimMetadataAware never targets translation or metadata blocks: it
	// picks the best user block and relies on metadata blocks becoming
	// fully invalid on their own, at which point they are erased for free
	// (Section 4.2 of the paper).
	VictimMetadataAware
	// VictimCostBenefit scores user blocks by age times invalid fraction
	// and reclaims the highest scorer: a nearly-empty young block and a
	// half-empty old block are both good victims, while the cold,
	// mostly-valid blocks that greedy policies churn on skewed workloads
	// are left alone until they age. Like VictimMetadataAware it never
	// migrates translation or metadata blocks.
	VictimCostBenefit
)

// String names the policy.
func (p VictimPolicy) String() string {
	switch p {
	case VictimMetadataAware:
		return "metadata-aware"
	case VictimCostBenefit:
		return "cost-benefit"
	default:
		return "greedy"
	}
}

// MigratesMetadata reports whether the policy may pick translation or
// metadata blocks as victims (and therefore migrate their live pages).
// Non-greedy policies rely on fully-invalid metadata blocks dying of natural
// causes instead, so their FTLs need not track translation-page validity in
// the page-validity store.
func (p VictimPolicy) MigratesMetadata() bool { return p == VictimGreedy }

// PickVictim returns the next garbage-collection victim under the policy, or
// false when no block is eligible. Only full, allocated blocks that no
// frontier writes to and that are not protected (Protect) are eligible:
// partially written active blocks still absorb writes, and a protected
// block holds a previous translation-page version buffer recovery needs.
//
// Selection is deterministic: equally good candidates resolve to the lowest
// block ID, whether they are found as the first set bit of a bucket of the
// full-block index (greedy, metadata-aware) or by a scored pass in block-ID
// order whose every comparison is strict (cost-benefit). This matters most
// under VictimCostBenefit, whose floating-point scores tie easily
// (all-invalid blocks of the same age); a tie broken by anything but the ID
// would make identically-seeded simulations diverge.
func (bm *blockManager) PickVictim(policy VictimPolicy) (flash.BlockID, bool) {
	if policy == VictimCostBenefit {
		return bm.pickByScore()
	}
	// Fewest valid pages first; within a count, the lowest eligible ID of
	// the groups the policy may migrate.
	groups := GroupUser + 1
	if policy.MigratesMetadata() {
		groups = numGroups
	}
	for valid := 0; valid < bm.full.valids; valid++ {
		best := flash.InvalidBlock
		for g := Group(0); g < groups; g++ {
			if id := bm.firstEligible(g, valid); id != flash.InvalidBlock && (best == flash.InvalidBlock || id < best) {
				best = id
			}
		}
		if best != flash.InvalidBlock {
			return best, true
		}
	}
	return flash.InvalidBlock, false
}

// firstEligible returns the lowest full block of the group with the given
// valid count that is neither an active frontier nor protected.
func (bm *blockManager) firstEligible(g Group, valid int) flash.BlockID {
	bits, n := bm.full.bucket(g, valid)
	if *n == 0 {
		return flash.InvalidBlock
	}
	for i := range bitmap.Ones(bits, 0, len(bm.blocks)) {
		if id := flash.BlockID(i); !bm.held(id) {
			return id
		}
	}
	return flash.InvalidBlock
}

// pickByScore is PickVictim under VictimCostBenefit. Scores move with the
// write sequence, so no static order exists to index: every full user block
// is scored.
func (bm *blockManager) pickByScore() (flash.BlockID, bool) {
	best := flash.InvalidBlock
	bestScore := -1.0
	for i := range bm.blocks {
		info := &bm.blocks[i]
		if !bm.isFull(info) || info.group != GroupUser {
			continue
		}
		// Eligibility is tested last, and only for a block that would
		// become the best candidate: nearly every block loses on its score.
		score := bm.costBenefitScore(info)
		if id := flash.BlockID(i); (best == flash.InvalidBlock || score > bestScore) && !bm.held(id) {
			best, bestScore = id, score
		}
	}
	return best, best != flash.InvalidBlock
}

// costBenefitScore is the block's age (pages the shard programmed since the
// block's last program) times its invalid fraction. Age uses lastProgram so
// a block still absorbing GC migrations does not look old, and the score of
// a fully valid block is zero regardless of age.
func (bm *blockManager) costBenefitScore(info *blockInfo) float64 {
	written := info.writePointer
	if written <= 0 {
		return 0
	}
	invalidFrac := float64(written-info.valid) / float64(written)
	age := float64(bm.lastSeq - info.lastProgram)
	return age * invalidFrac
}

// FullyInvalidBlocks returns allocated, full, non-active, unprotected blocks
// of the given group with zero valid pages, in block-ID order. Under the
// non-greedy policies these are the only metadata blocks the FTL erases. The
// result is a snapshot in a reused slice: erasing the blocks while ranging
// over it is fine, and it is valid until the next call.
func (bm *blockManager) FullyInvalidBlocks(g Group) []flash.BlockID {
	bits, n := bm.full.bucket(g, 0)
	if *n == 0 {
		return nil
	}
	out := bm.deadBuf[:0]
	for i := range bitmap.Ones(bits, 0, len(bm.blocks)) {
		if id := flash.BlockID(i); !bm.held(id) {
			out = append(out, id)
		}
	}
	bm.deadBuf = out
	return out
}

// Reclaimable reports whether garbage collection may reclaim the block now:
// it is allocated and full, and neither active nor protected — the blocks
// PickVictim and FullyInvalidBlocks choose from.
func (bm *blockManager) Reclaimable(block flash.BlockID) bool {
	return bm.isFull(&bm.blocks[block]) && !bm.held(block)
}

// held reports whether a block is kept from garbage collection whatever its
// contents: a frontier still writes to it, or it is protected.
func (bm *blockManager) held(block flash.BlockID) bool {
	return bm.isActive(block) || bm.Protected(block)
}

func (bm *blockManager) isActive(block flash.BlockID) bool {
	for fr := range bm.active {
		if bm.active[fr] == block {
			return true
		}
	}
	return false
}

// Protect keeps a block from garbage collection until ClearProtection.
func (bm *blockManager) Protect(block flash.BlockID) { bm.protected.Set(int(block)) }

// Protected reports whether a block is protected.
func (bm *blockManager) Protected(block flash.BlockID) bool { return bm.protected.Get(int(block)) }

// ClearProtection releases every protected block.
func (bm *blockManager) ClearProtection() { bm.protected.Reset() }

// RAMBytes returns the integrated-RAM footprint of the block manager's
// per-block state as charged by the paper's models: 2 bytes per block for the
// BVC (Appendix B). The group tags and write pointers are charged one
// additional byte per block, and wear-aware allocation charges 2 more for
// the per-block erase counters it keeps in RAM. The full-block index is host
// bookkeeping and is not charged.
func (bm *blockManager) RAMBytes() int64 {
	perBlock := int64(3)
	if bm.wearAware {
		perBlock += 2
	}
	return int64(len(bm.blocks)) * perBlock
}

// CrashRAM drops all RAM state, as a power failure would. The device contents
// are untouched, and so is the protection, which models flash content.
func (bm *blockManager) CrashRAM() {
	for i := range bm.blocks {
		bm.blocks[i] = blockInfo{}
	}
	bm.full.clear()
	bm.free = bm.free[:0]
	for fr := range bm.active {
		bm.active[fr] = flash.InvalidBlock
	}
	// The write-sequence high-water mark is RAM too; recovery re-learns it
	// from the spares it scans (NoteWriteSeq).
	bm.lastSeq = 0
}

// countLive counts one live page into the BVC entry of its block, if that
// is an allocated metadata block; recovery rebuilds metadata blocks' entries
// from their owners' live pages this way.
func (bm *blockManager) countLive(ppn flash.PPN) {
	if info := &bm.blocks[flash.BlockOf(ppn, bm.cfg.PagesPerBlock)]; info.allocated && info.group != GroupUser {
		info.valid++
	}
}

// userBlocksByRecency yields the allocated user blocks from most recently
// first-written to least recently, ties to the lowest block ID: the order the
// recovery backwards scan visits them (Section 4.3). The scan stops after 2C
// spare reads, a few dozen of a shard's thousand blocks, so it selects them
// lazily from a heap in reused storage instead of sorting them all. Only
// blocks with no readable page tie, at sequence zero.
func (bm *blockManager) userBlocksByRecency() iter.Seq[flash.BlockID] {
	return func(yield func(flash.BlockID) bool) {
		h := slices.AppendSeq(slices.Grow(bm.recentBuf[:0], len(bm.blocks)), bm.BlocksInGroup(GroupUser))
		bm.recentBuf = h
		for i := len(h)/2 - 1; i >= 0; i-- {
			bm.siftNewest(h, i)
		}
		for n := len(h) - 1; n >= 0; n-- {
			newest := h[0]
			h[0] = h[n]
			bm.siftNewest(h[:n], 0)
			if !yield(newest) {
				return
			}
		}
	}
}

// siftNewest moves h[i] down the heap h, whose every block is newer than its
// children, until neither child is newer.
func (bm *blockManager) siftNewest(h []flash.BlockID, i int) {
	newer := func(a, b flash.BlockID) bool {
		sa, sb := bm.blocks[a].firstWriteSeq, bm.blocks[b].firstWriteSeq
		return sa > sb || sa == sb && a < b
	}
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && newer(h[c+1], h[c]) {
			c++
		}
		if !newer(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
