package flash

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// blockState is the simulator's per-block bookkeeping. It is guarded by the
// latch of the die the block resides on.
type blockState struct {
	// writePointer is the offset of the next free page; pages below it
	// have been programmed since the last erase.
	writePointer int
	// eraseCount is the number of erases the block has endured.
	eraseCount int
	// tags holds the Tag and Aux spare fields of the block's pages. Only
	// metadata pages set them, so it stays nil until the first page of the
	// block's current cycle that does; an erase clears it and hands it to
	// its die's free list.
	tags []tagAux
	// readCount counts full-page reads since the last erase: the
	// read-disturb accumulation. It is physical charge state, so it survives
	// power failures and is reset only by an erase.
	readCount int
	// bad marks pages whose program pulse failed; they hold nothing readable
	// and read back as unprogrammed. Allocated lazily on the first failure.
	bad []bool
	// retired marks a grown bad block: an erase failed on it, or it was
	// caught worn out. Retirement is recorded in the device's bad-block
	// table (out-of-band, as on real controllers), so it is device truth
	// that survives power failures; retired blocks refuse programs and
	// erases forever.
	retired bool
	// die is the index of the die the block resides on, Config.DieOfBlock
	// computed once by NewDevice so that no operation divides for it. It
	// sits in retired's padding: the struct stays 80 bytes.
	die int32
}

// The widths of the flash image (Device.logical and Device.stamp, 12 bytes a
// page); WritePage refuses what they cannot hold.
const (
	// maxSpareLogical is the largest Logical the image's 4-byte field holds.
	maxSpareLogical = LPN(math.MaxInt32)
	// stampTypeBits is how many low bits of a stamp hold the block type.
	stampTypeBits = 8
	// maxWriteSeq is the largest write sequence a stamp holds: 2⁵⁶−1.
	maxWriteSeq = 1<<(64-stampTypeBits) - 1
)

// tagAux is one page's Tag and Aux spare fields.
type tagAux struct{ tag, aux uint64 }

// dieState is the per-die latch and accounting. Holding the latch models the
// die's ready/busy line: two operations on the same die serialize, while
// operations on different dies proceed in parallel.
type dieState struct {
	// latch serializes the die's operations and guards its state and its
	// blocks' (blockState, the flash image): own until a Partition takes the
	// die, then the latch of that partition, which every partition sharing
	// the die shares (see Device.Partition).
	latch *sync.Mutex
	own   sync.Mutex
	// counters accounts the IO executed by this die; the device aggregates
	// them on demand. The counters' elapsed time is the die's busy time.
	counters Counters
	// busyUntil is the instant, on the device-wide virtual timeline, at which
	// the die's most recently issued operation completes, in nanoseconds.
	// Unlike the counters' elapsed time it respects idle gaps: an operation
	// issued through a partition whose arrival clock (see
	// Partition.SyncArrival) has moved past the die's last completion starts
	// at the arrival instant, not back-to-back. The latency instrumentation
	// derives per-operation service times — queueing behind the die
	// included — from this clock. record reads and writes it under the
	// latch; it only grows, so readers (busyUntilOverDies) load it without
	// the latch and see an instant the die has reached, at worst one
	// operation behind a racing writer.
	busyUntil atomic.Int64
	// freeTags holds the cleared tag rows of the die's erased blocks, for
	// the next of its blocks that programs a metadata page.
	freeTags [][]tagAux
}

// Device is a simulated NAND flash device organized as Config.Channels
// channels of Config.DiesPerChannel dies each. All methods are safe for
// concurrent use: each takes the latch of the die it touches, so callers can
// dispatch page reads, writes and erases to independent dies in parallel. A
// die a Partition owns is latched by the partition's latch (Partition.Latch):
// the sharded ftl.Engine holds it for a whole host operation and issues that
// operation's flash IO through the partition, which takes no lock of its
// own, and a Device call on the die waits for the operation to end.
//
// The device accounts every operation under the caller-supplied Purpose; the
// experiment harness uses these counters to reproduce the per-component
// write-amplification breakdowns of the paper's evaluation. Counters are kept
// per die: SimulatedTime sums all die-busy time (the serial, single-plane
// cost), and DieTimes gives each die's share.
type Device struct {
	cfg    Config
	dies   []dieState
	blocks []blockState
	// logical and stamp are the flash image: the spare areas of all pages,
	// indexed by device PPN (block*PagesPerBlock + offset), without the
	// fields a page shares with its block (see readSpare). logical holds a
	// page's Logical; stamp holds WriteSeq<<stampTypeBits | BlockType.
	// WriteSeq starts at 1, so a zero stamp is a page not programmed since
	// its block's last erase. A page's entries are guarded by the latch of
	// its block's die.
	logical []int32
	stamp   []uint64
	// writeSeq stamps the pages programmed through the Device's own
	// methods; a Partition stamps its pages from its own sequence.
	writeSeq atomic.Uint64
	powered  atomic.Bool
	// faults, when non-nil, is the installed fault plan (SetFaultPlan).
	faults *FaultPlan
	// opSeq counts attempts per operation kind device-wide; scripted fault
	// schedules key on these counts.
	opSeq [numOps]atomic.Uint64
}

// NewDevice creates a device with every block erased and empty.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:     cfg,
		dies:    make([]dieState, cfg.Dies()),
		blocks:  make([]blockState, cfg.Blocks),
		logical: make([]int32, cfg.PhysicalPages()),
		stamp:   make([]uint64, cfg.PhysicalPages()),
	}
	for i := range d.dies {
		d.dies[i].latch = &d.dies[i].own
	}
	for b := range d.blocks {
		d.blocks[b].die = int32(cfg.DieOfBlock(BlockID(b)))
	}
	d.powered.Store(true)
	return d, nil
}

// MustNewDevice is NewDevice that panics on configuration errors. It is used
// by tests and examples where the configuration is a literal.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetFaultPlan installs (or, with a zero plan, clears) the device's fault
// plan. Install it before issuing IO: the call is not synchronized with
// in-flight operations. The scripted schedule's operation counts advance
// only while a plan is installed.
func (d *Device) SetFaultPlan(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if plan.ProgramFailRate == 0 && plan.EraseFailRate == 0 &&
		plan.ReadDisturbLimit == 0 && len(plan.Schedule) == 0 {
		d.faults = nil
		return nil
	}
	plan.Schedule = append([]FaultEvent(nil), plan.Schedule...)
	d.faults = &plan
	return nil
}

// die returns the state of the die the given block resides on.
func (d *Device) die(block BlockID) *dieState {
	return &d.dies[d.blocks[block].die]
}

// latch returns the latch of the die the given block resides on.
func (d *Device) latch(block BlockID) *sync.Mutex {
	return d.die(block).latch
}

// record charges one operation to a die (whose latch the caller holds)
// and advances the die's busy-until clock: the operation starts when the die
// is free and the caller's floor (a partition's arrival clock, zero for the
// Device's own IO) has passed; it completes one latency later. The floor is
// what keeps an operation issued to an idle die of a multi-die partition from
// starting "in the past" relative to the partition's clock, which would
// under-report its latency.
func (d *Device) record(die *dieState, op Op, p Purpose, cost, floor time.Duration) {
	die.counters.Record(op, p, cost)
	start := time.Duration(die.busyUntil.Load())
	if floor > start {
		start = floor
	}
	die.busyUntil.Store(int64(start + cost))
}

// check validates power state and block range.
func (d *Device) check(block BlockID) error {
	if !d.powered.Load() {
		return ErrPowerFailed
	}
	if block < 0 || int(block) >= d.cfg.Blocks {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, d.cfg.Blocks)
	}
	return nil
}

func (d *Device) checkPage(block BlockID, offset int) error {
	if err := d.check(block); err != nil {
		return err
	}
	if offset < 0 || offset >= d.cfg.PagesPerBlock {
		return fmt.Errorf("%w: offset %d of %d", ErrOutOfRange, offset, d.cfg.PagesPerBlock)
	}
	return nil
}

// WritePage programs the page at ppn together with its spare area. It
// enforces the NAND constraints: the page must be free and, when strict
// sequential writes are enabled, must be the block's next free page.
// The returned sequence number is the write timestamp recorded in the spare
// area, drawn from the Device's own sequence (a Partition stamps from its
// own; see Partition.WritePage). A Logical outside [InvalidLPN, 2³¹−1], or a
// program once the write sequence has reached 2⁵⁶−1, is refused with
// ErrOutOfRange, as a bad address is: before the block is looked at, at no
// device time and without counting a fault-plan attempt.
func (d *Device) WritePage(ppn PPN, spare SpareArea, p Purpose) (uint64, error) {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return 0, err
	}
	latch := d.latch(addr.Block)
	latch.Lock()
	defer latch.Unlock()
	return d.writePage(ppn, addr, spare, p, 0, &d.powered, &d.writeSeq)
}

// writePage is the body of WritePage and Partition.WritePage: it programs the
// checked device address addr (ppn decomposed) with the die's latch held, or
// with no other user of the die. floor is a start floor on the virtual
// timeline (see record), rail the power domain a scheduled cut drops and
// writeSeq the sequence the page's stamp is drawn from; partitions pass their
// own arrival clock, domain and sequence.
func (d *Device) writePage(ppn PPN, addr Addr, spare SpareArea, p Purpose, floor time.Duration, rail *atomic.Bool, writeSeq *atomic.Uint64) (uint64, error) {
	if spare.Logical < InvalidLPN || spare.Logical > maxSpareLogical {
		return 0, fmt.Errorf("%w: logical page %d outside the spare image's [%d, %d]",
			ErrOutOfRange, spare.Logical, InvalidLPN, maxSpareLogical)
	}
	// The Device's own sequence is shared by its dies, so programs racing on
	// other dies at the very bound could each pass, which the 2⁵⁶ programs it
	// takes to get there put out of reach.
	if writeSeq.Load() >= maxWriteSeq {
		return 0, fmt.Errorf("%w: write sequence exhausted at %d", ErrOutOfRange, uint64(maxWriteSeq))
	}
	die := d.die(addr.Block)
	blk := &d.blocks[addr.Block]
	if blk.retired {
		// The controller consults its bad-block table before issuing the
		// pulse, so a program aimed at a retired block costs no device time.
		return 0, fmt.Errorf("%w: %v: block retired", ErrProgramFailed, addr)
	}
	if addr.Offset < blk.writePointer {
		return 0, fmt.Errorf("%w: %v", ErrPageNotFree, addr)
	}
	if d.cfg.StrictSequentialWrites && addr.Offset != blk.writePointer {
		return 0, fmt.Errorf("%w: %v (write pointer at %d)", ErrNonSequentialWrite, addr, blk.writePointer)
	}
	cut := NoCut
	if d.faults != nil {
		n := d.opSeq[OpPageWrite].Add(1)
		if cut = d.faults.cut(OpPageWrite, n); cut == CutBefore {
			rail.Store(false)
			return 0, fmt.Errorf("%w: scheduled cut before programming %v", ErrPowerFailed, addr)
		}
		if d.faults.fails(OpPageWrite, n, addr.Block, addr.Offset, blk.eraseCount) {
			// The program pulse ran and failed: the page is consumed —
			// marked bad, the write pointer moves past it — and the full
			// program time was spent. The FTL retries on the block's next
			// free page.
			if blk.bad == nil {
				blk.bad = make([]bool, d.cfg.PagesPerBlock)
			}
			blk.bad[addr.Offset] = true
			if addr.Offset >= blk.writePointer {
				blk.writePointer = addr.Offset + 1
			}
			d.record(die, OpPageWrite, p, d.cfg.Latency.PageWrite, floor)
			if cut == CutAfter {
				rail.Store(false)
			}
			return 0, fmt.Errorf("%w: %v", ErrProgramFailed, addr)
		}
	}
	seq := writeSeq.Add(1)
	d.logical[ppn] = int32(spare.Logical)
	d.stamp[ppn] = seq<<stampTypeBits | uint64(spare.BlockType)
	if spare.Tag != 0 || spare.Aux != 0 {
		// A row comes cleared and a page is programmed at most once a
		// cycle, so a page that sets neither field already reads zero.
		if blk.tags == nil {
			blk.tags = d.tagRow(die)
		}
		blk.tags[addr.Offset] = tagAux{tag: spare.Tag, aux: spare.Aux}
	}
	if addr.Offset >= blk.writePointer {
		blk.writePointer = addr.Offset + 1
	}
	d.record(die, OpPageWrite, p, d.cfg.Latency.PageWrite, floor)
	if cut == CutAfter {
		rail.Store(false)
	}
	return seq, nil
}

// tagRow returns a cleared tag row for a block of the given die, whose latch
// the caller holds: one an erase returned to the die's free list, or a new
// one.
func (d *Device) tagRow(die *dieState) []tagAux {
	n := len(die.freeTags)
	if n == 0 {
		return make([]tagAux, d.cfg.PagesPerBlock)
	}
	row := die.freeTags[n-1]
	die.freeTags[n-1] = nil
	die.freeTags = die.freeTags[:n-1]
	return row
}

// ReadPage reads the page at ppn. The simulator stores no payload, so the
// call only validates that the page has been programmed and accounts the IO.
func (d *Device) ReadPage(ppn PPN, p Purpose) error {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return err
	}
	latch := d.latch(addr.Block)
	latch.Lock()
	defer latch.Unlock()
	return d.readPage(addr, p, 0)
}

// readPage is the body of ReadPage, as writePage is of WritePage.
func (d *Device) readPage(addr Addr, p Purpose, floor time.Duration) error {
	die := d.die(addr.Block)
	blk := &d.blocks[addr.Block]
	if addr.Offset >= blk.writePointer {
		return fmt.Errorf("%w: %v", ErrPageNotWritten, addr)
	}
	if blk.bad != nil && blk.bad[addr.Offset] {
		// A page whose program failed holds nothing readable.
		return fmt.Errorf("%w: %v: program failed", ErrPageNotWritten, addr)
	}
	blk.readCount++
	d.record(die, OpPageRead, p, d.cfg.Latency.PageRead, floor)
	if d.faults != nil {
		n := d.opSeq[OpPageRead].Add(1)
		if limit := d.faults.ReadDisturbLimit; limit > 0 && blk.readCount > limit {
			return fmt.Errorf("%w: %v after %d reads since erase", ErrReadDecayed, addr, blk.readCount)
		}
		if d.faults.scheduled(OpPageRead, n) {
			return fmt.Errorf("%w: %v (scheduled)", ErrReadDecayed, addr)
		}
	}
	return nil
}

// ReadSpare reads only the spare area of the page at ppn. Unlike ReadPage it
// succeeds on unprogrammed pages and reports whether the page was programmed,
// because recovery scans probe spare areas of possibly-free pages.
func (d *Device) ReadSpare(ppn PPN, p Purpose) (SpareArea, bool, error) {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return SpareArea{}, false, err
	}
	latch := d.latch(addr.Block)
	latch.Lock()
	defer latch.Unlock()
	return d.readSpare(ppn, addr, p, 0)
}

// readSpare is the body of ReadSpare, as writePage is of WritePage.
func (d *Device) readSpare(ppn PPN, addr Addr, p Purpose, floor time.Duration) (SpareArea, bool, error) {
	die := d.die(addr.Block)
	blk := &d.blocks[addr.Block]
	d.record(die, OpSpareRead, p, d.cfg.Latency.SpareRead, floor)
	if addr.Offset >= blk.writePointer {
		return SpareArea{}, false, nil
	}
	if blk.bad != nil && blk.bad[addr.Offset] {
		// Pages whose program failed report as unprogrammed, so recovery
		// scans skip them instead of trusting garbage.
		return SpareArea{}, false, nil
	}
	stamp := d.stamp[ppn]
	if stamp == 0 {
		// Below the write pointer but never programmed: a page a gapped
		// program skipped (StrictSequentialWrites off). Its spare is empty.
		return SpareArea{}, true, nil
	}
	// Only an erase changes the block's erase count, and an erase empties
	// every page, so its current value is the one the page was programmed
	// under.
	spare := SpareArea{
		Logical:    LPN(d.logical[ppn]),
		WriteSeq:   stamp >> stampTypeBits,
		BlockType:  BlockType(stamp),
		EraseCount: uint32(blk.eraseCount),
	}
	if blk.tags != nil {
		t := blk.tags[addr.Offset]
		spare.Tag, spare.Aux = t.tag, t.aux
	}
	return spare, true, nil
}

// EraseBlock erases a block, freeing all of its pages.
func (d *Device) EraseBlock(block BlockID, p Purpose) error {
	if err := d.check(block); err != nil {
		return err
	}
	latch := d.latch(block)
	latch.Lock()
	defer latch.Unlock()
	return d.eraseBlock(block, p, 0, &d.powered)
}

// eraseBlock is the body of EraseBlock, as writePage is of WritePage.
func (d *Device) eraseBlock(block BlockID, p Purpose, floor time.Duration, rail *atomic.Bool) error {
	die := d.die(block)
	blk := &d.blocks[block]
	if d.cfg.MaxEraseCount > 0 && blk.eraseCount >= d.cfg.MaxEraseCount {
		// The budget check is controller bookkeeping (no pulse is issued),
		// but the attempt still retires the block: from here on
		// Partition.BadBlock reports it and no further program or erase will
		// be accepted.
		blk.retired = true
		return fmt.Errorf("%w: block %d erased %d times", ErrWornOut, block, blk.eraseCount)
	}
	if blk.retired {
		return fmt.Errorf("%w: block %d retired", ErrEraseFailed, block)
	}
	cut := NoCut
	if d.faults != nil {
		n := d.opSeq[OpErase].Add(1)
		if cut = d.faults.cut(OpErase, n); cut == CutBefore {
			rail.Store(false)
			return fmt.Errorf("%w: scheduled cut before erasing block %d", ErrPowerFailed, block)
		}
		if d.faults.fails(OpErase, n, block, 0, blk.eraseCount) {
			// The erase pulse ran, failed, and cost full erase time. The
			// block becomes a grown bad block; its contents are untouched.
			blk.retired = true
			d.record(die, OpErase, p, d.cfg.Latency.Erase, floor)
			if cut == CutAfter {
				rail.Store(false)
			}
			return fmt.Errorf("%w: block %d", ErrEraseFailed, block)
		}
	}
	// Only pages below the write pointer can hold anything.
	first := PPNOf(block, 0, d.cfg.PagesPerBlock)
	clear(d.logical[first : first+PPN(blk.writePointer)])
	clear(d.stamp[first : first+PPN(blk.writePointer)])
	if blk.tags != nil {
		clear(blk.tags[:blk.writePointer])
		die.freeTags = append(die.freeTags, blk.tags)
		blk.tags = nil
	}
	blk.eraseCount++
	blk.writePointer = 0
	blk.readCount = 0
	blk.bad = nil
	d.record(die, OpErase, p, d.cfg.Latency.Erase, floor)
	if cut == CutAfter {
		rail.Store(false)
	}
	return nil
}

// Counters returns a snapshot of the IO counters aggregated over all dies.
// With concurrent callers in flight the snapshot is per-die consistent but
// not a single global instant; quiesce the device for an exact total.
func (d *Device) Counters() Counters {
	return d.countersOverDies(0, len(d.dies), true)
}

// countersOverDies aggregates the counters of dies [lo, hi), taking each
// die's latch when lock is set; a partition, whose caller holds its latch,
// clears it to report only its own dies' IO. It and the other aggregates
// below take one die at a time, so one of them never holds two latches.
func (d *Device) countersOverDies(lo, hi int, lock bool) Counters {
	var total Counters
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		if lock {
			die.latch.Lock()
		}
		total.Add(die.counters)
		if lock {
			die.latch.Unlock()
		}
	}
	return total
}

// ResetCounters zeroes the IO counters of every die, typically after a
// warm-up phase so that steady-state write-amplification can be measured.
func (d *Device) ResetCounters() {
	for i := range d.dies {
		die := &d.dies[i]
		die.latch.Lock()
		die.counters.Reset()
		die.latch.Unlock()
	}
}

// PowerFail simulates an abrupt power failure of the whole device: it
// refuses all operations until PowerOn is called. Flash contents survive;
// anything the FTL kept in integrated RAM does not (that loss is the FTL's
// concern). Partitions carved out of the device additionally have their own
// power domain (see Partition.PowerFail): device power is the shared rail
// underneath every partition domain.
func (d *Device) PowerFail() { d.powered.Store(false) }

// PowerOn restores power after a PowerFail. It restores only the device-wide
// rail; partitions whose own domain was failed stay dark until their own
// PowerOn.
func (d *Device) PowerOn() { d.powered.Store(true) }

// SimulatedTime returns the total device time consumed so far under the
// latency model: the sum of every die's busy time, i.e. the cost of
// executing all IO on a single serialized plane.
func (d *Device) SimulatedTime() time.Duration {
	return d.timeOverDies(0, len(d.dies), true)
}

// timeOverDies sums the busy time of dies [lo, hi), taking each die's latch
// when lock is set.
func (d *Device) timeOverDies(lo, hi int, lock bool) time.Duration {
	var total time.Duration
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		if lock {
			die.latch.Lock()
		}
		total += die.counters.Elapsed()
		if lock {
			die.latch.Unlock()
		}
	}
	return total
}

// BusyUntil returns the instant on the virtual timeline at which the last
// operation issued to any die completes: the latest die completion.
func (d *Device) BusyUntil() time.Duration {
	return d.busyUntilOverDies(0, len(d.dies))
}

// busyUntilOverDies returns the latest busy-until instant of dies [lo, hi).
// It takes no die latch: every clock it reads only grows, so a reading that
// races an operation in flight is a lower bound, the instant before that
// operation's completion was recorded, and successive readings never
// decrease.
func (d *Device) busyUntilOverDies(lo, hi int) time.Duration {
	var max time.Duration
	for i := lo; i < hi; i++ {
		if t := time.Duration(d.dies[i].busyUntil.Load()); t > max {
			max = t
		}
	}
	return max
}

// DieTimes returns each die's accumulated busy time, indexed by die. The
// channel-sweep experiments use it to report load balance.
func (d *Device) DieTimes() []time.Duration {
	out := make([]time.Duration, len(d.dies))
	for i := range d.dies {
		die := &d.dies[i]
		die.latch.Lock()
		out[i] = die.counters.Elapsed()
		die.latch.Unlock()
	}
	return out
}

// BlocksEndurance returns min, max and mean erase counts across all blocks,
// taking each die's latch once. The wear-leveling tests use it to bound
// erase-count discrepancies.
func (d *Device) BlocksEndurance() (min, max int, mean float64) {
	var total int64
	for dieID := range d.dies {
		lo, hi := d.cfg.DieBlockRange(dieID)
		die := &d.dies[dieID]
		die.latch.Lock()
		for b := lo; b < hi; b++ {
			ec := d.blocks[b].eraseCount
			if b == 0 || ec < min {
				min = ec
			}
			if b == 0 || ec > max {
				max = ec
			}
			total += int64(ec)
		}
		die.latch.Unlock()
	}
	return min, max, float64(total) / float64(d.cfg.Blocks)
}
