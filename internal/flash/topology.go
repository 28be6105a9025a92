package flash

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// channels returns the configured channel count, treating zero as one.
func (c Config) channels() int {
	if c.Channels <= 0 {
		return 1
	}
	return c.Channels
}

// diesPerChannel returns the configured dies per channel, treating zero as one.
func (c Config) diesPerChannel() int {
	if c.DiesPerChannel <= 0 {
		return 1
	}
	return c.DiesPerChannel
}

// Dies returns the total number of independently operating dies,
// Channels * DiesPerChannel (each defaulting to one when zero).
func (c Config) Dies() int { return c.channels() * c.diesPerChannel() }

// NumChannels returns the channel count, treating zero as one. (A method
// because the Channels field keeps zero as "unset" for backward
// compatibility with single-plane configurations.)
func (c Config) NumChannels() int { return c.channels() }

// DieOfBlock returns the die a block resides on. Blocks are laid out across
// dies in contiguous ranges, so a contiguous block range [lo,hi) aligned to
// die boundaries touches only its own dies — the property the ftl.Engine uses
// to give each shard a contention-free set of dies.
func (c Config) DieOfBlock(block BlockID) int {
	return int(int64(block) * int64(c.Dies()) / int64(c.Blocks))
}

// DieBlockRange returns the half-open block range [lo,hi) owned by a die.
func (c Config) DieBlockRange(die int) (lo, hi BlockID) {
	d, k := int64(c.Dies()), int64(c.Blocks)
	lo = BlockID((int64(die)*k + d - 1) / d)
	hi = BlockID((int64(die+1)*k + d - 1) / d)
	return lo, hi
}

// Partition is a view over a contiguous block range of a Device. Block IDs
// and physical page numbers are partition-relative: block 0 of the partition
// is block base of the device. IO issued through a partition is executed and
// accounted by the parent device.
//
// A partition owns the latch of the dies its blocks touch (Latch): Device
// calls on those dies take it, and partitions that share a die share it.
// The partition's own methods take no lock. Their caller holds the latch,
// as an ftl.Engine shard does for a whole host operation, or is the
// partition's only user. Partitions on different dies therefore run in
// parallel, while partitions sharing a die serialize. WriteSeq, BusyUntil,
// SyncArrival, AdvanceArrival and the power-domain methods read and write
// atomics only, and are safe without the latch.
//
// Each partition is its own power domain: Partition.PowerFail cuts only the
// partition, and Partition.PowerOn restores only the partition, so shards of
// one device crash and recover independently. The device-wide power rail
// (Device.PowerFail) sits underneath every domain: while it is down, no
// partition is powered regardless of its own domain state.
type Partition struct {
	dev  *Device
	base BlockID
	cfg  Config
	// loDie and hiDie bound the dies the partition's blocks touch; counters
	// and simulated time are scoped to this half-open range.
	loDie, hiDie int
	// latch serializes the partition's dies; see Latch.
	latch   *sync.Mutex
	powered atomic.Bool
	// writeSeq is the sequence the partition's page programs are stamped
	// from (SpareArea.WriteSeq), starting at 1.
	writeSeq atomic.Uint64
	// arrival is the partition's arrival clock in nanoseconds: IO issued
	// through the partition starts no earlier than it. SyncArrival ratchets
	// it to the partition's completion instant, which keeps an operation
	// that lands on an idle die of a multi-die partition from starting
	// before the partition's previous operation completed — and its measured
	// latency honest.
	arrival atomic.Int64
}

// Partition carves the block range [base, base+blocks) out of the device.
// The returned view has the parent's geometry and cost model but only the
// given blocks (and proportionally fewer logical pages). The range is not
// reserved: nothing stops other partitions or direct device access from
// overlapping it; callers that shard a device are responsible for using
// disjoint ranges.
//
// The partition takes the latch of the dies its range touches. A die some
// partition already owns brings that partition's latch, so partitions that
// share a die share one latch; a range touching dies that two different
// latches own is refused with ErrLatchConflict, since merging them would
// leave their partitions holding a latch that no longer guards their dies.
// Carve partitions before issuing IO: the call is not synchronized with
// operations in flight or with another Partition call.
func (d *Device) Partition(base BlockID, blocks int) (*Partition, error) {
	if base < 0 || blocks <= 0 || int(base)+blocks > d.cfg.Blocks {
		return nil, fmt.Errorf("%w: partition [%d,%d) of %d blocks", ErrOutOfRange, base, int(base)+blocks, d.cfg.Blocks)
	}
	lo, hi := d.cfg.DieOfBlock(base), d.cfg.DieOfBlock(base+BlockID(blocks)-1)+1
	var latch *sync.Mutex
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		if die.latch == &die.own {
			continue
		}
		if latch != nil && die.latch != latch {
			return nil, fmt.Errorf("%w: partition [%d,%d) spans dies %d-%d", ErrLatchConflict, base, int(base)+blocks, lo, hi-1)
		}
		latch = die.latch
	}
	if latch == nil {
		latch = new(sync.Mutex)
	}
	for i := lo; i < hi; i++ {
		d.dies[i].latch = latch
	}
	cfg := d.cfg
	cfg.Blocks = blocks
	// The partition spans a subset of the device's dies; its own view is a
	// single plane, so the topology fields are cleared.
	cfg.Channels = 0
	cfg.DiesPerChannel = 0
	p := &Partition{
		dev:   d,
		base:  base,
		cfg:   cfg,
		loDie: lo,
		hiDie: hi,
		latch: latch,
	}
	p.powered.Store(true)
	return p, nil
}

// Config returns the partition-relative configuration.
func (p *Partition) Config() Config { return p.cfg }

// Latch returns the mutex that serializes the partition's dies: hold it
// around the partition's methods when other goroutines use the partition,
// a partition sharing its dies, or the Device. It is the same mutex for
// every partition that shares a die with this one.
func (p *Partition) Latch() *sync.Mutex { return p.latch }

// checkBlock bounds-checks a partition-relative block ID before translation,
// so a buggy caller cannot reach a neighboring partition's blocks, and
// enforces the partition's power domain and the device's shared rail.
func (p *Partition) checkBlock(block BlockID) error {
	if !p.powered.Load() {
		return ErrPowerFailed
	}
	if block < 0 || int(block) >= p.cfg.Blocks {
		return fmt.Errorf("%w: block %d of partition with %d blocks", ErrOutOfRange, block, p.cfg.Blocks)
	}
	if !p.dev.powered.Load() {
		return ErrPowerFailed
	}
	return nil
}

// checkPPN bounds-checks a partition-relative page number before translation
// and enforces the partition's power domain and the device's shared rail. It
// returns the page's device address.
func (p *Partition) checkPPN(ppn PPN) (Addr, error) {
	if !p.powered.Load() {
		return Addr{}, ErrPowerFailed
	}
	if ppn < 0 || int64(ppn) >= int64(p.cfg.Blocks)*int64(p.cfg.PagesPerBlock) {
		return Addr{}, fmt.Errorf("%w: page %d of partition with %d pages", ErrOutOfRange, ppn, int64(p.cfg.Blocks)*int64(p.cfg.PagesPerBlock))
	}
	if !p.dev.powered.Load() {
		return Addr{}, ErrPowerFailed
	}
	addr := Decompose(ppn, p.cfg.PagesPerBlock)
	addr.Block += p.base
	return addr, nil
}

// ppnOffset is the device page number of the partition's page 0.
func (p *Partition) ppnOffset() PPN {
	return PPN(int64(p.base) * int64(p.cfg.PagesPerBlock))
}

// WritePage programs the partition-relative page ppn on the parent device
// and stamps it from the partition's write sequence (see WriteSeq).
func (p *Partition) WritePage(ppn PPN, spare SpareArea, pu Purpose) (uint64, error) {
	addr, err := p.checkPPN(ppn)
	if err != nil {
		return 0, err
	}
	return p.dev.writePage(ppn+p.ppnOffset(), addr, spare, pu, p.floor(), &p.powered, &p.writeSeq)
}

// WriteSeq returns the partition's write sequence: the stamp of the newest
// page programmed through it, or zero before the first. Not an IO.
func (p *Partition) WriteSeq() uint64 { return p.writeSeq.Load() }

// ReadPage reads the partition-relative page ppn.
func (p *Partition) ReadPage(ppn PPN, pu Purpose) error {
	addr, err := p.checkPPN(ppn)
	if err != nil {
		return err
	}
	return p.dev.readPage(addr, pu, p.floor())
}

// ReadSpare reads the spare area of the partition-relative page ppn.
func (p *Partition) ReadSpare(ppn PPN, pu Purpose) (SpareArea, bool, error) {
	addr, err := p.checkPPN(ppn)
	if err != nil {
		return SpareArea{}, false, err
	}
	return p.dev.readSpare(ppn+p.ppnOffset(), addr, pu, p.floor())
}

// NoteTrim records a host trim (discard) of the partition-relative page ppn:
// the host no longer needs the page's contents and the FTL has marked them
// invalid. NAND has no trim primitive, so the record costs no device time; it
// exists so the invalidation counters can report how much invalid space the
// host supplied next to the IO the FTL spent on it (Counters, OpTrim). The
// page itself is untouched — only an erase of its block reclaims it. The
// record still raises the die's busy-until to the partition's arrival clock,
// which SyncArrival reads.
func (p *Partition) NoteTrim(ppn PPN, pu Purpose) error {
	addr, err := p.checkPPN(ppn)
	if err != nil {
		return err
	}
	p.dev.record(p.dev.die(addr.Block), OpTrim, pu, 0, p.floor())
	return nil
}

// EraseBlock erases the partition-relative block.
func (p *Partition) EraseBlock(block BlockID, pu Purpose) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	return p.dev.eraseBlock(block+p.base, pu, p.floor(), &p.powered)
}

// WritePointer returns the next free page offset of the partition-relative
// block (PagesPerBlock when the block is full). It models the FTL's own
// in-RAM knowledge of its active blocks and is not an IO.
func (p *Partition) WritePointer(block BlockID) (int, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	return p.dev.blocks[block+p.base].writePointer, nil
}

// EraseCount returns the number of erases the partition-relative block has
// endured. Not an IO.
func (p *Partition) EraseCount(block BlockID) (int, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	return p.dev.blocks[block+p.base].eraseCount, nil
}

// ReadCount returns the full-page reads the partition-relative block has
// absorbed since its last erase: the read-disturb accumulation the FTL's
// scrubber watches. It models the controller's per-block read counter and is
// not an IO.
func (p *Partition) ReadCount(block BlockID) (int, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	return p.dev.blocks[block+p.base].readCount, nil
}

// BadBlock reports whether the partition-relative block has been retired (a
// failed erase, or an erase attempted past the block's budget). It models the
// controller's bad-block table — device truth that survives power failures —
// and is not an IO.
func (p *Partition) BadBlock(block BlockID) (bool, error) {
	if err := p.checkBlock(block); err != nil {
		return false, err
	}
	return p.dev.blocks[block+p.base].retired, nil
}

// Counters returns the IO counters of the dies the partition's blocks touch.
// For a die-aligned partition (as the sharded ftl.Engine creates) this is
// exactly the partition's own IO; a partition sharing a die with a neighbor
// also sees the neighbor's IO on that die.
func (p *Partition) Counters() Counters { return p.dev.countersOverDies(p.loDie, p.hiDie, false) }

// SimulatedTime returns the summed busy time of the partition's dies: the
// critical path of a shard that drives its dies synchronously. Concurrent
// shards on other dies do not contribute.
func (p *Partition) SimulatedTime() time.Duration {
	return p.dev.timeOverDies(p.loDie, p.hiDie, false)
}

// floor returns the partition's arrival clock, the earliest instant IO
// issued through the partition may start.
func (p *Partition) floor() time.Duration { return time.Duration(p.arrival.Load()) }

// BusyUntil returns the completion instant of the last operation issued to
// the partition's dies, floored at the partition's arrival clock. For a
// die-aligned partition driven serially (an engine shard) this is exactly
// the completion time of the shard's most recent operation.
func (p *Partition) BusyUntil() time.Duration {
	max := p.dev.busyUntilOverDies(p.loDie, p.hiDie)
	if f := p.floor(); f > max {
		max = f
	}
	return max
}

// SyncArrival advances the partition's arrival clock to its completion
// instant and returns it. It reads only the partition's dies, so concurrent
// shards never contend here.
func (p *Partition) SyncArrival() time.Duration {
	now := p.BusyUntil()
	for {
		cur := p.arrival.Load()
		if int64(now) <= cur {
			return time.Duration(cur)
		}
		if p.arrival.CompareAndSwap(cur, int64(now)) {
			return now
		}
	}
}

// AdvanceArrival ratchets the partition's arrival clock forward to at least
// t. Unlike SyncArrival it does not consult the dies: the caller names the
// arrival instant (an open-loop generator's stamp), and IO issued afterwards
// starts no earlier than it even on an idle die.
func (p *Partition) AdvanceArrival(t time.Duration) {
	for {
		cur := p.arrival.Load()
		if int64(t) <= cur {
			return
		}
		if p.arrival.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// PowerFail fails power on the partition's own domain: the partition refuses
// all operations until its own PowerOn, while sibling partitions and the
// parent device keep running. (An engine-wide crash also drops the shared
// rail via Device.PowerFail.)
func (p *Partition) PowerFail() { p.powered.Store(false) }

// PowerOn restores the partition's own power domain after a PowerFail. It
// does not touch the shared device rail: if the whole device was failed, the
// partition stays unpowered until Device.PowerOn.
func (p *Partition) PowerOn() { p.powered.Store(true) }

// Powered reports whether the partition has power: its own domain must be up
// and the parent device's shared rail must be up.
func (p *Partition) Powered() bool { return p.powered.Load() && p.dev.powered.Load() }
