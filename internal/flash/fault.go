package flash

import "fmt"

// FaultEvent is one entry of a scripted fault schedule: the AtCount'th
// attempt (1-based, device-wide) of the given operation kind fails, or the
// power is cut around it. Scripted faults let tests place a failure at an
// exact point of a workload, independent of which block the operation happens
// to land on; a scheduled cut makes a crash a point of the workload that
// replays exactly, where a timer racing the workload does not.
type FaultEvent struct {
	// Op is the operation kind the event targets: OpPageWrite (a failed
	// program), OpErase (a failed erase that retires the block) or OpPageRead
	// (an uncorrectable read, surfaced as ErrReadDecayed). A cut targets a
	// program or an erase.
	Op Op
	// AtCount selects the AtCount'th attempt of Op since the plan was
	// installed, counting 1, 2, 3, ...
	AtCount uint64
	// Cut, unless NoCut, makes the event a power cut instead of a failure: it
	// drops the power domain the attempt was issued through — the partition's
	// own for an attempt made through a Partition, the device's shared rail
	// otherwise — before the attempt or right after it.
	Cut PowerCut
}

// PowerCut places a scheduled power cut relative to the attempt it is keyed
// on.
type PowerCut uint8

const (
	// NoCut makes the event a failed operation.
	NoCut PowerCut = iota
	// CutBefore drops the power before the attempt, which then has no effect
	// on the flash and fails with ErrPowerFailed.
	CutBefore
	// CutAfter drops the power once the attempt is over, whatever its
	// outcome; the attempt itself returns as it would have.
	CutAfter
)

// FaultPlan describes the faults a Device injects: per-operation
// probabilistic failure rates, a read-disturb decay limit, and scripted
// one-shot events keyed by operation count.
//
// Probabilistic decisions are a pure hash of (Seed, operation kind, block,
// page offset, the block's erase count) compared against the rate, so a plan
// is deterministic for a given sequence of operations regardless of goroutine
// interleaving, and the set of failing operations at a lower rate is a subset
// of the set at a higher rate (the hash does not depend on the rate). Both
// properties are what make randomized fault campaigns replayable and
// endurance trends monotone by construction.
type FaultPlan struct {
	// Seed scrambles the probabilistic fault decisions.
	Seed int64
	// ProgramFailRate is the probability that a page program fails with
	// ErrProgramFailed. The failed page is consumed (the write pointer moves
	// past it) and reads back as unprogrammed, as on real NAND.
	ProgramFailRate float64
	// EraseFailRate is the probability that a block erase fails with
	// ErrEraseFailed. A failed erase retires the block permanently: the
	// device records it in its bad-block table (Partition.BadBlock), and
	// every later program or erase of the block fails.
	EraseFailRate float64
	// ReadDisturbLimit is the number of full-page reads a block tolerates
	// between erases before its payload decays: reads beyond the limit
	// return ErrReadDecayed. Spare-area reads neither disturb nor decay (the
	// out-of-band area is re-read with stronger ECC), so recovery and GC
	// spare scans always succeed. Zero disables read-disturb decay.
	ReadDisturbLimit int
	// Schedule lists scripted one-shot faults on top of the probabilistic
	// rates.
	Schedule []FaultEvent
}

// Validate checks the plan's parameters.
func (p FaultPlan) Validate() error {
	switch {
	case p.ProgramFailRate < 0 || p.ProgramFailRate > 1:
		return fmt.Errorf("flash: program fail rate %g out of range [0,1]", p.ProgramFailRate)
	case p.EraseFailRate < 0 || p.EraseFailRate > 1:
		return fmt.Errorf("flash: erase fail rate %g out of range [0,1]", p.EraseFailRate)
	case p.ReadDisturbLimit < 0:
		return fmt.Errorf("flash: read disturb limit %d must be >= 0", p.ReadDisturbLimit)
	}
	for _, ev := range p.Schedule {
		switch {
		case ev.Op != OpPageWrite && ev.Op != OpErase && ev.Op != OpPageRead:
			return fmt.Errorf("flash: scheduled fault on %v (want page-write, erase or page-read)", ev.Op)
		case ev.AtCount == 0:
			return fmt.Errorf("flash: scheduled fault at count 0 (counts are 1-based)")
		case ev.Cut > CutAfter:
			return fmt.Errorf("flash: scheduled power cut of unknown placement %d", ev.Cut)
		case ev.Cut != NoCut && ev.Op == OpPageRead:
			return fmt.Errorf("flash: scheduled power cut on %v (want page-write or erase)", ev.Op)
		}
	}
	return nil
}

// scheduled reports whether the n'th attempt of op is scripted to fail.
func (p *FaultPlan) scheduled(op Op, n uint64) bool {
	for _, ev := range p.Schedule {
		if ev.Op == op && ev.AtCount == n && ev.Cut == NoCut {
			return true
		}
	}
	return false
}

// cut returns where a power cut is scheduled around the n'th attempt of op:
// NoCut when none is.
func (p *FaultPlan) cut(op Op, n uint64) PowerCut {
	for _, ev := range p.Schedule {
		if ev.Op == op && ev.AtCount == n && ev.Cut != NoCut {
			return ev.Cut
		}
	}
	return NoCut
}

// fails decides the n'th attempt of op against a page of the given block:
// scripted events first, then the probabilistic rate via the address hash.
func (p *FaultPlan) fails(op Op, n uint64, block BlockID, offset, eraseCount int) bool {
	if p.scheduled(op, n) {
		return true
	}
	var rate float64
	switch op {
	case OpPageWrite:
		rate = p.ProgramFailRate
	case OpErase:
		rate = p.EraseFailRate
	}
	if rate <= 0 {
		return false
	}
	return faultHazard(p.Seed, op, block, offset, eraseCount) < rate
}

// faultHazard maps (seed, op, block, offset, eraseCount) to a uniform value
// in [0,1) with a splitmix64-style finalizer. Pure function of its inputs:
// the same operation on the same physical page in the same erase cycle always
// draws the same hazard.
func faultHazard(seed int64, op Op, block BlockID, offset, eraseCount int) float64 {
	x := uint64(seed)
	for _, v := range [...]uint64{uint64(op), uint64(block), uint64(offset), uint64(eraseCount)} {
		x += v + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / float64(uint64(1)<<53)
}
