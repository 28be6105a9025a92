package flash

import "errors"

// Errors returned by the device simulator. They fall into two families. The
// first models the NAND constraints the FTL must respect — an FTL that
// triggers one of these has a bug, so the test suite treats them as hard
// failures. The second (ErrProgramFailed, ErrEraseFailed, ErrReadDecayed, and
// ErrWornOut once a block's erase budget is spent) models the media itself
// failing: those arise only on worn devices or under an installed FaultPlan,
// and the FTL is expected to survive them by retrying, retiring the block, or
// scrubbing.
var (
	// ErrOutOfRange is returned for addresses outside the device geometry.
	ErrOutOfRange = errors.New("flash: address out of range")
	// ErrPageNotFree is returned when programming a page that has already
	// been programmed since its block was last erased.
	ErrPageNotFree = errors.New("flash: page already programmed since last erase")
	// ErrNonSequentialWrite is returned when a write skips ahead of the
	// block's write pointer while strict sequential writes are enabled.
	ErrNonSequentialWrite = errors.New("flash: non-sequential write within block")
	// ErrPageNotWritten is returned when reading a page (or spare area)
	// that has not been programmed since the last erase — including pages
	// whose program pulse failed, which hold nothing readable.
	ErrPageNotWritten = errors.New("flash: page not programmed")
	// ErrWornOut is returned when erasing a block beyond its maximum
	// erase count. The device retires the block on the attempt
	// (Partition.BadBlock reports it from then on); the block's last
	// successful erase still stands, so a free worn-out block remains
	// writable for one final cycle.
	ErrWornOut = errors.New("flash: block worn out")
	// ErrProgramFailed is returned when a page program pulse fails (an
	// injected fault, or a program aimed at a retired block). The failed
	// page is consumed: the block's write pointer moves past it and the page
	// reads back as unprogrammed. The FTL retries on the next free page.
	ErrProgramFailed = errors.New("flash: page program failed")
	// ErrEraseFailed is returned when a block erase pulse fails (an injected
	// fault). The block is retired permanently — a grown bad block recorded
	// in the device's bad-block table (Partition.BadBlock) — and its
	// contents are untouched.
	ErrEraseFailed = errors.New("flash: block erase failed")
	// ErrReadDecayed is returned when a full-page read finds the payload
	// decayed by read disturb: the block absorbed more page reads since its
	// last erase than the fault plan's ReadDisturbLimit. Spare areas stay
	// readable; only the page payload is lost, so an FTL that scrubs
	// hot-read blocks in time never sees this error.
	ErrReadDecayed = errors.New("flash: page payload decayed (read disturb)")
	// ErrPowerFailed is returned for any operation issued while the
	// device is in the powered-off state.
	ErrPowerFailed = errors.New("flash: device is powered off")
	// ErrLatchConflict is returned by Device.Partition for a block range
	// whose dies two different partitions' latches already serialize.
	ErrLatchConflict = errors.New("flash: partition spans dies of two latches")
)
