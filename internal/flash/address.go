package flash

import "fmt"

// LPN is a logical page number: the address space exposed to the application.
type LPN int64

// InvalidLPN marks a spare area or mapping entry that holds no logical page.
const InvalidLPN LPN = -1

// HostOp is the kind of a host operation on a logical page. It is the one
// such enum: the workload generators, the submission queue and the engine's
// dispatcher name it through aliases.
type HostOp int

const (
	// HostWrite is a logical page update.
	HostWrite HostOp = iota
	// HostRead is a logical page read.
	HostRead
	// HostTrim is a host trim (discard) of a logical page.
	HostTrim
)

// String returns "write", "read" or "trim".
func (k HostOp) String() string {
	switch k {
	case HostRead:
		return "read"
	case HostTrim:
		return "trim"
	default:
		return "write"
	}
}

// PPN is a physical page number in the range [0, K*B).
type PPN int64

// InvalidPPN marks a mapping entry that points nowhere.
const InvalidPPN PPN = -1

// BlockID identifies a flash block in the range [0, K).
type BlockID int32

// InvalidBlock marks an unset block reference.
const InvalidBlock BlockID = -1

// Addr is a decomposed physical address: a block and a page offset within it.
type Addr struct {
	Block  BlockID
	Offset int
}

// String renders the address as "block:offset".
func (a Addr) String() string { return fmt.Sprintf("%d:%d", a.Block, a.Offset) }

// PPNOf composes a physical page number from a block and offset given the
// device geometry.
func PPNOf(block BlockID, offset, pagesPerBlock int) PPN {
	return PPN(int64(block)*int64(pagesPerBlock) + int64(offset))
}

// Decompose splits a physical page number into its block and page offset.
func Decompose(ppn PPN, pagesPerBlock int) Addr {
	return Addr{
		Block:  BlockID(int64(ppn) / int64(pagesPerBlock)),
		Offset: int(int64(ppn) % int64(pagesPerBlock)),
	}
}

// BlockOf returns the block that contains the given physical page.
func BlockOf(ppn PPN, pagesPerBlock int) BlockID {
	return BlockID(int64(ppn) / int64(pagesPerBlock))
}

// OffsetOf returns the page offset of ppn within its block.
func OffsetOf(ppn PPN, pagesPerBlock int) int {
	return int(int64(ppn) % int64(pagesPerBlock))
}
