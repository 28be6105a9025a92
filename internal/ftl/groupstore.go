package ftl

import (
	"slices"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// groupStore adapts the block manager's metadata block group to the
// metastore.Storage interface that Logarithmic Gecko, the flash-resident PVB
// and the page validity log write through. Appends allocate pages from the
// metadata group (growing it from the free pool on demand), and invalidations
// feed the Blocks Validity Counter so that fully-invalid metadata blocks can
// be erased without migrations (Section 4.2).
type groupStore struct {
	bm     *blockManager
	blocks []flash.BlockID // Blocks' result
}

var _ metastore.Storage = (*groupStore)(nil)
var _ metastore.BlockLister = (*groupStore)(nil)

// Append programs the next free metadata page.
func (s *groupStore) Append(spare flash.SpareArea) (flash.PPN, error) {
	return s.bm.AllocatePage(GroupMeta, spare, flash.PurposePageValidity)
}

// Read accounts a full page read of a metadata page.
func (s *groupStore) Read(ppn flash.PPN) error {
	return s.bm.dev.ReadPage(ppn, flash.PurposePageValidity)
}

// ReadSpare accounts a spare-area read of a metadata page.
func (s *groupStore) ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error) {
	return s.bm.dev.ReadSpare(ppn, flash.PurposePageValidity)
}

// Invalidate marks a metadata page obsolete in the BVC.
func (s *groupStore) Invalidate(ppn flash.PPN) error {
	return s.bm.InvalidatePage(ppn)
}

// Blocks returns the blocks currently allocated to the metadata group, which
// is what Logarithmic Gecko's directory recovery scans. The result is reused
// scratch, valid until the next call.
func (s *groupStore) Blocks() []flash.BlockID {
	s.blocks = slices.AppendSeq(s.blocks[:0], s.bm.BlocksInGroup(GroupMeta))
	return s.blocks
}
