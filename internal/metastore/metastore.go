package metastore

import (
	"errors"
	"fmt"

	"geckoftl/internal/flash"
)

// ErrNoSpace is returned when the store has no free metadata page left.
var ErrNoSpace = errors.New("metastore: out of free metadata pages")

// Storage is the interface flash-resident metadata structures write through.
//
// Append programs the next free metadata page and returns its physical
// address. Read accounts a full page read. ReadSpare accounts a spare-area
// read and returns the stored spare. Invalidate marks a previously appended
// page as obsolete so that its block can eventually be erased; it performs no
// IO by itself.
type Storage interface {
	Append(spare flash.SpareArea) (flash.PPN, error)
	Read(ppn flash.PPN) error
	ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error)
	Invalidate(ppn flash.PPN) error
}

// BlockLister is implemented by stores that can enumerate the blocks they
// own; recovery procedures use it to scan spare areas.
type BlockLister interface {
	Blocks() []flash.BlockID
}

// BlockStore is a Storage over a dedicated set of blocks of a device.
//
// Pages are written append-only into an active block. When the active block
// fills up, the store moves on to the next block with free space. A block is
// erased only once every page in it has been invalidated, which is exactly
// GeckoFTL's garbage-collection policy for metadata blocks (Section 4.2): hot
// metadata is never migrated, the store just waits for blocks to become fully
// invalid.
type BlockStore struct {
	dev     *flash.Device
	purpose flash.Purpose
	btype   flash.BlockType

	blocks  []flash.BlockID
	active  int // index into blocks of the block currently written
	invalid []int
	written []int
}

// NewBlockStore creates a store that owns the given blocks of the device and
// accounts all of its IO under the given purpose. The blocks must be erased
// (or never written); the store assumes exclusive ownership.
func NewBlockStore(dev *flash.Device, blocks []flash.BlockID, btype flash.BlockType, purpose flash.Purpose) (*BlockStore, error) {
	if len(blocks) == 0 {
		return nil, errors.New("metastore: need at least one block")
	}
	seen := make(map[flash.BlockID]bool, len(blocks))
	for _, b := range blocks {
		if seen[b] {
			return nil, fmt.Errorf("metastore: block %d listed twice", b)
		}
		seen[b] = true
	}
	return &BlockStore{
		dev:     dev,
		purpose: purpose,
		btype:   btype,
		blocks:  append([]flash.BlockID(nil), blocks...),
		invalid: make([]int, len(blocks)),
		written: make([]int, len(blocks)),
	}, nil
}

// Blocks returns the blocks owned by the store.
func (s *BlockStore) Blocks() []flash.BlockID {
	return append([]flash.BlockID(nil), s.blocks...)
}

// Append programs the next free page among the store's blocks.
func (s *BlockStore) Append(spare flash.SpareArea) (flash.PPN, error) {
	cfg := s.dev.Config()
	for tries := 0; tries < len(s.blocks); tries++ {
		idx := (s.active + tries) % len(s.blocks)
		if s.written[idx] >= cfg.PagesPerBlock {
			// Block is full; reclaim it if every page is invalid.
			if s.invalid[idx] >= cfg.PagesPerBlock {
				if err := s.dev.EraseBlock(s.blocks[idx], s.purpose); err != nil {
					return flash.InvalidPPN, err
				}
				s.written[idx] = 0
				s.invalid[idx] = 0
			} else {
				continue
			}
		}
		s.active = idx
		offset := s.written[idx]
		if offset == 0 {
			spare.BlockType = s.btype
		}
		ppn := flash.PPNOf(s.blocks[idx], offset, cfg.PagesPerBlock)
		if _, err := s.dev.WritePage(ppn, spare, s.purpose); err != nil {
			return flash.InvalidPPN, err
		}
		s.written[idx]++
		return ppn, nil
	}
	return flash.InvalidPPN, ErrNoSpace
}

// Read accounts a full page read of a previously appended page.
func (s *BlockStore) Read(ppn flash.PPN) error {
	return s.dev.ReadPage(ppn, s.purpose)
}

// ReadSpare accounts a spare-area read of a page in the store.
func (s *BlockStore) ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error) {
	return s.dev.ReadSpare(ppn, s.purpose)
}

// Invalidate marks a previously appended page obsolete. When the last live
// page of a full block is invalidated the block becomes reclaimable; the
// erase itself is deferred until Append needs the space.
func (s *BlockStore) Invalidate(ppn flash.PPN) error {
	cfg := s.dev.Config()
	block := flash.BlockOf(ppn, cfg.PagesPerBlock)
	for i, b := range s.blocks {
		if b == block {
			s.invalid[i]++
			if s.invalid[i] > cfg.PagesPerBlock {
				return fmt.Errorf("metastore: block %d over-invalidated", block)
			}
			return nil
		}
	}
	return fmt.Errorf("metastore: page %d is not in this store", ppn)
}
