package pvb

import (
	"fmt"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// RAMPVB is the Page Validity Bitmap kept entirely in integrated RAM.
type RAMPVB struct {
	blocks        int
	pagesPerBlock int
	bits          []*bitmap.Bitmap
}

// NewRAMPVB creates a RAM-resident PVB for a device of the given geometry.
func NewRAMPVB(blocks, pagesPerBlock int) (*RAMPVB, error) {
	if blocks <= 0 || pagesPerBlock <= 0 {
		return nil, fmt.Errorf("pvb: invalid geometry %dx%d", blocks, pagesPerBlock)
	}
	p := &RAMPVB{blocks: blocks, pagesPerBlock: pagesPerBlock, bits: make([]*bitmap.Bitmap, blocks)}
	for i := range p.bits {
		p.bits[i] = bitmap.New(pagesPerBlock)
	}
	return p, nil
}

func (p *RAMPVB) checkBlock(block flash.BlockID) error {
	if block < 0 || int(block) >= p.blocks {
		return fmt.Errorf("pvb: block %d out of range [0,%d)", block, p.blocks)
	}
	return nil
}

// Update sets the invalid bit of the page; no flash IO.
func (p *RAMPVB) Update(addr flash.Addr) error {
	if err := p.checkBlock(addr.Block); err != nil {
		return err
	}
	if addr.Offset < 0 || addr.Offset >= p.pagesPerBlock {
		return fmt.Errorf("pvb: offset %d out of range [0,%d)", addr.Offset, p.pagesPerBlock)
	}
	p.bits[addr.Block].Set(addr.Offset)
	return nil
}

// RecordErase clears every bit of the block.
func (p *RAMPVB) RecordErase(block flash.BlockID) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	p.bits[block].Reset()
	return nil
}

// Query returns a copy of the block's validity bitmap; see QueryInto.
func (p *RAMPVB) Query(block flash.BlockID) (*bitmap.Bitmap, error) {
	dst := bitmap.New(p.pagesPerBlock)
	if err := p.QueryInto(block, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryInto overwrites dst, one bit per page of a block, with the block's
// validity bitmap; no flash IO.
func (p *RAMPVB) QueryInto(block flash.BlockID, dst *bitmap.Bitmap) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	dst.CopyFrom(p.bits[block])
	return nil
}

// RAMBytes returns B*K/8: one bit per physical page.
func (p *RAMPVB) RAMBytes() int64 {
	return int64(p.blocks) * int64((p.pagesPerBlock+7)/8)
}

// CrashRAM clears the bitmap, modeling the loss of integrated RAM at power
// failure. The FTL must rebuild it by scanning the translation table.
func (p *RAMPVB) CrashRAM() {
	for i := range p.bits {
		p.bits[i].Reset()
	}
}

// FlashPVB stores the Page Validity Bitmap in flash. Each PVB page covers a
// contiguous range of flash blocks; updating any bit rewrites the whole PVB
// page out-of-place (one read to fetch the current version plus one write),
// which is precisely the write-amplification problem the paper attributes to
// µ-FTL's approach.
type FlashPVB struct {
	blocks        int
	pagesPerBlock int
	blocksPerPage int
	store         metastore.Storage

	// location[i] is the current flash page holding PVB page i, or
	// InvalidPPN when the range has never been written (all pages valid).
	location []flash.PPN
	// shadow mirrors the flash-resident bitmap so that the simulator can
	// answer queries after the accounted IO has been issued.
	shadow []*bitmap.Bitmap
}

// NewFlashPVB creates a flash-resident PVB for the given geometry, storing
// its pages through the given store. pageSize determines how many blocks'
// worth of validity bits fit into one PVB page.
func NewFlashPVB(blocks, pagesPerBlock, pageSize int, store metastore.Storage) (*FlashPVB, error) {
	if blocks <= 0 || pagesPerBlock <= 0 || pageSize <= 0 {
		return nil, fmt.Errorf("pvb: invalid geometry %dx%d page %d", blocks, pagesPerBlock, pageSize)
	}
	if store == nil {
		return nil, fmt.Errorf("pvb: nil store")
	}
	bytesPerBlock := (pagesPerBlock + 7) / 8
	blocksPerPage := pageSize / bytesPerBlock
	if blocksPerPage < 1 {
		return nil, fmt.Errorf("pvb: page size %d cannot hold even one block's bitmap (%d bytes)", pageSize, bytesPerBlock)
	}
	pvbPages := (blocks + blocksPerPage - 1) / blocksPerPage
	p := &FlashPVB{
		blocks:        blocks,
		pagesPerBlock: pagesPerBlock,
		blocksPerPage: blocksPerPage,
		store:         store,
		location:      make([]flash.PPN, pvbPages),
		shadow:        make([]*bitmap.Bitmap, blocks),
	}
	for i := range p.location {
		p.location[i] = flash.InvalidPPN
	}
	for i := range p.shadow {
		p.shadow[i] = bitmap.New(pagesPerBlock)
	}
	return p, nil
}

func (p *FlashPVB) checkBlock(block flash.BlockID) error {
	if block < 0 || int(block) >= p.blocks {
		return fmt.Errorf("pvb: block %d out of range [0,%d)", block, p.blocks)
	}
	return nil
}

// pvbPageOf returns the index of the PVB page covering the block.
func (p *FlashPVB) pvbPageOf(block flash.BlockID) int { return int(block) / p.blocksPerPage }

// rewrite reads the current version of a PVB page (if any), invalidates it
// and writes the new version out-of-place.
func (p *FlashPVB) rewrite(pvbPage int) error {
	if cur := p.location[pvbPage]; cur != flash.InvalidPPN {
		if err := p.store.Read(cur); err != nil {
			return err
		}
		if err := p.store.Invalidate(cur); err != nil {
			return err
		}
	}
	ppn, err := p.store.Append(flash.SpareArea{Logical: flash.InvalidLPN, Tag: uint64(pvbPage), BlockType: flash.BlockGecko})
	if err != nil {
		return err
	}
	p.location[pvbPage] = ppn
	return nil
}

// Update marks a page invalid: one flash read plus one flash write.
func (p *FlashPVB) Update(addr flash.Addr) error {
	if err := p.checkBlock(addr.Block); err != nil {
		return err
	}
	if addr.Offset < 0 || addr.Offset >= p.pagesPerBlock {
		return fmt.Errorf("pvb: offset %d out of range [0,%d)", addr.Offset, p.pagesPerBlock)
	}
	p.shadow[addr.Block].Set(addr.Offset)
	return p.rewrite(p.pvbPageOf(addr.Block))
}

// RecordErase clears the block's bits: also one read plus one write, since
// the covering PVB page must be rewritten.
func (p *FlashPVB) RecordErase(block flash.BlockID) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	p.shadow[block].Reset()
	return p.rewrite(p.pvbPageOf(block))
}

// Query returns the block's bitmap in a new bitmap; see QueryInto.
func (p *FlashPVB) Query(block flash.BlockID) (*bitmap.Bitmap, error) {
	dst := bitmap.New(p.pagesPerBlock)
	if err := p.QueryInto(block, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// QueryInto reads the covering PVB page and overwrites dst, one bit per page
// of a block, with the block's bitmap.
func (p *FlashPVB) QueryInto(block flash.BlockID, dst *bitmap.Bitmap) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	if cur := p.location[p.pvbPageOf(block)]; cur != flash.InvalidPPN {
		if err := p.store.Read(cur); err != nil {
			return err
		}
	}
	dst.CopyFrom(p.shadow[block])
	return nil
}

// RAMBytes returns the integrated-RAM footprint: an 8-byte location per PVB
// page, which is (4*B*K/8)/P in the paper's notation -- tiny compared to the
// RAM-resident PVB.
func (p *FlashPVB) RAMBytes() int64 {
	return int64(len(p.location)) * 8
}

// CrashRAM does nothing. The bitmap is in flash and survives a power failure;
// only its small RAM directory would need rebuilding, which the FTL's
// recovery pays for with the spare-area scan of every block it makes anyway,
// so the simulator keeps the directory with the flash image.
func (p *FlashPVB) CrashRAM() {}
