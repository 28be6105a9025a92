package gecko

import (
	"fmt"
	"math"

	"geckoftl/internal/bitmap"
)

// DefaultSizeRatio is T, the size ratio between adjacent levels. The paper's
// evaluation (Figure 9) finds T = 2 minimizes write-amplification.
const DefaultSizeRatio = 2

// keyBytes is the size of a Gecko entry key (a block ID), 4 bytes as in
// Figure 3 of the paper; the packed spare key and the 8-byte entry assume it.
const keyBytes = 4

// entryHeaderBytes is the per-entry overhead besides the key and the bitmap
// chunk: a sub-key (2 bytes) and a flags byte holding the erase flag.
const entryHeaderBytes = 3

// A run page's spare area keeps its key range as packed keys (packKey): the
// block in 24 bits and the sub-key plus one in 8, so that WholeBlock packs to
// zero. Validate refuses a configuration whose keys those bits cannot hold.
const (
	maxBlocks          = 1 << 24
	maxPartitionFactor = 1<<8 - 1
)

// Config describes a Logarithmic Gecko instance.
type Config struct {
	// Blocks is K, the number of flash blocks indexed.
	Blocks int
	// PagesPerBlock is B, the number of page-validity bits per block.
	PagesPerBlock int
	// PageSize is P, the flash page size in bytes; it determines V, the
	// number of Gecko entries per flash page and per buffer.
	PageSize int
	// SizeRatio is T, the size ratio between runs at adjacent levels
	// (minimum 2).
	SizeRatio int
	// PartitionFactor is S, the entry-partitioning factor of Section 3.3.
	// S = 1 disables partitioning; S = B/(8*keyBytes) is the paper's
	// recommended balance (see RecommendedPartitionFactor).
	PartitionFactor int
	// MultiWayMerge enables the multi-way merge optimization of Appendix A:
	// a merge that would cascade through several levels is performed as a
	// single multi-way sort-merge, at the cost of L input buffers in RAM.
	MultiWayMerge bool
	// BufferLimit, if non-zero, caps the number of entries the buffer may
	// absorb before flushing even when fewer than V distinct entries exist.
	// Appendix C.2 uses this to bound buffer-recovery time. Zero means the
	// buffer flushes only when V distinct entries accumulate.
	BufferLimit int
}

// DefaultConfig returns a Logarithmic Gecko configuration for a device with
// the given geometry, using the paper's defaults: T = 2, entry-partitioning
// at the recommended factor.
func DefaultConfig(blocks, pagesPerBlock, pageSize int) Config {
	cfg := Config{
		Blocks:          blocks,
		PagesPerBlock:   pagesPerBlock,
		PageSize:        pageSize,
		SizeRatio:       DefaultSizeRatio,
		PartitionFactor: 1,
	}
	cfg.PartitionFactor = cfg.RecommendedPartitionFactor()
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0:
		return fmt.Errorf("gecko: blocks %d must be positive", c.Blocks)
	case c.Blocks >= maxBlocks:
		return fmt.Errorf("gecko: %d blocks, but a run page's spare area holds block IDs below %d", c.Blocks, maxBlocks)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("gecko: pages per block %d must be positive", c.PagesPerBlock)
	case c.PageSize <= 0:
		return fmt.Errorf("gecko: page size %d must be positive", c.PageSize)
	case c.SizeRatio < 2:
		return fmt.Errorf("gecko: size ratio %d must be at least 2", c.SizeRatio)
	case c.PartitionFactor < 1 || c.PartitionFactor > c.PagesPerBlock:
		return fmt.Errorf("gecko: partition factor %d out of range [1,%d]", c.PartitionFactor, c.PagesPerBlock)
	case c.PartitionFactor > maxPartitionFactor:
		return fmt.Errorf("gecko: partition factor %d, but a run page's spare area holds sub-keys below %d", c.PartitionFactor, maxPartitionFactor)
	case c.BufferLimit < 0:
		return fmt.Errorf("gecko: buffer limit %d must be >= 0", c.BufferLimit)
	case c.EntriesPerPage() < 1:
		return fmt.Errorf("gecko: page size %d too small for even one entry", c.PageSize)
	}
	return nil
}

// RecommendedPartitionFactor returns S = B/(8*keyBytes), the partitioning
// factor the paper recommends (Section 3.3): each sub-entry then carries a
// bitmap chunk the same size as its key, which removes the dependence of the
// update cost on B while keeping space-amplification bounded.
func (c Config) RecommendedPartitionFactor() int {
	s := c.PagesPerBlock / (8 * keyBytes)
	if s < 1 {
		return 1
	}
	return s
}

// BitsPerEntry returns the number of page-validity bits in one (sub-)entry:
// B with no partitioning, B/S with partitioning. The last sub-entry of a
// block may notionally cover fewer pages when S does not divide B; the
// implementation rounds the chunk size up so that every page is covered.
func (c Config) BitsPerEntry() int {
	return (c.PagesPerBlock + c.PartitionFactor - 1) / c.PartitionFactor
}

// wordsPerEntry returns the number of 64-bit words a slab keeps per entry for
// its BitsPerEntry validity bits.
func (c Config) wordsPerEntry() int { return (c.BitsPerEntry() + 63) / 64 }

// sizes are what a Gecko derives from its Config, once, at New and newBuffer.
type sizes struct {
	perPage int // V: entries in a flash page and in the buffer
	bits    int // BitsPerEntry
	wpe     int // wordsPerEntry
}

func (c Config) sizes() sizes {
	return sizes{perPage: c.EntriesPerPage(), bits: c.BitsPerEntry(), wpe: c.wordsPerEntry()}
}

// fold ORs the validity bits of one chunk entry into a full-block bitmap.
// Erase entries carry no bits.
func (z sizes) fold(result *bitmap.Bitmap, subKey int16, words []uint64) {
	if subKey == WholeBlock {
		return
	}
	// The last chunk may pass B when S does not divide B: clamp it.
	offset := int(subKey) * z.bits
	if width := min(z.bits, result.Len()-offset); width > 0 {
		result.OrWords(offset, words, width)
	}
}

// EntryBytes returns the serialized size of one Gecko (sub-)entry: key,
// sub-key + flags header, and the bitmap chunk.
func (c Config) EntryBytes() int {
	bitmapBytes := (c.BitsPerEntry() + 7) / 8
	return keyBytes + entryHeaderBytes + bitmapBytes
}

// EntriesPerPage returns V, the number of Gecko entries that fit into one
// flash page (and therefore into the RAM-resident buffer, whose size is one
// flash page).
func (c Config) EntriesPerPage() int {
	return c.PageSize / c.EntryBytes()
}

// MaxEntries returns the number of distinct (block, sub-key) entries that can
// exist: K*S.
func (c Config) MaxEntries() int64 {
	return int64(c.Blocks) * int64(c.PartitionFactor)
}

// distinctKeys returns how many keys a run can hold: every block's S
// sub-keys and its WholeBlock erase key.
func (c Config) distinctKeys() int { return c.Blocks * (c.PartitionFactor + 1) }

// LargestRunPages returns the number of flash pages in the largest possible
// run, which holds one entry for every key, erase keys included.
func (c Config) LargestRunPages() int {
	v := c.EntriesPerPage()
	return (c.distinctKeys() + v - 1) / v
}

// Levels returns L, the number of levels: ceil(log_T(K*S/V)), at least 1.
func (c Config) Levels() int {
	ratio := float64(c.MaxEntries()) / float64(c.EntriesPerPage())
	if ratio <= 1 {
		return 1
	}
	l := int(math.Ceil(math.Log(ratio) / math.Log(float64(c.SizeRatio))))
	if l < 1 {
		l = 1
	}
	return l
}

// LevelOfRunPages returns the level a run of the given number of pages
// belongs to: level i holds runs of T^i to T^(i+1)-1 pages.
func (c Config) LevelOfRunPages(pages int) int {
	if pages < 1 {
		return 0
	}
	level := 0
	bound := 1
	for pages >= bound*c.SizeRatio {
		bound *= c.SizeRatio
		level++
	}
	return level
}

// String summarizes the configuration.
func (c Config) String() string {
	return fmt.Sprintf("gecko(K=%d B=%d P=%d T=%d S=%d V=%d L=%d)",
		c.Blocks, c.PagesPerBlock, c.PageSize, c.SizeRatio, c.PartitionFactor, c.EntriesPerPage(), c.Levels())
}
