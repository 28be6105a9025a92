package flash

// BlockType records what kind of data a block holds. The FTL writes the type
// into the spare area of the first page it programs in a block so that the
// recovery procedure can classify blocks with one spare-area read per block
// (GeckoRec step 1, Appendix C).
type BlockType uint8

const (
	// BlockFree is a block with no programmed pages.
	BlockFree BlockType = iota
	// BlockUser holds application data pages.
	BlockUser
	// BlockTranslation holds translation pages (the flash-resident
	// translation table).
	BlockTranslation
	// BlockGecko holds Logarithmic Gecko runs or other flash-resident
	// page-validity metadata (flash PVB pages, PVL pages).
	BlockGecko
)

var blockTypeNames = [...]string{
	BlockFree:        "free",
	BlockUser:        "user",
	BlockTranslation: "translation",
	BlockGecko:       "gecko",
}

// String returns the block type name.
func (t BlockType) String() string {
	if int(t) < len(blockTypeNames) {
		return blockTypeNames[t]
	}
	return "invalid"
}

// SpareArea models the out-of-band area adjacent to every flash page. It can
// be written exactly once per page life-cycle (together with the page
// program) and read on its own at a fraction of a page read's cost.
//
// The fields mirror what the paper stores there: the logical address written
// on the page, a monotonically increasing write timestamp, the block type (on
// the first page of a block), and the block's erase count for wear leveling
// (Appendix D). Together they take 37 bytes, which fits the out-of-band area
// of real NAND (64-224 bytes per page) with room for ECC.
//
// A SpareArea is what WritePage takes and ReadSpare returns, not how the
// simulator stores it: the device keeps 12 bytes a page (Logical in 4,
// WriteSeq and BlockType packed in 8) and takes the rest from the page's
// block, as each field below says.
type SpareArea struct {
	// Logical is the logical page stored on this physical page, or
	// InvalidLPN for metadata pages. The device holds it in 4 bytes and
	// refuses a program whose Logical lies outside [InvalidLPN, 2³¹−1].
	Logical LPN
	// WriteSeq is the sequence number of the page program within the
	// partition it went through (or the Device, for the Device's own IO):
	// the "timestamp of when the page was last written". The device assigns
	// it, starting at 1, and ignores the caller's value; it holds it in 56
	// bits beside BlockType and refuses programs once it has reached 2⁵⁶−1.
	WriteSeq uint64
	// BlockType is meaningful only on the first page programmed in a
	// block; it records the block group the block was allocated to.
	BlockType BlockType
	// EraseCount is the number of times this page's block had been erased
	// when the page was written (wear-leveling statistic, Appendix D). The
	// device stamps it and ignores the caller's value; it is not stored per
	// page, because only an erase changes it and an erase empties the block,
	// so the block's current count is every programmed page's stamp.
	EraseCount uint32
	// Tag is free-form metadata for FTL-specific bookkeeping: run IDs for
	// Logarithmic Gecko pages, translation-page indexes for translation
	// pages, log sequence numbers for the page validity log. Only metadata
	// pages (translation, Gecko, PVB/PVL and metastore pages) set Tag or
	// Aux, so the device keeps the two in a per-block row that exists only
	// while the block holds such a page.
	Tag uint64
	// Aux is a second free-form metadata slot (e.g. run level, or the
	// content-sequence stamp of the public device API).
	Aux uint64
}
