package model

import (
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
)

// FTLKind identifies one of the five FTLs the paper compares.
type FTLKind int

const (
	// GeckoFTL is the paper's contribution.
	GeckoFTL FTLKind = iota
	// DFTL keeps the PVB in RAM and relies on a battery.
	DFTL
	// LazyFTL keeps the PVB in RAM and bounds dirty cached entries.
	LazyFTL
	// MuFTL stores the PVB in flash and relies on a battery.
	MuFTL
	// IBFTL logs invalidated addresses in flash with per-block chains.
	IBFTL
)

var kindNames = [...]string{
	GeckoFTL: "GeckoFTL",
	DFTL:     "DFTL",
	LazyFTL:  "LazyFTL",
	MuFTL:    "uFTL",
	IBFTL:    "IB-FTL",
}

// String names the FTL.
func (k FTLKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("ftl(%d)", int(k))
}

// Kinds returns all modeled FTLs in the order the paper presents them.
func Kinds() []FTLKind { return []FTLKind{DFTL, LazyFTL, MuFTL, IBFTL, GeckoFTL} }

// Parameters describes a device and FTL configuration in the paper's terms
// (Figure 2).
type Parameters struct {
	// Blocks is K.
	Blocks int64
	// PagesPerBlock is B.
	PagesPerBlock int64
	// PageSize is P in bytes.
	PageSize int64
	// OverProvision is R, the logical-to-physical capacity ratio.
	OverProvision float64
	// CacheEntries is C, the LRU cache capacity in mapping entries.
	CacheEntries int64
	// BytesPerCacheEntry is the RAM cost of one cached entry (8 in the
	// paper's evaluation).
	BytesPerCacheEntry int64
	// DirtyFraction is the fraction of C that LazyFTL and IB-FTL allow to
	// be dirty (0.1 in the evaluation).
	DirtyFraction float64
	// Latency is the device cost model used to convert IO counts into
	// recovery time.
	Latency flash.Latency
	// GeckoSizeRatio is Logarithmic Gecko's T.
	GeckoSizeRatio int
}

// Default returns the paper's default configuration (Section 5): a 2 TB
// device with 4 KB pages, 128 pages per block, R = 0.7, a 4 MB LRU cache at
// 8 bytes per entry, and the Grupp et al. latency numbers.
func Default() Parameters {
	return Parameters{
		Blocks:             1 << 22,
		PagesPerBlock:      1 << 7,
		PageSize:           1 << 12,
		OverProvision:      0.7,
		CacheEntries:       1 << 19,
		BytesPerCacheEntry: 8,
		DirtyFraction:      0.1,
		Latency:            flash.DefaultLatency(),
		GeckoSizeRatio:     gecko.DefaultSizeRatio,
	}
}

// WithCapacity returns a copy of p scaled to the given physical capacity in
// bytes, keeping the page size, block size and ratios fixed. Figure 1 sweeps
// capacity this way.
func (p Parameters) WithCapacity(bytes int64) Parameters {
	out := p
	out.Blocks = bytes / (p.PagesPerBlock * p.PageSize)
	return out
}

// Validate checks the parameters.
func (p Parameters) Validate() error {
	switch {
	case p.Blocks <= 0 || p.PagesPerBlock <= 0 || p.PageSize <= 0:
		return fmt.Errorf("model: geometry %dx%dx%d must be positive", p.Blocks, p.PagesPerBlock, p.PageSize)
	case p.OverProvision <= 0 || p.OverProvision >= 1:
		return fmt.Errorf("model: over-provision %f out of range (0,1)", p.OverProvision)
	case p.CacheEntries <= 0 || p.BytesPerCacheEntry <= 0:
		return fmt.Errorf("model: cache %d entries x %d bytes must be positive", p.CacheEntries, p.BytesPerCacheEntry)
	case p.DirtyFraction < 0 || p.DirtyFraction > 1:
		return fmt.Errorf("model: dirty fraction %f out of range [0,1]", p.DirtyFraction)
	case p.GeckoSizeRatio < 2:
		return fmt.Errorf("model: gecko size ratio %d must be at least 2", p.GeckoSizeRatio)
	}
	return nil
}

// PhysicalPages returns K*B.
func (p Parameters) PhysicalPages() int64 { return p.Blocks * p.PagesPerBlock }

// LogicalPages returns R*K*B.
func (p Parameters) LogicalPages() int64 {
	return int64(p.OverProvision * float64(p.PhysicalPages()))
}

// TranslationTableBytes returns TT = 4*K*B*R, the size of the translation
// table in flash (Section 2).
func (p Parameters) TranslationTableBytes() int64 { return 4 * p.LogicalPages() }

// TranslationPages returns TT/P, the number of translation pages.
func (p Parameters) TranslationPages() int64 {
	return (p.TranslationTableBytes() + p.PageSize - 1) / p.PageSize
}

// GMDBytes returns the size of the Global Mapping Directory: 4 bytes per
// translation page (Section 2 gives (4*TT)/P).
func (p Parameters) GMDBytes() int64 { return 4 * p.TranslationPages() }

// PVBBytes returns B*K/8, the size of the Page Validity Bitmap.
func (p Parameters) PVBBytes() int64 { return p.PhysicalPages() / 8 }

// BVCBytes returns 2*K, the size of the Blocks Validity Counter
// (Appendix B: an I2 integer per block).
func (p Parameters) BVCBytes() int64 { return 2 * p.Blocks }

// CacheBytes returns the RAM consumed by the LRU cache.
func (p Parameters) CacheBytes() int64 { return p.CacheEntries * p.BytesPerCacheEntry }

// GeckoConfig returns the Logarithmic Gecko configuration implied by the
// parameters.
func (p Parameters) GeckoConfig() gecko.Config {
	cfg := gecko.DefaultConfig(int(p.Blocks), int(p.PagesPerBlock), int(p.PageSize))
	cfg.SizeRatio = p.GeckoSizeRatio
	return cfg
}

// GeckoRunDirectoryBytes returns the Appendix B estimate of Logarithmic
// Gecko's run directories: 8 bytes for each of the at most 2*K*S/V Gecko
// pages.
func (p Parameters) GeckoRunDirectoryBytes() int64 {
	cfg := p.GeckoConfig()
	pages := 2 * cfg.MaxEntries() / int64(cfg.EntriesPerPage())
	return 8 * pages
}

// GeckoBufferBytes returns the RAM consumed by Logarithmic Gecko's buffers:
// one flash page for the insert buffer (the multi-way merge variant would
// need 2+L pages; the default two-way merge needs 2).
func (p Parameters) GeckoBufferBytes() int64 { return 2 * p.PageSize }

// PVLLogBytes returns the flash size of the IB-FTL page validity log at its
// Appendix E bound of twice the over-provisioned space, in entries of 22
// bytes (block ID, offset, timestamp, chain pointer).
func (p Parameters) PVLLogEntries() int64 {
	d := p.PhysicalPages() - p.LogicalPages()
	return 2 * d
}

// PVLHeadBytes returns the RAM consumed by IB-FTL's per-block chain heads and
// erase timestamps: a 4-byte log pointer plus the 4-byte erase timestamp the
// Appendix E cleaning mechanism adds, per block.
func (p Parameters) PVLHeadBytes() int64 { return 8 * p.Blocks }
