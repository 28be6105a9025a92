package flash

import (
	"fmt"
	"time"
)

// Default architectural parameters used throughout the paper's evaluation
// (Section 5, "Default Configuration"): 4 KB pages, 128 pages per block,
// 70% logical-to-physical ratio, a 10x write/read latency asymmetry.
const (
	DefaultPageSize      = 4 * 1024
	DefaultPagesPerBlock = 128
	DefaultOverProvision = 0.70
)

// Default latencies, following Grupp et al. (FAST'12) as cited by the paper:
// a page read takes ~100us, a page write ~1ms, a spare-area read ~3us
// (a page read divided by the spare divisor), and a block erase ~2ms.
const (
	DefaultPageReadLatency  = 100 * time.Microsecond
	DefaultPageWriteLatency = 1 * time.Millisecond
	DefaultSpareReadLatency = 3 * time.Microsecond
	DefaultEraseLatency     = 2 * time.Millisecond
)

// Latency holds the cost model of the simulated device. All recovery-time and
// throughput figures are derived from these constants; write-amplification is
// derived from IO counts alone.
type Latency struct {
	PageRead  time.Duration
	PageWrite time.Duration
	SpareRead time.Duration
	Erase     time.Duration
}

// DefaultLatency returns the latency model used by the paper's evaluation.
func DefaultLatency() Latency {
	return Latency{
		PageRead:  DefaultPageReadLatency,
		PageWrite: DefaultPageWriteLatency,
		SpareRead: DefaultSpareReadLatency,
		Erase:     DefaultEraseLatency,
	}
}

// WriteReadRatio returns delta, the ratio between the cost of a page write
// and a page read. The paper's default configuration sets delta = 10.
func (l Latency) WriteReadRatio() float64 {
	if l.PageRead <= 0 {
		return 0
	}
	return float64(l.PageWrite) / float64(l.PageRead)
}

// Config describes the geometry and cost model of a simulated flash device.
type Config struct {
	// Blocks is K, the number of flash blocks in the device.
	Blocks int
	// PagesPerBlock is B, the number of pages per block.
	PagesPerBlock int
	// PageSize is P, the size of a flash page in bytes.
	PageSize int
	// OverProvision is R, the ratio of logical capacity to physical
	// capacity (0 < R < 1). The logical address space exposed to the
	// application contains floor(R*K*B) pages.
	OverProvision float64
	// Latency is the device cost model.
	Latency Latency
	// MaxEraseCount, if non-zero, is the number of erases after which a
	// block is considered worn out. Erasing a worn-out block returns
	// ErrWornOut. Zero means unlimited.
	MaxEraseCount int
	// StrictSequentialWrites enforces that pages within a block are
	// written in strictly increasing offset order, as required by modern
	// NAND (idiosyncrasy 4 in Section 2 of the paper).
	StrictSequentialWrites bool
	// Channels is the number of independent flash channels. Zero means one:
	// the paper's single serialized plane.
	Channels int
	// DiesPerChannel is the number of dies ganged on each channel. Zero
	// means one. Operations on distinct dies proceed in parallel;
	// operations on the same die serialize (one latch per die).
	DiesPerChannel int
}

// DefaultConfig returns the paper's default 2 TB configuration:
// K = 2^22 blocks, B = 2^7 pages per block, P = 2^12 bytes per page, R = 0.7.
// Most simulations in this repository use ScaledConfig instead because the
// full 2 TB geometry needs several hundred megabytes of simulator state.
func DefaultConfig() Config {
	return Config{
		Blocks:                 1 << 22,
		PagesPerBlock:          DefaultPagesPerBlock,
		PageSize:               DefaultPageSize,
		OverProvision:          DefaultOverProvision,
		Latency:                DefaultLatency(),
		StrictSequentialWrites: true,
	}
}

// ScaledConfig returns a configuration with the paper's default page size,
// block size, over-provisioning and latencies but with only the given number
// of blocks. It is the workhorse configuration for simulation experiments.
func ScaledConfig(blocks int) Config {
	cfg := DefaultConfig()
	cfg.Blocks = blocks
	return cfg
}

// Validate checks that the configuration describes a realizable device.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0:
		return fmt.Errorf("flash: config has %d blocks, need > 0", c.Blocks)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: config has %d pages per block, need > 0", c.PagesPerBlock)
	case c.PageSize <= 0:
		return fmt.Errorf("flash: config has page size %d, need > 0", c.PageSize)
	case c.OverProvision <= 0 || c.OverProvision >= 1:
		return fmt.Errorf("flash: over-provision ratio %.3f out of range (0,1)", c.OverProvision)
	case c.Latency.PageRead <= 0 || c.Latency.PageWrite <= 0 || c.Latency.SpareRead <= 0 || c.Latency.Erase <= 0:
		return fmt.Errorf("flash: all latencies must be positive: %+v", c.Latency)
	case c.MaxEraseCount < 0:
		return fmt.Errorf("flash: max erase count %d must be >= 0", c.MaxEraseCount)
	case c.Channels < 0 || c.DiesPerChannel < 0:
		return fmt.Errorf("flash: channels %d and dies per channel %d must be >= 0", c.Channels, c.DiesPerChannel)
	case c.Dies() > c.Blocks:
		return fmt.Errorf("flash: %d dies need at least as many blocks, have %d", c.Dies(), c.Blocks)
	}
	return nil
}

// PhysicalPages returns the total number of physical pages K*B.
func (c Config) PhysicalPages() int { return c.Blocks * c.PagesPerBlock }

// LogicalPages returns the number of logical pages exposed to the
// application: floor(R * K * B).
func (c Config) LogicalPages() int {
	return int(c.OverProvision * float64(c.PhysicalPages()))
}

// String summarizes the geometry, e.g. "flash(K=65536 B=128 P=4096 R=0.70)";
// multi-die devices append the topology as "CxD" (channels x dies each).
func (c Config) String() string {
	s := fmt.Sprintf("flash(K=%d B=%d P=%d R=%.2f", c.Blocks, c.PagesPerBlock, c.PageSize, c.OverProvision)
	if c.Dies() > 1 {
		s += fmt.Sprintf(" T=%dx%d", c.channels(), c.diesPerChannel())
	}
	return s + ")"
}
