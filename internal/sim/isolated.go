package sim

import (
	"fmt"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
	"geckoftl/internal/metastore"
	"geckoftl/internal/pvb"
	"geckoftl/internal/workload"
)

// validityScheme is the page-validity structure measured by the isolated
// experiments of Sections 5.1 and 5.2 (Logarithmic Gecko under different
// tunings, or the flash-resident PVB baseline).
type validityScheme interface {
	Update(addr flash.Addr) error
	RecordErase(block flash.BlockID) error
	Query(block flash.BlockID) (*bitmap.Bitmap, error)
	RAMBytes() int64
}

// IsolatedOptions configures an isolated page-validity experiment: the
// paper's Sections 5.1 and 5.2 drive Logarithmic Gecko and a flash-resident
// PVB with the invalidation stream of a uniformly random update workload and
// measure only the IO of the page-validity structure, omitting user-data and
// translation-metadata IO "to enable an apples to apples comparison".
type IsolatedOptions struct {
	// UserBlocks is the number of blocks holding user data.
	UserBlocks int
	// MetaBlocks is the number of blocks reserved for the page-validity
	// structure's own pages.
	MetaBlocks int
	// PagesPerBlock and PageSize are the device geometry (B and P).
	PagesPerBlock int
	PageSize      int
	// OverProvision is R; it controls how often garbage-collection runs.
	OverProvision float64
	// Scheme builds the structure under test over the given store. Use
	// GeckoScheme or FlashPVBScheme.
	Scheme SchemeBuilder
	// MeasureWrites is the size of the measured window, which follows a
	// warm-up of two overwrites of the logical space.
	MeasureWrites int64
	// Seed seeds the uniformly random update workload.
	Seed int64
}

// SchemeBuilder constructs a page-validity structure over a metadata store.
type SchemeBuilder struct {
	// Name labels the scheme in results.
	Name string
	// Build creates the structure for a device with the given number of
	// user blocks, pages per block and page size, storing its pages in the
	// given store.
	Build func(userBlocks, pagesPerBlock, pageSize int, store metastore.Storage) (validityScheme, error)
}

// GeckoScheme builds Logarithmic Gecko with the given size ratio and
// partitioning factor (0 selects the recommended factor).
func GeckoScheme(sizeRatio, partitionFactor int) SchemeBuilder {
	name := fmt.Sprintf("gecko(T=%d", sizeRatio)
	if partitionFactor > 0 {
		name += fmt.Sprintf(",S=%d", partitionFactor)
	}
	name += ")"
	return SchemeBuilder{
		Name: name,
		Build: func(userBlocks, pagesPerBlock, pageSize int, store metastore.Storage) (validityScheme, error) {
			cfg := gecko.DefaultConfig(userBlocks, pagesPerBlock, pageSize)
			cfg.SizeRatio = sizeRatio
			if partitionFactor > 0 {
				cfg.PartitionFactor = partitionFactor
			}
			return gecko.New(cfg, store)
		},
	}
}

// FlashPVBScheme builds the flash-resident PVB baseline.
func FlashPVBScheme() SchemeBuilder {
	return SchemeBuilder{
		Name: "flash-pvb",
		Build: func(userBlocks, pagesPerBlock, pageSize int, store metastore.Storage) (validityScheme, error) {
			return pvb.NewFlashPVB(userBlocks, pagesPerBlock, pageSize, store)
		},
	}
}

// IsolatedResult is the outcome of an isolated page-validity experiment.
type IsolatedResult struct {
	Name string
	// Writes is the number of logical updates measured.
	Writes int64
	// FlashReads and FlashWrites are the flash IOs the structure issued in
	// the measured window (the top part of Figure 9 reports these counts
	// per interval of application writes).
	FlashReads, FlashWrites int64
	// WA is the structure's contribution to write-amplification.
	WA float64
	// GCQueries is the number of garbage-collection operations (each issues
	// one query and one erase record).
	GCQueries int64
	// RAMBytes is the structure's integrated-RAM footprint.
	RAMBytes int64
}

// RunIsolated drives the invalidation stream of the workload through the
// page-validity structure alone, with a minimal in-memory page mapping and a
// greedy garbage-collector supplying the update and GC-query pattern a real
// FTL would generate. Only the structure's own flash IO is charged.
func RunIsolated(opts IsolatedOptions) (IsolatedResult, error) {
	if opts.UserBlocks <= 0 || opts.MetaBlocks <= 0 || opts.PagesPerBlock <= 0 || opts.PageSize <= 0 {
		return IsolatedResult{}, fmt.Errorf("sim: isolated geometry must be positive: %+v", opts)
	}
	if opts.MeasureWrites <= 0 {
		return IsolatedResult{}, fmt.Errorf("sim: measure writes must be positive")
	}
	if opts.OverProvision <= 0 || opts.OverProvision >= 1 {
		opts.OverProvision = 0.7
	}

	cfg := flash.ScaledConfig(opts.UserBlocks + opts.MetaBlocks)
	cfg.PagesPerBlock = opts.PagesPerBlock
	cfg.PageSize = opts.PageSize
	cfg.OverProvision = opts.OverProvision
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		return IsolatedResult{}, err
	}
	var metaIDs []flash.BlockID
	for i := opts.UserBlocks; i < opts.UserBlocks+opts.MetaBlocks; i++ {
		metaIDs = append(metaIDs, flash.BlockID(i))
	}
	store, err := metastore.NewBlockStore(dev, metaIDs, flash.BlockGecko, flash.PurposePageValidity)
	if err != nil {
		return IsolatedResult{}, err
	}
	scheme, err := opts.Scheme.Build(opts.UserBlocks, opts.PagesPerBlock, opts.PageSize, store)
	if err != nil {
		return IsolatedResult{}, err
	}

	logicalPages := int64(opts.OverProvision * float64(opts.UserBlocks*opts.PagesPerBlock))
	gen := workload.MustNewUniform(logicalPages, opts.Seed+1)

	driver := newIsolatedDriver(scheme, opts.UserBlocks, opts.PagesPerBlock, logicalPages)
	for i := int64(0); i < 2*logicalPages; i++ {
		if err := driver.write(gen.Next().Page); err != nil {
			return IsolatedResult{}, fmt.Errorf("sim: isolated warm-up: %w", err)
		}
	}
	dev.ResetCounters()
	gcBefore := driver.gcOps
	for i := int64(0); i < opts.MeasureWrites; i++ {
		if err := driver.write(gen.Next().Page); err != nil {
			return IsolatedResult{}, fmt.Errorf("sim: isolated measurement: %w", err)
		}
	}

	counters := dev.Counters()
	delta := cfg.Latency.WriteReadRatio()
	return IsolatedResult{
		Name:        opts.Scheme.Name,
		Writes:      opts.MeasureWrites,
		FlashReads:  counters.Count(flash.OpPageRead, flash.PurposePageValidity),
		FlashWrites: counters.Count(flash.OpPageWrite, flash.PurposePageValidity),
		WA:          counters.PurposeWriteAmplification(flash.PurposePageValidity, opts.MeasureWrites, delta),
		GCQueries:   driver.gcOps - gcBefore,
		RAMBytes:    scheme.RAMBytes(),
	}, nil
}

// isolatedDriver is the minimal in-memory FTL skeleton that generates the
// update and GC-query stream for the isolated experiments. Its own
// bookkeeping is free (it models RAM-resident state that every FTL has); only
// the page-validity structure's IO hits the device.
type isolatedDriver struct {
	scheme        validityScheme
	blocks        int
	pagesPerBlock int

	mapping  []flash.PPN // lpn -> ppn
	ownerOf  []flash.LPN // ppn -> lpn (InvalidLPN when free or stale)
	valid    []int       // valid pages per block
	writePtr []int       // next free offset per block

	active int
	free   int // completely unwritten blocks other than the active one
	gcOps  int64
}

// newIsolatedDriver starts a driver on an empty device of blocks user blocks
// serving logicalPages logical pages, writing into block 0.
func newIsolatedDriver(scheme validityScheme, blocks, pagesPerBlock int, logicalPages int64) *isolatedDriver {
	d := &isolatedDriver{
		scheme:        scheme,
		blocks:        blocks,
		pagesPerBlock: pagesPerBlock,
		mapping:       make([]flash.PPN, logicalPages),
		ownerOf:       make([]flash.LPN, blocks*pagesPerBlock),
		valid:         make([]int, blocks),
		writePtr:      make([]int, blocks),
		free:          blocks - 1,
	}
	for i := range d.mapping {
		d.mapping[i] = flash.InvalidPPN
	}
	for i := range d.ownerOf {
		d.ownerOf[i] = flash.InvalidLPN
	}
	return d
}

// write updates one logical page: allocate the next free user page,
// invalidate the before-image in the page-validity structure, and
// garbage-collect when free space runs low.
func (d *isolatedDriver) write(lpn flash.LPN) error {
	if err := d.gcIfNeeded(); err != nil {
		return err
	}
	// Invalidate the before-image.
	if old := d.mapping[lpn]; old != flash.InvalidPPN {
		d.ownerOf[old] = flash.InvalidLPN
		block := flash.BlockOf(old, d.pagesPerBlock)
		d.valid[block]--
		if err := d.scheme.Update(flash.Decompose(old, d.pagesPerBlock)); err != nil {
			return err
		}
	}
	ppn, err := d.allocate()
	if err != nil {
		return err
	}
	d.mapping[lpn] = ppn
	d.ownerOf[ppn] = lpn
	return nil
}

// allocate returns the next free user page in the active block, moving to a
// fresh block when it fills up.
func (d *isolatedDriver) allocate() (flash.PPN, error) {
	if d.writePtr[d.active] >= d.pagesPerBlock {
		next := -1
		for i := 0; i < d.blocks; i++ {
			if i != d.active && d.writePtr[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return flash.InvalidPPN, fmt.Errorf("sim: isolated driver out of free blocks")
		}
		d.active = next
		d.free--
	}
	offset := d.writePtr[d.active]
	d.writePtr[d.active]++
	d.valid[d.active]++
	return flash.PPNOf(flash.BlockID(d.active), offset, d.pagesPerBlock), nil
}

// gcIfNeeded reclaims blocks while few free blocks remain: the block with the
// fewest valid pages is chosen, one GC query and one erase record hit the
// structure under test, and live pages migrate within the in-memory mapping
// (their IO is deliberately not charged, per the apples-to-apples comparison
// of Section 5.1).
func (d *isolatedDriver) gcIfNeeded() error {
	for d.free <= 2 {
		victim := -1
		for i := 0; i < d.blocks; i++ {
			if i == d.active || d.writePtr[i] < d.pagesPerBlock {
				continue
			}
			if victim < 0 || d.valid[i] < d.valid[victim] {
				victim = i
			}
		}
		if victim < 0 {
			return fmt.Errorf("sim: isolated driver found no GC victim")
		}
		d.gcOps++
		if _, err := d.scheme.Query(flash.BlockID(victim)); err != nil {
			return err
		}
		// Migrate live pages (the in-memory ownerOf map knows liveness).
		for offset := 0; offset < d.pagesPerBlock; offset++ {
			ppn := flash.PPNOf(flash.BlockID(victim), offset, d.pagesPerBlock)
			lpn := d.ownerOf[ppn]
			if lpn == flash.InvalidLPN {
				continue
			}
			d.ownerOf[ppn] = flash.InvalidLPN
			d.valid[victim]--
			newPPN, err := d.allocate()
			if err != nil {
				return err
			}
			d.mapping[lpn] = newPPN
			d.ownerOf[newPPN] = lpn
		}
		// Erase the victim.
		d.writePtr[victim] = 0
		d.valid[victim] = 0
		d.free++
		if err := d.scheme.RecordErase(flash.BlockID(victim)); err != nil {
			return err
		}
	}
	return nil
}
