package ftl

import (
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/mapcache"
)

// Trim serves a host trim (discard) of a logical page: the page's contents
// are dropped, its cached mapping entry is unmapped (and the durable one at
// the next synchronization), and its physical before-image is reported
// invalid so that the garbage collector never migrates it — trims are the
// host's way of supplying invalid pages for free. Reading a trimmed page
// afterwards returns zeroes without IO, exactly like a never-written page.
//
// GeckoFTL trims lazily, mirroring its write path (Section 4.1): on a cache
// miss the flash-resident before-image is not looked up — the UIP flag
// records that an unidentified invalid page may exist, and the next
// synchronization (or the garbage collector, for free) identifies it. A trim
// therefore costs no flash IO at all under GeckoFTL. The comparison FTLs
// identify the before-image eagerly, paying a translation-page read on a
// cache miss, just as their writes do.
//
// Like a write, a trim is durable only once the mapping entry it dirties has
// been synchronized (Flush forces this): a trim followed immediately by a
// power failure may come back mapped after recovery, which matches the
// contract of a real device's non-flushed TRIM. Until then a GeckoFTL trim
// leaves its before-image valid (deferTrimReport), so that what recovery
// maps the page to is still on flash.
func (f *FTL) Trim(lpn flash.LPN) error { return f.remap(lpn, true) }

// reportTrimmed reports a page invalidated by a host trim: the regular
// invalid-page report plus the device's invalidation counter and the trim
// statistics.
func (f *FTL) reportTrimmed(ppn flash.PPN) error {
	if err := f.reportInvalid(ppn); err != nil {
		return err
	}
	return f.countTrimmed(ppn)
}

// countTrimmed records ppn in the device's invalidation counter and the trim
// statistics.
func (f *FTL) countTrimmed(ppn flash.PPN) error {
	if err := f.dev.NoteTrim(ppn, flash.PurposeTrim); err != nil {
		return err
	}
	f.stats.TrimmedPages++
	return nil
}

// deferTrimReport is GeckoFTL's trim of a cached before-image prev, into the
// trim's new entry. Reporting prev at once would let the garbage collector
// erase it while the trim exists only in RAM; a power failure then recovers
// the durable translation entry, or the newest page the recovery scan finds,
// and either may be prev, or a page older than prev that is already gone.
// So prev stays valid until the trim is durable. If prev is the
// flash-resident entry, the UIP flag has the synchronization that makes the
// trim durable report it; a newer prev is left for the garbage collector to
// identify, which synchronizes the trim before it skips the page
// (migrateValidPage). Either way prev counts as trimmed here, once, as an
// eager report would have counted it.
func (f *FTL) deferTrimReport(prev flash.PPN, entry *mapcache.Entry) error {
	if prev == f.table.FlashEntry(entry.Logical) {
		entry.UIP = true
	}
	return f.countTrimmed(prev)
}

// Mapped reports whether a logical page currently maps to flash-resident
// data: false for never-written and trimmed pages. It consults the mapping
// cache and the FTL's RAM mirror of the translation table and issues no
// simulated IO, so it exists for tests, examples and consistency audits
// rather than for the modeled data path.
func (f *FTL) Mapped(lpn flash.LPN) (bool, error) {
	if lpn < 0 || int64(lpn) >= f.logicalPages {
		return false, fmt.Errorf("ftl: logical page %d out of range [0,%d): %w", lpn, f.logicalPages, flash.ErrOutOfRange)
	}
	return f.mappedPPN(lpn) != flash.InvalidPPN, nil
}
