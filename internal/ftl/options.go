package ftl

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
	"geckoftl/internal/model"
)

// GCMode selects how the garbage collector schedules its work relative to
// application writes, the second axis (besides the victim policy) along
// which GC behaviour can be varied for latency experiments.
type GCMode int

const (
	// GCInline reclaims whole victims synchronously inside the application
	// write that found the free pool at the reserve — the paper's implicit
	// scheduling. Throughput-optimal, but a single write can absorb an
	// entire victim's relocation cost as a stall.
	GCInline GCMode = iota
	// GCIncremental bounds the garbage-collection work charged to any single
	// application write to Options.GCPagesPerWrite relocation/erase steps,
	// draining a victim across consecutive writes. Foreground writes then
	// observe a bounded worst-case stall (model.IncrementalGCStallBound) at
	// the cost of garbage collection starting earlier.
	GCIncremental
)

var gcModeNames = [...]string{
	GCInline:      "inline",
	GCIncremental: "incremental",
}

// String names the mode; ParseGCMode accepts exactly these names.
func (m GCMode) String() string {
	if m >= 0 && int(m) < len(gcModeNames) {
		return gcModeNames[m]
	}
	return fmt.Sprintf("gc-mode(%d)", int(m))
}

// ParseGCMode maps a GC-mode name (as produced by GCMode.String) back to the
// mode. Command-line tools route their -gc-mode flags through it so that a
// typo is a usage error rather than a silently ignored setting.
func ParseGCMode(s string) (GCMode, error) {
	for m, name := range gcModeNames {
		if s == name {
			return GCMode(m), nil
		}
	}
	return 0, fmt.Errorf("ftl: unknown GC mode %q (want inline or incremental)", s)
}

// ParseVictimPolicy maps a victim-policy name (as produced by
// VictimPolicy.String) back to the policy.
func ParseVictimPolicy(s string) (VictimPolicy, error) {
	switch s {
	case VictimGreedy.String():
		return VictimGreedy, nil
	case VictimMetadataAware.String():
		return VictimMetadataAware, nil
	case VictimCostBenefit.String():
		return VictimCostBenefit, nil
	}
	return 0, fmt.Errorf("ftl: unknown victim policy %q (want greedy, metadata-aware or cost-benefit)", s)
}

// DefaultGCPagesPerWrite is the default per-write step budget of the
// incremental garbage collector. It is sized so that, at the paper's
// over-provisioning (victims roughly half valid in the worst case, each step
// reclaiming about one page of net space), reclaim stays ahead of the two to
// four pages a logical write consumes across user data and metadata.
const DefaultGCPagesPerWrite = 4

// Options configures an FTL instance. OptionsFor (and GeckoFTLOptions and
// its four siblings) fills it in for one of the paper's five FTLs; tests and
// experiments tweak the shared settings below.
type Options struct {
	// FTL names which of the paper's five FTLs this is. New builds its
	// validity store, and its row of kindFacts fixes the rest of what that
	// FTL is: battery, dirty bound and runtime checkpoints.
	FTL model.FTLKind
	// CacheEntries is C, the capacity of the LRU mapping cache.
	CacheEntries int
	// VictimPolicy selects the garbage-collection victim policy; OptionsFor
	// sets the FTL's own.
	VictimPolicy VictimPolicy
	// GCMode selects inline (whole victim per write) or incremental (bounded
	// steps per write) garbage-collection scheduling.
	GCMode GCMode
	// GCPagesPerWrite is the incremental garbage collector's step budget: the
	// maximum number of page relocations or block erases charged to a single
	// application write under GCIncremental. Zero selects
	// DefaultGCPagesPerWrite; the field is ignored under GCInline.
	GCPagesPerWrite int
	// GeckoSizeRatio overrides Logarithmic Gecko's size ratio T (default 2).
	GeckoSizeRatio int
	// GeckoPartitionFactor overrides the entry-partitioning factor S
	// (default: the recommended factor). Set to 1 to disable partitioning.
	GeckoPartitionFactor int
	// GeckoMultiWayMerge enables the multi-way merge of Appendix A.
	GeckoMultiWayMerge bool
	// WearLeveling enables the Appendix D gradual-scan wear-leveler: one
	// spare-area read per application write and recycling of exceptionally
	// unworn static blocks.
	WearLeveling bool
	// WearThreshold is the erase-count discrepancy above which a static
	// block is recycled (0 selects the default of 8).
	WearThreshold int
	// HotColdSeparation gives user data two write frontiers, with an
	// exponentially-decayed per-LPN heat classifier routing each
	// application write to the hot or cold one. Blocks then fill with
	// pages of similar lifetimes, which lowers write-amplification on
	// skewed workloads (hot blocks die nearly whole, cold blocks are not
	// churned).
	HotColdSeparation bool
	// WearAwareAllocation makes the block manager hand out the
	// least-erased free block (coldest-erase-count first) instead of the
	// most recently freed one, narrowing the device's erase-count spread.
	WearAwareAllocation bool
	// ScrubReadThreshold enables read-disturb scrubbing: after a user read,
	// a block whose read count since its last erase reaches the threshold is
	// relocated (same machinery as a garbage-collection reclaim) so its
	// payloads are rewritten before they decay. Zero disables scrubbing.
	// To stay ahead of a device that decays payloads after T reads, the
	// threshold must be at most T minus the reads a single scrub can add.
	ScrubReadThreshold int
}

// validate normalizes and checks the options against a device configuration.
func (o *Options) validate(cfg flash.Config) error {
	if o.FTL < 0 || int(o.FTL) >= len(kindFacts) {
		return fmt.Errorf("ftl: unknown FTL %v", o.FTL)
	}
	if o.CacheEntries <= 0 {
		return fmt.Errorf("ftl: cache capacity %d must be positive", o.CacheEntries)
	}
	if pages := int64(cfg.Blocks) * int64(cfg.PagesPerBlock); pages > math.MaxInt32 {
		return fmt.Errorf("ftl: %d physical pages, but a translation entry holds addresses below 2^31", pages)
	}
	if o.GCMode != GCInline && o.GCMode != GCIncremental {
		return fmt.Errorf("ftl: unknown GC mode %v", o.GCMode)
	}
	if o.GCPagesPerWrite < 0 {
		return fmt.Errorf("ftl: GC pages per write %d must be >= 0", o.GCPagesPerWrite)
	}
	if o.GCPagesPerWrite == 0 {
		o.GCPagesPerWrite = DefaultGCPagesPerWrite
	}
	if o.GeckoSizeRatio == 0 {
		o.GeckoSizeRatio = gecko.DefaultSizeRatio
	}
	if o.GeckoSizeRatio < 2 {
		return fmt.Errorf("ftl: gecko size ratio %d must be at least 2", o.GeckoSizeRatio)
	}
	if o.WearThreshold < 0 {
		return fmt.Errorf("ftl: wear threshold %d must be >= 0", o.WearThreshold)
	}
	if o.VictimPolicy != VictimGreedy && o.VictimPolicy != VictimMetadataAware && o.VictimPolicy != VictimCostBenefit {
		return fmt.Errorf("ftl: unknown victim policy %v", o.VictimPolicy)
	}
	if o.ScrubReadThreshold < 0 {
		return fmt.Errorf("ftl: scrub read threshold %d must be >= 0", o.ScrubReadThreshold)
	}
	return nil
}

// dirtyBoundFraction is the fraction of the cache LazyFTL and IB-FTL let
// dirty mapping entries fill before they force a synchronization.
const dirtyBoundFraction = 0.1

// facts is what one of the paper's five FTLs is besides its validity store,
// which New builds: its recovery model (the second axis of Section 5.3), its
// own victim policy and the names a command line may use for it besides
// model.FTLKind.String. New copies its FTL's row once; besides New, only
// OptionsFor and OptionsByName read the table.
type facts struct {
	// battery: dirty mapping entries are synchronized on battery power at a
	// power failure instead of being recovered.
	battery bool
	// dirtyBound: at most dirtyBoundFraction of the cache may be dirty.
	dirtyBound bool
	// checkpoints: runtime checkpoints bound the recovery backwards scan
	// (Section 4.3).
	checkpoints bool
	victims     VictimPolicy
	aliases     []string
}

// kindFacts holds one row per model.FTLKind. The empty name selects
// GeckoFTL.
var kindFacts = [...]facts{
	model.GeckoFTL: {checkpoints: true, victims: VictimMetadataAware, aliases: []string{"geckoftl", "gecko", ""}},
	model.DFTL:     {battery: true, victims: VictimGreedy, aliases: []string{"dftl"}},
	model.LazyFTL:  {dirtyBound: true, victims: VictimGreedy, aliases: []string{"lazyftl", "lazy"}},
	model.MuFTL:    {battery: true, victims: VictimGreedy, aliases: []string{"muftl", "mu", "uftl", "mu-ftl"}},
	model.IBFTL:    {dirtyBound: true, victims: VictimGreedy, aliases: []string{"ibftl", "ib", "ib-ftl"}},
}

// OptionsFor returns the configuration of the given FTL, one of
// model.Kinds(), with the given mapping-cache capacity and the FTL's own
// victim policy.
func OptionsFor(kind model.FTLKind, cacheEntries int) Options {
	return Options{FTL: kind, CacheEntries: cacheEntries, VictimPolicy: kindFacts[kind].victims}
}

// GeckoFTLOptions returns the paper's GeckoFTL configuration: Logarithmic
// Gecko for page validity, no battery, runtime checkpoints, metadata-aware
// garbage-collection and an unbounded dirty fraction.
func GeckoFTLOptions(cacheEntries int) Options { return OptionsFor(model.GeckoFTL, cacheEntries) }

// DFTLOptions returns the DFTL configuration: RAM-resident PVB, battery
// recovery, greedy garbage-collection.
func DFTLOptions(cacheEntries int) Options { return OptionsFor(model.DFTL, cacheEntries) }

// LazyFTLOptions returns the LazyFTL configuration: RAM-resident PVB, no
// battery, dirty entries bounded to 10% of the cache, greedy GC.
func LazyFTLOptions(cacheEntries int) Options { return OptionsFor(model.LazyFTL, cacheEntries) }

// MuFTLOptions returns the µ-FTL configuration: flash-resident PVB, battery
// recovery, greedy GC.
func MuFTLOptions(cacheEntries int) Options { return OptionsFor(model.MuFTL, cacheEntries) }

// IBFTLOptions returns the IB-FTL configuration: page validity log, no
// battery, dirty entries bounded to 10% of the cache, greedy GC.
func IBFTLOptions(cacheEntries int) Options { return OptionsFor(model.IBFTL, cacheEntries) }

// OptionsByName returns the configuration of the FTL a canonical name
// (model.FTLKind.String) or one of its aliases selects.
func OptionsByName(name string, cacheEntries int) (Options, error) {
	var names []string
	for _, kind := range model.Kinds() {
		if name == kind.String() || slices.Contains(kindFacts[kind].aliases, name) {
			return OptionsFor(kind, cacheEntries), nil
		}
		names = append(names, kind.String())
	}
	return Options{}, fmt.Errorf("ftl: unknown FTL %q (want one of %s)", name, strings.Join(names, ", "))
}
