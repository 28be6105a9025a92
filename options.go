package geckoftl

import (
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
)

// FTLOptions is the full FTL configuration. Its FTL field names which of the
// paper's five FTLs it is (an FTLKind, which fixes the validity store,
// battery, dirty bound and runtime checkpoints); GeckoFTLOptions,
// DFTLOptions, LazyFTLOptions, MuFTLOptions and IBFTLOptions fill it in, and
// WithFTLOptions hands a tweaked copy to Open.
type FTLOptions = ftl.Options

// GCMode selects how the garbage collector schedules its work relative to
// host writes; see GCInline and GCIncremental.
type GCMode = ftl.GCMode

// VictimPolicy selects garbage-collection victims; see VictimGreedy,
// VictimMetadataAware and VictimCostBenefit.
type VictimPolicy = ftl.VictimPolicy

// The garbage-collection scheduling modes and victim policies.
const (
	// GCInline reclaims whole victims synchronously inside the write that
	// found the free pool at the reserve: throughput-optimal, but one write
	// can absorb an entire victim's relocation cost as a stall.
	GCInline = ftl.GCInline
	// GCIncremental bounds the garbage-collection work charged to any
	// single write, draining victims across consecutive writes.
	GCIncremental = ftl.GCIncremental
	// VictimGreedy always reclaims the block with the fewest valid pages.
	VictimGreedy = ftl.VictimGreedy
	// VictimMetadataAware never migrates translation or metadata blocks
	// (Section 4.2 of the paper); GeckoFTL's policy.
	VictimMetadataAware = ftl.VictimMetadataAware
	// VictimCostBenefit reclaims the user block with the highest age ×
	// invalid-fraction score, sparing young and cold blocks; like
	// VictimMetadataAware it never migrates metadata blocks.
	VictimCostBenefit = ftl.VictimCostBenefit
)

// DefaultGCPagesPerWrite is the incremental garbage collector's default
// per-write step budget.
const DefaultGCPagesPerWrite = ftl.DefaultGCPagesPerWrite

// ParseGCMode maps "inline" or "incremental" to the GCMode; anything else is
// an ErrInvalidConfig error. Command-line tools route their flags through it.
func ParseGCMode(s string) (GCMode, error) {
	m, err := ftl.ParseGCMode(s)
	return m, configErr(err)
}

// ParseVictimPolicy maps "greedy", "metadata-aware" or "cost-benefit" to the
// VictimPolicy; anything else is an ErrInvalidConfig error.
func ParseVictimPolicy(s string) (VictimPolicy, error) {
	p, err := ftl.ParseVictimPolicy(s)
	return p, configErr(err)
}

// GeckoFTLOptions returns the paper's GeckoFTL configuration with the given
// mapping-cache capacity.
func GeckoFTLOptions(cacheEntries int) FTLOptions { return ftl.GeckoFTLOptions(cacheEntries) }

// DFTLOptions returns the DFTL configuration.
func DFTLOptions(cacheEntries int) FTLOptions { return ftl.DFTLOptions(cacheEntries) }

// LazyFTLOptions returns the LazyFTL configuration.
func LazyFTLOptions(cacheEntries int) FTLOptions { return ftl.LazyFTLOptions(cacheEntries) }

// MuFTLOptions returns the µ-FTL configuration.
func MuFTLOptions(cacheEntries int) FTLOptions { return ftl.MuFTLOptions(cacheEntries) }

// IBFTLOptions returns the IB-FTL configuration.
func IBFTLOptions(cacheEntries int) FTLOptions { return ftl.IBFTLOptions(cacheEntries) }

// FTLOptionsByName returns the named scheme's configuration: "geckoftl" (or
// "gecko"), "dftl", "lazyftl" (or "lazy"), "muftl" (or "mu", "uftl"),
// "ibftl" (or "ib"), or the name the experiment rows print ("GeckoFTL",
// "DFTL", "LazyFTL", "uFTL", "IB-FTL").
func FTLOptionsByName(name string, cacheEntries int) (FTLOptions, error) {
	opts, err := ftl.OptionsByName(name, cacheEntries)
	return opts, configErr(err)
}

// config collects what the options build before Open turns it into a device
// and an engine.
type config struct {
	blocks, pagesPerBlock, pageSize int
	overProvision                   float64
	channels, diesPerChannel        int
	shards                          int

	ftlName      string
	cacheEntries int

	// explicit, when set by WithFTLOptions, replaces the named scheme.
	explicit *FTLOptions

	// faults, when set by WithFaultPlan, is installed on the device at Open,
	// before any IO.
	faults *FaultPlan

	// checkpointPath, when set by WithCheckpointPath, is where Close/Flush
	// write the metadata checkpoint and where Open looks for one to load.
	checkpointPath string

	// queueDepth and queueAdmission configure the asynchronous submission
	// path (Device.SubmitWrite and friends).
	queueDepth     int
	queueAdmission AdmissionPolicy
}

// defaultConfig sizes a small device that exercises every subsystem quickly:
// 256 blocks of 32 pages of 1 KB at the paper's 70% logical-to-physical
// ratio, one channel, GeckoFTL with a 1024-entry mapping cache.
func defaultConfig() config {
	return config{
		blocks:         256,
		pagesPerBlock:  32,
		pageSize:       1024,
		overProvision:  flash.DefaultOverProvision,
		cacheEntries:   1024,
		queueDepth:     DefaultQueueDepth,
		queueAdmission: AdmitWait,
	}
}

// An Option configures Open.
type Option func(*config) error

// WithGeometry sets the device geometry: the number of blocks, pages per
// block, and the page size in bytes.
func WithGeometry(blocks, pagesPerBlock, pageSizeBytes int) Option {
	return func(c *config) error {
		if blocks <= 0 || pagesPerBlock <= 0 || pageSizeBytes <= 0 {
			return fmt.Errorf("%w: geometry %dx%dx%d must be positive", ErrInvalidConfig, blocks, pagesPerBlock, pageSizeBytes)
		}
		c.blocks, c.pagesPerBlock, c.pageSize = blocks, pagesPerBlock, pageSizeBytes
		return nil
	}
}

// WithOverProvision sets R, the logical-to-physical capacity ratio in (0,1);
// the paper's default is 0.70.
func WithOverProvision(r float64) Option {
	return func(c *config) error {
		if r <= 0 || r >= 1 {
			return fmt.Errorf("%w: over-provision ratio %g out of range (0,1)", ErrInvalidConfig, r)
		}
		c.overProvision = r
		return nil
	}
}

// WithChannels sets the device topology: channels times diesPerChannel
// independently latching dies. The engine runs one FTL shard per channel by
// default, which is what scales throughput and recovery with the channel
// count.
func WithChannels(channels, diesPerChannel int) Option {
	return func(c *config) error {
		if channels < 1 || diesPerChannel < 1 {
			return fmt.Errorf("%w: topology %dx%d must be at least 1x1", ErrInvalidConfig, channels, diesPerChannel)
		}
		c.channels, c.diesPerChannel = channels, diesPerChannel
		return nil
	}
}

// WithShards overrides the engine's shard count (default: one per channel).
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: shard count %d must be at least 1", ErrInvalidConfig, n)
		}
		c.shards = n
		return nil
	}
}

// WithFTL selects the FTL scheme by name: "geckoftl" (the default), "dftl",
// "lazyftl", "muftl" or "ibftl".
func WithFTL(name string) Option {
	return func(c *config) error {
		if _, err := FTLOptionsByName(name, 1); err != nil {
			return err
		}
		c.ftlName = name
		return nil
	}
}

// WithCacheEntries sets C, the mapping cache's capacity in entries (the
// device's RAM budget knob; 8 bytes per entry under the paper's model). Every
// shard receives the whole C: with S shards the device caches S*C entries.
func WithCacheEntries(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: cache capacity %d must be positive", ErrInvalidConfig, n)
		}
		c.cacheEntries = n
		return nil
	}
}

// WithCheckpointPath enables durable metadata checkpoints at the given host
// file path. Close and Flush write a versioned, checksummed snapshot of all
// FTL metadata there (atomically: temp file + rename), and Open attempts to
// load it for a warm start; Restart uses it to model a clean
// shutdown-and-reboot cycle. A missing, corrupt, version-skewed or stale
// checkpoint is never an error — the device falls back to a cold start (or
// GeckoRec, after a crash) and records the reason, inspectable via
// CheckpointLoad. Only battery-less GeckoFTL devices write checkpoints;
// other schemes silently skip them.
func WithCheckpointPath(path string) Option {
	return func(c *config) error {
		if path == "" {
			return fmt.Errorf("%w: checkpoint path must not be empty", ErrInvalidConfig)
		}
		c.checkpointPath = path
		return nil
	}
}

// DefaultQueueDepth is the asynchronous submission path's default per-shard
// queue depth.
const DefaultQueueDepth = 32

// WithQueueDepth sets the asynchronous submission path's per-shard queue
// depth. It buffers nothing — every submission executes before Submit*
// returns — but, times the page-program latency, it is the virtual backlog
// budget admission control enforces against a round's arrival (see
// SubmitWrite and WithAdmissionPolicy). Deeper queues let a round reach more
// of the device's parallelism and tolerate burstier arrivals; shallower ones
// bound the latency an admitted operation can queue behind.
func WithQueueDepth(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("%w: queue depth %d must be at least 1", ErrInvalidConfig, n)
		}
		c.queueDepth = n
		return nil
	}
}

// WithAdmissionPolicy selects what the asynchronous submission path does with
// an operation whose shard backlog exceeds the queue depth's budget: AdmitShed
// drops it (the Ticket fails with ErrQueueFull, keeping the completed
// operations' tail bounded), AdmitWait — the default — admits it anyway and
// counts the delay.
func WithAdmissionPolicy(p AdmissionPolicy) Option {
	return func(c *config) error {
		if p != AdmitShed && p != AdmitWait {
			return fmt.Errorf("%w: unknown admission policy %v", ErrInvalidConfig, p)
		}
		c.queueAdmission = p
		return nil
	}
}

// WithFTLOptions hands Open a fully explicit FTL configuration in place of
// the scheme WithFTL and WithCacheEntries name. It is the one route to every
// FTL-level setting beyond those two — garbage-collection mode and step
// budget, victim policy, hot/cold separation, wear-aware allocation and
// wear-leveling, the read-disturb scrub threshold: start from one of the
// *Options constructors (or FTLOptionsByName) and set the FTLOptions fields.
// Battery and runtime checkpoints are not settings: the FTL field's kind
// carries them. Open rejects invalid values under ErrInvalidConfig.
func WithFTLOptions(opts FTLOptions) Option {
	return func(c *config) error { c.explicit = &opts; return nil }
}

// ftlOptions resolves the configured FTL options.
func (c *config) ftlOptions() (FTLOptions, error) {
	if c.explicit != nil {
		return *c.explicit, nil
	}
	return FTLOptionsByName(c.ftlName, c.cacheEntries)
}

// flashConfig resolves the configured device geometry.
func (c *config) flashConfig() flash.Config {
	cfg := flash.ScaledConfig(c.blocks)
	cfg.PagesPerBlock = c.pagesPerBlock
	cfg.PageSize = c.pageSize
	cfg.OverProvision = c.overProvision
	cfg.Channels = c.channels
	cfg.DiesPerChannel = c.diesPerChannel
	return cfg
}
