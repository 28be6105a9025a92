package sim

import (
	"fmt"
	"time"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/workload"
)

// DeviceSpec describes the simulated device used by an experiment.
type DeviceSpec struct {
	Blocks        int
	PagesPerBlock int
	PageSize      int
	OverProvision float64
	// Channels and DiesPerChannel set the device topology (zero means one
	// each: the paper's single serialized plane). The channel-sweep
	// experiments override Channels.
	Channels       int
	DiesPerChannel int
}

// DefaultDeviceSpec is the scaled-down device used by the simulation
// experiments: the paper's page size, block size and over-provisioning with
// fewer blocks so that experiments finish quickly. The analytical experiments
// (Figure 1, Figure 13 top and middle, Table 1) use the full 2 TB parameters
// from the model package instead.
func DefaultDeviceSpec() DeviceSpec {
	return DeviceSpec{Blocks: 256, PagesPerBlock: 32, PageSize: 1024, OverProvision: 0.7}
}

// Config converts the spec into a device configuration.
func (s DeviceSpec) Config() flash.Config {
	cfg := flash.ScaledConfig(s.Blocks)
	cfg.PagesPerBlock = s.PagesPerBlock
	cfg.PageSize = s.PageSize
	if s.OverProvision > 0 {
		cfg.OverProvision = s.OverProvision
	}
	cfg.Channels = s.Channels
	cfg.DiesPerChannel = s.DiesPerChannel
	return cfg
}

// NewDevice builds the device.
func (s DeviceSpec) NewDevice() (*flash.Device, error) {
	return flash.NewDevice(s.Config())
}

// Result is the outcome of running one FTL configuration under a workload.
type Result struct {
	// Name identifies the FTL (and variant) measured.
	Name string
	// Writes is the number of logical writes measured (after warm-up).
	Writes int64
	// WA is the overall write-amplification WA = i_writes + i_reads/delta,
	// per logical write.
	WA float64
	// UserWA, TranslationWA and ValidityWA break WA down by purpose as in
	// Figure 13 bottom: user data (application writes + GC of user data),
	// translation metadata (synchronization operations), and page-validity
	// metadata (PVB / Logarithmic Gecko / PVL updates, GC queries and their
	// garbage-collection).
	UserWA, TranslationWA, ValidityWA float64
	// RAMBytes is the FTL's integrated-RAM footprint at the end of the run.
	RAMBytes int64
	// GCOperations counts garbage-collection victim reclaims in the
	// measured window.
	GCOperations int64
	// SimulatedTime is the device-time consumed by the measured window.
	SimulatedTime time.Duration
}

// RunOptions controls a simulation run.
type RunOptions struct {
	// Device is the device geometry.
	Device DeviceSpec
	// FTLOptions configures the FTL under test.
	FTLOptions ftl.Options
	// Workload generates the logical operation stream. If nil, uniformly
	// random writes with seed 1 are used.
	Workload workload.Generator
	// WarmupWrites fills the device before measurement begins so that
	// steady-state garbage-collection is included. Defaults to twice the
	// logical page count when zero and unset (-1 disables warm-up).
	WarmupWrites int64
	// MeasureWrites is the number of logical writes in the measured window.
	MeasureWrites int64
}

// Run executes one simulation and returns its result.
func Run(opts RunOptions) (Result, error) {
	dev, err := opts.Device.NewDevice()
	if err != nil {
		return Result{}, err
	}
	f, err := ftl.New(dev, opts.FTLOptions)
	if err != nil {
		return Result{}, err
	}
	gen := opts.Workload
	if gen == nil {
		gen = workload.MustNewUniform(f.LogicalPages(), 1)
	}
	warmup := opts.WarmupWrites
	if warmup == 0 {
		warmup = 2 * f.LogicalPages()
	}
	if warmup < 0 {
		warmup = 0
	}
	if opts.MeasureWrites <= 0 {
		return Result{}, fmt.Errorf("sim: measure writes %d must be positive", opts.MeasureWrites)
	}

	if err := drive(f, gen, warmup); err != nil {
		return Result{}, fmt.Errorf("sim: warm-up: %w", err)
	}
	dev.ResetCounters()
	timeBefore := dev.SimulatedTime()
	statsBefore := f.Stats()
	if err := drive(f, gen, opts.MeasureWrites); err != nil {
		return Result{}, fmt.Errorf("sim: measurement: %w", err)
	}

	counters := dev.Counters()
	delta := dev.Config().Latency.WriteReadRatio()
	writes := opts.MeasureWrites
	result := Result{
		Name:          f.Name(),
		Writes:        writes,
		WA:            counters.WriteAmplification(writes, delta),
		RAMBytes:      f.RAMBytes(),
		GCOperations:  f.Stats().GCOperations - statsBefore.GCOperations,
		SimulatedTime: dev.SimulatedTime() - timeBefore,
	}
	result.UserWA, result.TranslationWA, result.ValidityWA = waBreakdown(counters, writes, delta)
	return result, nil
}

// drive pushes n operations from the generator into the FTL, counting only
// writes toward n (reads are passed through but not counted, matching the
// paper's write-only accounting).
func drive(f *ftl.FTL, gen workload.Generator, n int64) error {
	var done int64
	for done < n {
		op := gen.Next()
		if op.Kind == workload.OpRead {
			if err := f.Read(op.Page); err != nil {
				return err
			}
			continue
		}
		if err := f.Write(op.Page); err != nil {
			return err
		}
		done++
	}
	return nil
}
