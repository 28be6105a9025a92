package sim

import (
	"time"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
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

// MeasureFTL measures one of the five FTLs on the paper's single serialized
// plane: the engine-run harness at one channel and one operation per batch,
// warmed to steady-state garbage collection, then a window of
// scale.MeasureWrites logical writes. A one-shard engine over a one-channel
// device issues exactly the IO of the bare FTL (internal/ftl pins the
// equivalence), so the FTL-level figures and the ablation benchmarks need no
// stack of their own. tune, when set, adjusts the FTL's configuration.
func MeasureFTL(scale ExperimentScale, kind model.FTLKind, tune func(*ftl.Options)) (Result, error) {
	run, err := newEngineRun(runSpec{scale: scale, channels: 1, kind: kind, tune: tune, batchPerDie: 1})
	if err != nil {
		return Result{}, err
	}
	if _, err := run.warm(); err != nil {
		return Result{}, err
	}
	timeBefore := run.dev.SimulatedTime()
	w, err := run.measure(scale.MeasureWrites)
	if err != nil {
		return Result{}, err
	}
	result := Result{
		Name:          run.eng.Name(),
		Writes:        w.writes,
		WA:            w.wa(),
		RAMBytes:      run.eng.RAMBytes(),
		GCOperations:  w.after.GCOperations - w.before.GCOperations,
		SimulatedTime: run.dev.SimulatedTime() - timeBefore,
	}
	result.UserWA, result.TranslationWA, result.ValidityWA = w.breakdown()
	return result, nil
}
