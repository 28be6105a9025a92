package geckoftl

import (
	"geckoftl/internal/sim"
)

// The experiment harness behind the paper's evaluation, re-exported so that
// the cmd/ binaries (and external users) never import internal packages.
// Types are aliases: rows returned here are the same values the internal
// harness produces.

// ExperimentScale controls how much work the simulation experiments do.
type ExperimentScale = sim.ExperimentScale

// DeviceSpec describes the simulated device used by an experiment.
type DeviceSpec = sim.DeviceSpec

// QuickScale is the small test-sized scale.
func QuickScale() ExperimentScale { return sim.QuickScale() }

// FullScale is the default scale of geckobench and the benchmarks.
func FullScale() ExperimentScale { return sim.FullScale() }

// Experiment is one entry of the experiment registry: its name, the title
// of its table, the geckobench flags it reads, the function that produces
// its typed rows, and the claims the evaluation makes of those rows.
// ExperimentParams carries the scale and those flags' values; its zero value
// selects every default. Experiment.Verdicts evaluates the claims on a run's
// rows, one ClaimVerdict each.
type (
	Experiment       = sim.Experiment
	ExperimentParams = sim.Params
	Claim            = sim.Claim
	ClaimVerdict     = sim.Verdict
)

// Experiments returns every table and figure of the paper's evaluation plus
// the sweeps beyond it, in the order geckobench -experiment all runs them.
// Run's errors carry the package's error taxonomy.
func Experiments() []Experiment {
	list := sim.Experiments()
	for i := range list {
		run := list[i].Run
		list[i].Run = func(p ExperimentParams) (any, error) {
			rows, err := run(p)
			return rows, wrapErr(err)
		}
	}
	return list
}

// IsolatedResult is the outcome of driving a page-validity scheme in
// isolation from a full FTL (the Section 5.1/5.2 methodology).
type IsolatedResult = sim.IsolatedResult

// Rows of Figures 9 and 10, for callers that tune Logarithmic Gecko
// programmatically (examples/tuning).
type (
	Figure9Row  = sim.Figure9Row
	Figure10Row = sim.Figure10Row
)

// Figure9 compares Logarithmic Gecko under size ratios T = 2..32 against the
// flash-resident PVB baseline (Section 5.1).
func Figure9(scale ExperimentScale) ([]Figure9Row, error) {
	rows, err := sim.Figure9(scale)
	return rows, wrapErr(err)
}

// Figure10 shows entry-partitioning making write-amplification independent
// of the block size (Section 5.2).
func Figure10(scale ExperimentScale) ([]Figure10Row, error) {
	rows, err := sim.Figure10(scale)
	return rows, wrapErr(err)
}
