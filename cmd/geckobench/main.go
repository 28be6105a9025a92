// Command geckobench regenerates every table and figure of the GeckoFTL
// paper's evaluation section as plain-text tables, plus the engine-scaling
// experiments that go beyond the paper.
//
// Usage:
//
//	geckobench -experiment all
//	geckobench -experiment fig9 -writes 100000
//	geckobench -experiment channels -sweep 1,2,4,8,16
//	geckobench -experiment recovery -quick
//	geckobench -experiment latency -gc-pages 4 -policy metadata-aware
//	geckobench -experiment trim -trim-fractions 0,0.1,0.2,0.3 -json
//	geckobench -experiment queue -depth 8 -admission shed -json
//
// The experiments are the entries of the registry, geckoftl.Experiments
// (docs/benchmarks.md describes each); -experiment takes an entry's name, a
// group (recovery runs recovery and recovery-sweep) or all. This tool holds
// no per-experiment code: it maps flags to the registry's parameters, runs
// the selected entries, and prints their typed rows — as one generic table,
// or with -json as one object per line of the form
// {"experiment": name, "rows": [...], "claims": [...], "go_version": ...,
// "gomaxprocs": ..., "revision": ...}. The rows are a pure function of the
// flags (testdata/bench records them at -quick); the other fields say what
// produced them. Host-side cost per operation is perfbench's job
// (internal/perfbench), not this tool's.
//
// Each entry's claims are checked on the rows just produced: the verdicts
// follow each table and fill each JSON line's claims field. geckobench exits
// 1, after printing everything, if a claim fails that must hold at the run's
// scale: quick (-quick), full (the default) or other (-blocks, -writes). A
// claim known to fail at a scale names the ROADMAP item that owns it there.
// The claims of an experiment whose own flags (-sweep, -policy, ...) are set
// are not evaluated: they describe its default run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"geckoftl"
)

func main() {
	opts, err := parseArgs(os.Args[1:], flag.ExitOnError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geckobench: %v\n", err)
		opts.flags.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintf(os.Stderr, "geckobench: %v\n", err)
		os.Exit(1)
	}
}

// options is a parsed command line.
type options struct {
	// selected lists the registry entries -experiment chose, in order.
	selected []geckoftl.Experiment
	json     bool
	params   geckoftl.ExperimentParams
	flags    *flag.FlagSet
}

// parseArgs maps the command line onto the registry's parameters. A sweep
// flag left unset leaves its parameter at the zero value, which selects the
// experiment's own default.
func parseArgs(args []string, onError flag.ErrorHandling) (options, error) {
	fs := flag.NewFlagSet("geckobench", onError)
	opts := options{flags: fs}
	p := &opts.params
	var (
		experiment = fs.String("experiment", "all", "experiment to run: "+strings.Join(experimentNames(), ", "))
		quick      = fs.Bool("quick", false, "use the small test-sized scale")
		writes     = fs.Int64("writes", 0, "measured logical writes per simulation (0 = the scale's)")
		blocks     = fs.Int("blocks", 0, "simulated device blocks (0 = the scale's)")
		gcMode     = fs.String("gc-mode", "both", "GC scheduling modes for the latency experiment: inline, incremental, or both")
		policy     = fs.String("policy", "both", "victim policy for the latency and wear experiments: greedy, metadata-aware, cost-benefit, or both (latency: metadata-aware + greedy; wear: metadata-aware + cost-benefit)")
	)
	fs.BoolVar(&opts.json, "json", false, "emit machine-readable JSON (one {experiment, rows, ...} object per experiment) instead of tables")
	fs.Var(&listFlag[int]{dst: &p.Channels, parse: parseCount}, "sweep", "channel counts for the channels and recovery-sweep experiments (default 1,2,4,8)")
	fs.IntVar(&p.Dies, "dies", 0, "dies per channel for the channels experiment (0 = 1; adds capacity, not engine overlap; see docs/benchmarks.md)")
	fs.StringVar(&p.Workload, "sweep-workload", "", "workload for the channels, trim and queue experiments: uniform (default), sequential, zipfian, hotcold")
	fs.IntVar(&p.GCPagesPerWrite, "gc-pages", 0, "incremental GC step budget per write for the latency experiment (0 = default)")
	fs.Var(&listFlag[float64]{dst: &p.TrimFractions, parse: parseFraction}, "trim-fractions", "trim fractions for the trim experiment (default 0,0.1,0.2,0.3)")
	fs.IntVar(&p.Depth, "depth", 0, "per-shard submission queue depth for the queue experiment's open-loop rows (0 = default)")
	fs.Var(&listFlag[int]{dst: &p.Depths, parse: parseCount}, "depths", "queue depths for the queue experiment's closed-loop ladder (default 1,4,8,16)")
	fs.StringVar(&p.Admission, "admission", "", "admission policy for the queue experiment's open-loop rate rows: shed (default) or wait")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}

	// Validate names and ranges up front so a typo is a usage error, not a
	// mid-run failure after minutes of simulation.
	if *gcMode != "both" {
		m, err := geckoftl.ParseGCMode(*gcMode)
		if err != nil {
			return opts, err
		}
		p.GCModes = []geckoftl.GCMode{m}
	}
	if *policy != "both" {
		v, err := geckoftl.ParseVictimPolicy(*policy)
		if err != nil {
			return opts, err
		}
		p.Policies = []geckoftl.VictimPolicy{v}
	}
	if _, err := geckoftl.WorkloadByName(p.Workload, 1024, 1); err != nil {
		return opts, err
	}
	if p.Admission != "" {
		if _, err := geckoftl.ParseAdmissionPolicy(p.Admission); err != nil {
			return opts, err
		}
	}
	if p.GCPagesPerWrite < 0 || p.Depth < 0 || p.Dies < 0 {
		return opts, fmt.Errorf("-gc-pages %d, -depth %d and -dies %d must be >= 0", p.GCPagesPerWrite, p.Depth, p.Dies)
	}
	if opts.selected = selectExperiments(strings.ToLower(*experiment)); len(opts.selected) == 0 {
		return opts, fmt.Errorf("unknown experiment %q (valid: %s)", *experiment, strings.Join(experimentNames(), ", "))
	}

	p.Scale = geckoftl.FullScale()
	if *quick {
		p.Scale = geckoftl.QuickScale()
	}
	if *writes > 0 {
		p.Scale.MeasureWrites = *writes
	}
	if *blocks > 0 {
		p.Scale.Device.Blocks = *blocks
	}
	return opts, nil
}

// listFlag is a comma-separated list flag, e.g. -sweep 1,2,4,8.
type listFlag[T any] struct {
	dst   *[]T
	parse func(string) (T, error)
	raw   string
}

func (l *listFlag[T]) String() string { return l.raw }

func (l *listFlag[T]) Set(s string) error {
	var out []T
	for _, field := range strings.Split(s, ",") {
		if field = strings.TrimSpace(field); field == "" {
			continue
		}
		v, err := l.parse(field)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return fmt.Errorf("empty list")
	}
	*l.dst, l.raw = out, s
	return nil
}

// parseCount parses one channel count or queue depth.
func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad count %q (want a positive integer)", s)
	}
	return n, nil
}

// parseFraction parses one trim fraction.
func parseFraction(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 || f >= 1 {
		return 0, fmt.Errorf("bad trim fraction %q (want [0,1))", s)
	}
	return f, nil
}

// selectExperiments returns the registry entries a selector names: one entry
// by name, several by group, or every entry for "all".
func selectExperiments(selector string) []geckoftl.Experiment {
	var out []geckoftl.Experiment
	for _, e := range geckoftl.Experiments() {
		if selector == "all" || selector == e.Name || (e.Group != "" && selector == e.Group) {
			out = append(out, e)
		}
	}
	return out
}

// experimentNames lists every selector once, in registry order, ending with
// "all". Group selectors that match an experiment name (e.g. "recovery") are
// not repeated.
func experimentNames() []string {
	var names []string
	seen := make(map[string]bool)
	for _, e := range geckoftl.Experiments() {
		for _, n := range []string{e.Name, e.Group} {
			if n != "" && !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	return append(names, "all")
}

// run executes the selected experiments, writes their rows and verdicts, and
// fails if a claim that must hold at the run's scale does not.
func run(w io.Writer, opts options) error {
	enc := json.NewEncoder(w)
	var failed []string
	for _, e := range opts.selected {
		rows, err := e.Run(opts.params)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		set := setFlags(opts.flags, e.Flags)
		var verdicts []geckoftl.ClaimVerdict
		if set == "" {
			verdicts = e.Verdicts(rows, opts.params.Scale)
		}
		for _, v := range verdicts {
			if v.Failed() {
				failed = append(failed, v.Claim)
			}
		}
		if opts.json {
			if err := enc.Encode(struct {
				Experiment string                  `json:"experiment"`
				Rows       any                     `json:"rows"`
				Claims     []geckoftl.ClaimVerdict `json:"claims,omitempty"`
				GoVersion  string                  `json:"go_version"`
				GOMAXPROCS int                     `json:"gomaxprocs"`
				Revision   string                  `json:"revision,omitempty"`
			}{e.Name, rows, verdicts, runtime.Version(), runtime.GOMAXPROCS(0), vcsRevision()}); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			continue
		}
		fmt.Fprintln(w, e.Title+set)
		renderTable(w, rows)
		if set != "" {
			fmt.Fprintf(w, "claims not evaluated: they describe the default run, and this one sets%s\n", set)
		}
		for _, v := range verdicts {
			fmt.Fprintf(w, "  %-36s %s\n", v.Claim, v)
		}
		fmt.Fprintln(w)
	}
	if len(failed) > 0 {
		return fmt.Errorf("claims that must hold at this scale fail: %s", strings.Join(failed, ", "))
	}
	return nil
}

// setFlags renders those of the named flags that the command line set, so a
// table says which non-default dimensions produced it.
func setFlags(fs *flag.FlagSet, names []string) string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if n == f.Name {
				set = append(set, fmt.Sprintf("-%s=%s", f.Name, f.Value))
			}
		}
	})
	if len(set) == 0 {
		return ""
	}
	return " [" + strings.Join(set, " ") + "]"
}

// vcsRevision is the commit the binary was built from, when the toolchain
// stamped one (go build inside a checkout; go run and go test do not), with
// "+dirty" appended for a modified tree.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	var dirty bool
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}
