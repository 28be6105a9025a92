// Command perfbench is the repository's benchmark: six fixed, seeded
// workloads driven through the public geckoftl.Device for the end-to-end
// metrics and, with -trace 1, a traced run that times each layer from outside
// for the per-layer metrics. BENCHMARK.json at the repository root declares
// the same names; README.md in this directory explains them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// watchdogLimit bounds a whole invocation: a stuck Drain or Wait must never
// outlive the run. The driver allows 180 s.
const watchdogLimit = 170 * time.Second

// errUsage marks a bad command line: exit code 2.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (required)")
	seed := fs.Int64("seed", 1, "seed of the input generators")
	seconds := fs.Float64("seconds", 6, "nominal length of the measured phase; the operation count is fixed from it")
	scale := fs.Float64("scale", 1, "common factor on every operation count (0.01 is the smoke size)")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	out := fs.String("out", "", "directory for the report and, when tracing, the span files (default: none written)")
	commit := fs.String("commit", "unknown", "commit recorded in the report")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return fmt.Errorf("%w: -seconds and -scale must be positive, -trace 0 or 1, and no arguments may follow the flags", errUsage)
	}

	watchdog := time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s still running after %v, giving up\n", w.Name, watchdogLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	// The checkpoint file and its lock live here; removed on every path.
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	var r *report
	if *trace == 1 {
		r, err = runTraced(ctx, w, full, *seed, *seconds**scale, dir, *out)
	} else {
		r, err = runEndToEnd(ctx, w, full, *seed, *seconds**scale, dir)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	return emit(r, *trace == 1, *commit, *out, stdout)
}

// emit prints the full report as one line and, last, the result line the
// benchmark contract asks for. It fails if the report's metric names are not
// exactly the declared ones.
func emit(r *report, traced bool, commit, outDir string, stdout io.Writer) error {
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(declared))
	for _, m := range declared {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but was not measured", m.Name)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(r.Metrics) != len(declared) {
		return fmt.Errorf("measured %d metrics, declared %d", len(r.Metrics), len(declared))
	}
	r.Trace = traced

	full, err := json.Marshal(struct {
		*report
		GoVersion  string `json:"go_version"`
		GoMaxProcs int    `json:"gomaxprocs"`
		NProc      int    `json:"nproc"`
		Commit     string `json:"commit"`
	}{r, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit})
	if err != nil {
		return err
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(fmt.Sprintf("%s/%s.json", outDir, r.Workload), append(full, '\n'), 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", full, last)
	return err
}
