package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the declared workloads and metrics")

// smoke is the size the tests run every workload at: the same code as the
// benchmark on a device a quarter the size and a tenth full, which the race
// detector gets through in seconds. The hot set of the read workload still
// fits the filled part.
var smoke = sizing{Blocks: 1024, Fill: 0.1, SetupRepeats: 1, CrashWindow: 1024, ReferenceSteps: 2048, IsolatedCalls: 2048, IsolatedBlocks: 128}

// smokeSeconds is -seconds 6 at -scale 0.01.
const smokeSeconds = 0.06

const benchmarkJSON = "../../BENCHMARK.json"

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 6

// declared renders BENCHMARK.json from the package's own tables, so the file
// and the harness cannot name different things.
func declared(t *testing.T) []byte {
	t.Helper()
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "internal/perfbench/run.sh"},
		Paths:      []string{"internal/perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	want := declared(t)
	if *update {
		if err := os.WriteFile(benchmarkJSON, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the harness's tables; run go test ./internal/perfbench -run BenchmarkJSON -update")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, the contract allows 64 KiB", len(want))
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid benchmark name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not valid", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract's limits", len(workloads), len(endToEnd), len(perLayer))
	}
}

func names(metrics map[string]float64) map[string]bool {
	out := map[string]bool{}
	for n := range metrics {
		out[n] = true
	}
	return out
}

func sameNames(t *testing.T, what string, got map[string]bool, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		if !got[m.Name] {
			t.Errorf("%s: declared metric %s was not emitted", what, m.Name)
		}
		delete(got, m.Name)
	}
	for n := range got {
		t.Errorf("%s: emitted metric %s is not declared", what, n)
	}
}

// Every workload, end to end twice and traced once, at smoke size: the names
// emitted are the names declared, the same seed repeats every simulated
// number exactly, and no goroutine outlives the devices.
//
// The race detector slows these loops some seventeen times, so under it only
// the workloads that start goroutines run: the batch fan-out end to end, and
// the queue end to end and traced (which also covers the recorders, the bare
// engine and queue of T2 and the two-goroutine flash drive of T3).
func TestWorkloadsAtSmokeSize(t *testing.T) {
	ctx := context.Background()
	goroutines := runtime.NumGoroutine()
	for _, w := range workloads {
		if raceEnabled && w.Kind != mixedBatch && w.Kind != asyncWrite {
			continue
		}
		first, err := runEndToEnd(ctx, w, smoke, 1, smokeSeconds, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		second := first
		if !raceEnabled {
			if second, err = runEndToEnd(ctx, w, smoke, 1, smokeSeconds, t.TempDir()); err != nil {
				t.Fatalf("%s again: %v", w.Name, err)
			}
		}
		sameNames(t, w.Name, names(first.Metrics), endToEnd)
		for _, m := range endToEnd {
			a, b := first.Metrics[m.Name], second.Metrics[m.Name]
			if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Name, m.Name, a)
			}
			switch {
			case strings.HasPrefix(m.Name, "sim_") || m.Name == "recover_sim_ms":
				if a != b {
					t.Errorf("%s: %s = %v then %v with the same seed", w.Name, m.Name, a, b)
				}
			case m.Name == "host_allocs_per_op":
				if math.Abs(a-b) > 0.02*a {
					t.Errorf("%s: host_allocs_per_op = %v then %v with the same seed", w.Name, a, b)
				}
			}
		}
		if first.Failed != 0 || first.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.Name, first.Failed, first.Attempted)
		}

		if raceEnabled && w.Kind != asyncWrite {
			continue
		}
		traced, err := runTraced(ctx, w, smoke, 1, smokeSeconds/traceShare, t.TempDir(), t.TempDir())
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		sameNames(t, w.Name+" traced", names(traced.Metrics), perLayer)
		if traced.Metrics["device.samples"] == 0 {
			t.Errorf("%s: the traced run recorded no span", w.Name)
		}
	}

	// Queue workers exit inside Close; give a descheduled one a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before the workloads, %d after every device is closed", goroutines, n)
	}
}

func TestADifferentSeedChangesTheSimulatedNumbers(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine; see TestWorkloadsAtSmokeSize")
	}
	ctx := context.Background()
	one, err := runEndToEnd(ctx, workloads[0], smoke, 1, smokeSeconds, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	two, err := runEndToEnd(ctx, workloads[0], smoke, 2, smokeSeconds, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if one.Metrics["sim_write_amp"] == two.Metrics["sim_write_amp"] {
		t.Errorf("sim_write_amp = %v with seeds 1 and 2: the seed does not reach the inputs", one.Metrics["sim_write_amp"])
	}
}

func TestShadowCheckFailsOnAWrongShadow(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine; see TestWorkloadsAtSmokeSize")
	}
	ctx := context.Background()
	d, err := setUp(ctx, workloads[0], smoke, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close(ctx)
	s := make(shadow, d.LogicalPages())
	for i := range s[:smoke.filled(d.LogicalPages())] {
		s[i] = true
	}
	if _, err := crashAndVerify(ctx, d, s, smoke.CrashWindow, 1); err != nil {
		t.Fatalf("a right shadow: %v", err)
	}
	for lpn := range s {
		if s[lpn] {
			s[lpn] = false // the device still holds this page
			break
		}
	}
	if err := s.check(d, nil); err == nil {
		t.Error("the check passed a shadow that says a written page is unmapped")
	}
}

func TestBadCommandLinesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{},
		{"-workload", "read-hot-8ch", "-trace", "2"},
		{"-workload", "read-hot-8ch", "-seconds", "0"},
		{"-workload", "read-hot-8ch", "-no-such-flag"},
	} {
		var stdout bytes.Buffer
		err := run(args, &stdout, io.Discard)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed a result: %s", args, stdout.String())
		}
	}
	err := run([]string{"-workload", "no-such-workload"}, io.Discard, io.Discard)
	for _, w := range workloads {
		if err == nil || !strings.Contains(err.Error(), w.Name) {
			t.Errorf("the unknown-workload error %q does not list %s", err, w.Name)
		}
	}
}
