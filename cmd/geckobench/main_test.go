package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geckoftl"
)

// TestGCModeFlagRoundTrip pins that every geckoftl.GCMode's String() is accepted
// verbatim by -gc-mode, so option names printed in experiment output can be
// pasted back into the command line.
func TestGCModeFlagRoundTrip(t *testing.T) {
	for _, m := range []geckoftl.GCMode{geckoftl.GCInline, geckoftl.GCIncremental} {
		opts, err := parseArgs([]string{"-gc-mode", m.String()}, flag.ContinueOnError)
		if err != nil {
			t.Fatalf("-gc-mode %q rejected: %v", m.String(), err)
		}
		if got := opts.params.GCModes; len(got) != 1 || got[0] != m {
			t.Fatalf("-gc-mode %q parsed to %v", m.String(), got)
		}
	}
	if opts, err := parseArgs([]string{"-gc-mode", "both"}, flag.ContinueOnError); err != nil || opts.params.GCModes != nil {
		t.Fatalf("-gc-mode both parsed to %v, %v; want the sweep default", opts.params.GCModes, err)
	}
	if _, err := parseArgs([]string{"-gc-mode", "bogus"}, flag.ContinueOnError); err == nil {
		t.Fatal("-gc-mode bogus accepted")
	}
}

// TestVictimPolicyFlagRoundTrip pins the same for -policy and
// geckoftl.VictimPolicy.String().
func TestVictimPolicyFlagRoundTrip(t *testing.T) {
	for _, p := range []geckoftl.VictimPolicy{geckoftl.VictimGreedy, geckoftl.VictimMetadataAware, geckoftl.VictimCostBenefit} {
		opts, err := parseArgs([]string{"-policy", p.String()}, flag.ContinueOnError)
		if err != nil {
			t.Fatalf("-policy %q rejected: %v", p.String(), err)
		}
		if got := opts.params.Policies; len(got) != 1 || got[0] != p {
			t.Fatalf("-policy %q parsed to %v", p.String(), got)
		}
	}
	if opts, err := parseArgs([]string{"-policy", "both"}, flag.ContinueOnError); err != nil || opts.params.Policies != nil {
		t.Fatalf("-policy both parsed to %v, %v; want each sweep's default", opts.params.Policies, err)
	}
	if _, err := parseArgs([]string{"-policy", "bogus"}, flag.ContinueOnError); err == nil {
		t.Fatal("-policy bogus accepted")
	}
}

// TestAdmissionFlagRoundTrip pins that every geckoftl.AdmissionPolicy's
// String() is accepted verbatim by -admission, so the policy labels printed
// in queue-sweep rows can be pasted back into the command line.
func TestAdmissionFlagRoundTrip(t *testing.T) {
	for _, p := range []geckoftl.AdmissionPolicy{geckoftl.AdmitShed, geckoftl.AdmitWait} {
		if _, err := parseArgs([]string{"-admission", p.String()}, flag.ContinueOnError); err != nil {
			t.Fatalf("-admission %q rejected: %v", p.String(), err)
		}
	}
	if _, err := parseArgs([]string{"-admission", "bogus"}, flag.ContinueOnError); err == nil {
		t.Fatal("-admission bogus accepted")
	}
}

// TestListFlags covers the comma-separated list flags: lists parse with
// whitespace tolerance, and empty lists, zero or malformed counts and
// out-of-range fractions are rejected.
func TestListFlags(t *testing.T) {
	var counts []int
	cf := &listFlag[int]{dst: &counts, parse: parseCount}
	if err := cf.Set("1, 4,16"); err != nil || !reflect.DeepEqual(counts, []int{1, 4, 16}) {
		t.Fatalf("count list = %v, %v", counts, err)
	}
	for _, bad := range []string{"", "0", "x", "-4", ","} {
		if err := cf.Set(bad); err == nil {
			t.Errorf("count list %q accepted", bad)
		}
	}
	var fractions []float64
	ff := &listFlag[float64]{dst: &fractions, parse: parseFraction}
	if err := ff.Set("0,0.25"); err != nil || !reflect.DeepEqual(fractions, []float64{0, 0.25}) {
		t.Fatalf("fraction list = %v, %v", fractions, err)
	}
	for _, bad := range []string{"1", "-0.1", "x"} {
		if err := ff.Set(bad); err == nil {
			t.Errorf("fraction list %q accepted", bad)
		}
	}
}

// jsonLeaves returns the dotted key path of every leaf of a decoded JSON
// object.
func jsonLeaves(prefix string, v any, out *[]string) {
	obj, ok := v.(map[string]any)
	if !ok {
		*out = append(*out, strings.TrimSuffix(prefix, "."))
		return
	}
	for k, child := range obj {
		jsonLeaves(prefix+k+".", child, out)
	}
}

// TestRegistry is the registry's self-check: every registered experiment has
// a recorded golden and every golden a registered experiment; every name is
// selectable by -experiment and listed exactly once in the usage
// error, which ends with "all", and README.md carries that list and a claims
// table row with each claim's id, source and statement; every flag
// an entry says it reads exists; the default command line is the default
// parameters the goldens were recorded with; and text mode renders each
// golden's rows with one column for every field of their JSON encoding, so
// the tables drop nothing the machines see.
func TestRegistry(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata", "bench")
	recorded, err := filepath.Glob(filepath.Join(dir, "*.quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	unclaimed := make(map[string]bool)
	for _, path := range recorded {
		unclaimed[filepath.Base(path)] = true
	}

	opts, err := parseArgs([]string{"-quick"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if want := (geckoftl.ExperimentParams{Scale: geckoftl.QuickScale()}); !reflect.DeepEqual(opts.params, want) {
		t.Errorf("geckobench -quick runs %+v, the goldens record %+v", opts.params, want)
	}
	if len(opts.selected) != len(geckoftl.Experiments()) {
		t.Errorf("-experiment defaults to %d of %d experiments", len(opts.selected), len(geckoftl.Experiments()))
	}

	listed := make(map[string]int)
	names := experimentNames()
	for _, n := range names {
		listed[n]++
	}
	if names[len(names)-1] != "all" {
		t.Errorf("name list %v does not end with the all selector", names)
	}
	if len(selectExperiments("bogus")) != 0 {
		t.Error("selector bogus matched an experiment")
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Error(err)
	} else if list := strings.Join(names, ", "); !strings.Contains(string(readme), list) {
		t.Errorf("README.md does not list the experiments in registry order: %s", list)
	}

	for _, e := range geckoftl.Experiments() {
		if got := selectExperiments(e.Name); len(got) != 1 || got[0].Name != e.Name {
			t.Errorf("%s: selector %q selects %d experiments", e.Name, e.Name, len(got))
		}
		if listed[e.Name] != 1 {
			t.Errorf("%s: listed %d times in %v", e.Name, listed[e.Name], names)
		}
		for _, c := range e.Claims {
			if row := "| `" + c.ID + "` | " + c.Source + " | " + c.Statement + " |"; !strings.Contains(string(readme), row) {
				t.Errorf("%s: README.md's claims table has no row %s", e.Name, row)
			}
		}
		for _, name := range e.Flags {
			if opts.flags.Lookup(name) == nil {
				t.Errorf("%s: reads flag -%s, which geckobench does not define", e.Name, name)
			}
		}

		file := e.Name + ".quick.json"
		delete(unclaimed, file)
		golden, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Errorf("%s: no golden (run go test -run TestExperimentGoldens -update .): %v", e.Name, err)
			continue
		}
		rows := e.NewRows()
		if err := json.Unmarshal(golden, rows); err != nil {
			t.Errorf("%s: golden does not decode into %T: %v", e.Name, rows, err)
			continue
		}
		var table bytes.Buffer
		renderTable(&table, reflect.ValueOf(rows).Elem().Interface())
		header, _, _ := strings.Cut(table.String(), "\n")
		columns := make(map[string]bool)
		for _, c := range strings.Fields(header) {
			columns[c] = true
		}
		var generic any
		if err := json.Unmarshal(golden, &generic); err != nil {
			t.Fatal(err)
		}
		if list, ok := generic.([]any); ok {
			generic = list[0]
		}
		var leaves []string
		jsonLeaves("", generic, &leaves)
		for _, leaf := range leaves {
			if !columns[leaf] {
				t.Errorf("%s: text mode has no column for JSON field %s (columns: %s)", e.Name, leaf, header)
			}
		}
	}
	for file := range unclaimed {
		t.Errorf("golden %s belongs to no registered experiment", file)
	}
}

// TestFailingClaimFailsRun requires run to print a failing claim's verdict
// and return an error when the claim must hold at the run's scale, and only
// then.
func TestFailingClaimFailsRun(t *testing.T) {
	opts, err := parseArgs([]string{"-quick", "-experiment", "table1"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	e := &opts.selected[0]
	e.Claims[0].Check = func(any) error { return errors.New("mutated") }
	var out bytes.Buffer
	if err := run(&out, opts); err == nil || !strings.Contains(err.Error(), e.Claims[0].ID) {
		t.Errorf("run with a failing must-hold claim returned %v", err)
	}
	if !strings.Contains(out.String(), "FAILS: mutated") {
		t.Errorf("the failing verdict is not printed:\n%s", out.String())
	}
	e.Claims[0].MustHold = 0
	if err := run(&out, opts); err != nil {
		t.Errorf("run with an expected failure returned %v", err)
	}
}
