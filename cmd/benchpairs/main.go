// Command benchpairs compares the benchmark of two revisions in alternating
// pairs. It extracts each revision with git archive into a temporary
// directory (or uses the checkout as it stands, for -new .), runs
// internal/perfbench/run.sh there for every workload, pairs a run of the old
// revision with one of the new in alternating order, and adds an A/A block
// of as many pairs of the old revision with itself. Per workload and host
// metric (the two timing metrics, allocations and bytes per operation, and
// the live heap) it prints the medians and quartiles of both sides, the
// median relative change, the pairs the new revision won, a two-sided
// sign-test p, the A/A spread (the largest relative difference of an A/A
// pair) and the operations each side failed. The verdict is "better" or
// "worse" when p < 0.05 and the median change is larger than the A/A spread,
// and "unresolved" otherwise; a "better" is unresolved too when the new
// revision failed more operations than the old (docs/benchmarks.md, "Host
// cost of a crash point").
//
// Usage, from the repository root:
//
//	go run ./cmd/benchpairs -old HEAD~1 -new . -workloads crash-recover-4ch -pairs 6 -seconds 6
//	go run ./cmd/benchpairs -old HEAD -new HEAD -pairs 1 -workloads read-hot-8ch -seconds 1 -json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// metrics are the end-to-end metrics compared: the host ones, which a change
// to the program's host side can move while the simulated ones repeat.
var metrics = []string{"host_ops_per_s", "host_cpu_us_per_op", "host_allocs_per_op", "host_bytes_per_op", "host_live_heap_mb"}

// failedKey holds, beside a run's metric values, the operations the run
// reports as failed (the result line's "failed").
const failedKey = "failed"

// row is the comparison of one metric on one workload.
type row struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Better   string     `json:"better"`
	Old      []float64  `json:"old"`
	New      []float64  `json:"new"`
	OldQ     [3]float64 `json:"old_q1_median_q3"`
	NewQ     [3]float64 `json:"new_q1_median_q3"`
	Change   float64    `json:"median_change"`
	Won      int        `json:"pairs_won"`
	Pairs    int        `json:"pairs"`
	P        float64    `json:"sign_test_p"`
	AASpread float64    `json:"aa_spread"`
	AAPairs  int        `json:"aa_pairs"`
	OldFail  float64    `json:"old_failed_ops"`
	NewFail  float64    `json:"new_failed_ops"`
	Verdict  string     `json:"verdict"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchpairs", flag.ContinueOnError)
	oldRev := fs.String("old", "HEAD~1", "the parent revision")
	newRev := fs.String("new", ".", `the changed revision, or "." for the checkout as it stands`)
	workloads := fs.String("workloads", "", "comma-separated workloads (default: all that BENCHMARK.json declares)")
	pairs := fs.Int("pairs", 5, "old/new pairs, and old/old A/A pairs, per workload")
	seconds := fs.Float64("seconds", 6, "run.sh --seconds")
	seed := fs.Int("seed", 1, "run.sh --seed")
	asJSON := fs.Bool("json", false, "print the rows as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	oldDir, removeOld, err := checkout(*oldRev)
	if err != nil {
		return err
	}
	defer removeOld()
	newDir, removeNew, err := checkout(*newRev)
	if err != nil {
		return err
	}
	defer removeNew()

	better, declared, err := readBenchmark(newDir)
	if err != nil {
		return err
	}
	names := declared
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	var rows []row
	for _, w := range names {
		var olds, news, aaA, aaB []map[string]float64
		measure := func(dir string, into *[]map[string]float64) error {
			fmt.Fprintf(stderr, "benchpairs: %s in %s\n", w, dir)
			r, err := runBench(dir, w, *seed, *seconds)
			*into = append(*into, r)
			return err
		}
		for i := range 2 * *pairs {
			a, b, ra, rb := oldDir, newDir, &olds, &news
			switch {
			case i >= *pairs: // the old/old A/A block
				b, ra, rb = oldDir, &aaA, &aaB
			case i%2 == 1: // every second pair runs the new revision first
				a, b, ra, rb = newDir, oldDir, &news, &olds
			}
			if err := measure(a, ra); err != nil {
				return err
			}
			if err := measure(b, rb); err != nil {
				return err
			}
		}
		for _, m := range metrics {
			dir, ok := better[m]
			if !ok {
				return fmt.Errorf("metric %q is not an end-to-end metric of BENCHMARK.json", m)
			}
			r := compare(w, m, dir, column(olds, m), column(news, m), column(aaA, m), column(aaB, m))
			rows = append(rows, withFailures(r, column(olds, failedKey), column(news, failedKey)))
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	fmt.Fprintln(stdout, "| workload | metric | old q1 / median / q3 | new q1 / median / q3 | change | won | p | A/A spread | failed ops | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|---|---|---|")
	for _, r := range rows {
		fmt.Fprintf(stdout, "| %s | %s | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %+.1f %% | %d/%d | %.3g | %.1f %% (%d) | %g / %g | %s |\n",
			r.Workload, r.Metric, r.OldQ[0], r.OldQ[1], r.OldQ[2], r.NewQ[0], r.NewQ[1], r.NewQ[2],
			100*r.Change, r.Won, r.Pairs, r.P, 100*r.AASpread, r.AAPairs, r.OldFail, r.NewFail, r.Verdict)
	}
	return nil
}

// checkout returns a directory holding rev and a function that removes it:
// the repository root for ".", otherwise a temporary directory filled by git
// archive.
func checkout(rev string) (string, func(), error) {
	if rev == "." {
		top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
		if err != nil {
			return "", nil, fmt.Errorf("finding the checkout: %w", err)
		}
		return string(bytes.TrimSpace(top)), func() {}, nil
	}
	dir, err := os.MkdirTemp("", "benchpairs-")
	if err != nil {
		return "", nil, err
	}
	extract := exec.Command("bash", "-c", `set -o pipefail; git archive --format=tar "$1" | tar -x -C "$2"`, "extract", rev, dir)
	extract.Stderr = os.Stderr
	if err := extract.Run(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("extracting %s: %w", rev, err)
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// readBenchmark returns each end-to-end metric's direction and the declared
// workloads, in order, from the checkout's BENCHMARK.json.
func readBenchmark(dir string) (map[string]string, []string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		Workloads []struct{ Name string }         `json:"workloads"`
		EndToEnd  []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	better := make(map[string]string, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		better[m.Name] = m.Better
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return better, names, nil
}

// runBench runs the benchmark once in dir and returns the result line's
// metric values and, under failedKey, its failed operations.
func runBench(dir, workload string, seed int, seconds float64) (map[string]float64, error) {
	cmd := exec.Command("bash", "internal/perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s in %s: %w", workload, dir, err)
	}
	var last []byte
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = slices.Clone(line)
		}
	}
	var result struct {
		Failed  *float64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(last, &result); err != nil {
		return nil, fmt.Errorf("%s in %s: result line: %w", workload, dir, err)
	}
	if result.Failed == nil {
		return nil, fmt.Errorf("%s in %s: the result line has no failed count", workload, dir)
	}
	values := make(map[string]float64, len(result.Metrics)+1)
	for name, m := range result.Metrics {
		values[name] = m.Value
	}
	values[failedKey] = *result.Failed
	return values, nil
}

func column(runs []map[string]float64, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r[metric]
	}
	return out
}

// compare computes one row. better is "higher" or "lower"; old[i] and new[i]
// are one pair, as are aaA[i] and aaB[i].
func compare(workload, metric, better string, old, new, aaA, aaB []float64) row {
	r := row{Workload: workload, Metric: metric, Better: better, Old: old, New: new, Pairs: len(old), AAPairs: len(aaA)}
	r.OldQ, r.NewQ = quartiles(old), quartiles(new)
	changes := make([]float64, len(old))
	lost := 0
	for i := range old {
		changes[i] = new[i]/old[i] - 1
		switch gain := changes[i]; {
		case better == "lower" && gain < 0, better != "lower" && gain > 0:
			r.Won++
		case gain != 0:
			lost++
		}
	}
	r.Change = quartiles(changes)[1]
	r.P = signTest(r.Won, lost)
	for i := range aaA {
		r.AASpread = math.Max(r.AASpread, math.Abs(aaB[i]/aaA[i]-1))
	}
	r.Verdict = "unresolved"
	if r.AAPairs > 0 && r.P < 0.05 && math.Abs(r.Change) > r.AASpread {
		r.Verdict = "better"
		if r.Won < lost {
			r.Verdict = "worse"
		}
	}
	return r
}

// withFailures records the operations each side failed over its runs and
// turns a "better" verdict unresolved when the new side failed more: a
// timing gain does not count when more operations fail.
func withFailures(r row, old, new []float64) row {
	for _, f := range old {
		r.OldFail += f
	}
	for _, f := range new {
		r.NewFail += f
	}
	if r.Verdict == "better" && r.NewFail > r.OldFail {
		r.Verdict = "unresolved"
	}
	return r
}

// quartiles returns the first quartile, the median and the third quartile of
// xs, interpolating between order statistics; zeros for no values.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// signTest returns the two-sided sign-test p for won wins against lost
// losses (ties are left out): the probability, under a fair coin, of a split
// at least as uneven.
func signTest(won, lost int) float64 {
	n, k := won+lost, min(won, lost)
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c is n choose i
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}
