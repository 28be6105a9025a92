package main

import (
	"math"
	"testing"
)

// TestSignTest checks the two-sided sign test against binomial tails worked
// out by hand.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		won, lost int
		want      float64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{5, 0, 2.0 / 32},        // 0.0625: five pairs cannot reach 0.05
		{6, 0, 2.0 / 64},        // 0.03125
		{0, 6, 2.0 / 64},        // symmetric
		{9, 1, 2 * 11.0 / 1024}, // (1 + 10) / 2^10, both tails
		{10, 0, 2.0 / 1024},
		{3, 3, 1},
		{4, 2, 2 * 22.0 / 64},            // 1+6+15
		{15, 5, 2 * 21700.0 / (1 << 20)}, // 1+20+190+1140+4845+15504
		{7, 7, 1},                        // the two tails overlap: capped
	} {
		if got := signTest(c.won, c.lost); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %g, want %g", c.won, c.lost, got, c.want)
		}
	}
}

// TestCompareVerdict checks the verdict rule: p < 0.05 and a median change
// larger than the A/A spread, in the metric's direction; anything else is
// unresolved.
func TestCompareVerdict(t *testing.T) {
	old := []float64{100, 100, 100, 100, 100, 100}
	faster := []float64{120, 118, 121, 119, 122, 120}
	aaA := []float64{100, 100}
	aaB := []float64{103, 98}
	for _, c := range []struct {
		name     string
		better   string
		old, new []float64
		aaA, aaB []float64
		want     string
	}{
		{"six wins", "higher", old, faster, aaA, aaB, "better"},
		{"six losses", "lower", old, faster, aaA, aaB, "worse"},
		{"five pairs", "higher", old[:5], faster[:5], aaA, aaB, "unresolved"},
		{"inside the A/A spread", "higher", old, faster, []float64{100}, []float64{125}, "unresolved"},
		{"no A/A block", "higher", old, faster, nil, nil, "unresolved"},
		{"one pair", "higher", old[:1], faster[:1], aaA[:1], aaB[:1], "unresolved"},
	} {
		r := compare("w", "m", c.better, c.old, c.new, c.aaA, c.aaB)
		if r.Verdict != c.want {
			t.Errorf("%s: verdict %q (won %d of %d, p %g, change %g, A/A spread %g), want %q",
				c.name, r.Verdict, r.Won, r.Pairs, r.P, r.Change, r.AASpread, c.want)
		}
	}
	r := compare("w", "m", "higher", old, faster, aaA, aaB)
	if r.Won != 6 || math.Abs(r.Change-0.20) > 1e-9 || math.Abs(r.AASpread-0.03) > 1e-9 || r.NewQ[1] != 120 {
		t.Errorf("row %+v: want 6 wins, change 0.20, A/A spread 0.03, new median 120", r)
	}
}

// TestFailedOpsWithholdBetter checks that a gain does not count when the new
// side failed more operations, and that failures are summed per side.
func TestFailedOpsWithholdBetter(t *testing.T) {
	old := []float64{100, 100, 100, 100, 100, 100}
	faster := []float64{120, 118, 121, 119, 122, 120}
	better := compare("w", "m", "higher", old, faster, []float64{100}, []float64{101})
	worse := compare("w", "m", "lower", old, faster, []float64{100}, []float64{101})
	for _, c := range []struct {
		name             string
		r                row
		oldFail, newFail []float64
		want             string
		wantOld, wantNew float64
	}{
		{"no failures", better, []float64{0, 0}, []float64{0, 0}, "better", 0, 0},
		{"as many failures", better, []float64{1, 2}, []float64{3, 0}, "better", 3, 3},
		{"more new failures", better, []float64{0, 0}, []float64{0, 1}, "unresolved", 0, 1},
		{"fewer new failures", better, []float64{2, 0}, []float64{1, 0}, "better", 2, 1},
		{"worse stays worse", worse, []float64{0}, []float64{5}, "worse", 0, 5},
	} {
		r := withFailures(c.r, c.oldFail, c.newFail)
		if r.Verdict != c.want || r.OldFail != c.wantOld || r.NewFail != c.wantNew {
			t.Errorf("%s: verdict %q, failed %g / %g; want %q, %g / %g",
				c.name, r.Verdict, r.OldFail, r.NewFail, c.want, c.wantOld, c.wantNew)
		}
	}
}

func TestQuartiles(t *testing.T) {
	if got := quartiles([]float64{4, 1, 3, 2, 5}); got != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v", got)
	}
	if got := quartiles([]float64{1, 2}); got != [3]float64{1.25, 1.5, 1.75} {
		t.Errorf("quartiles of 1, 2 = %v", got)
	}
	if got := quartiles(nil); got != [3]float64{} {
		t.Errorf("quartiles of nothing = %v", got)
	}
}
