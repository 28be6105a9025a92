package model

import (
	"math"
	"testing"
)

func TestClassWAMatchesUniformFixedPoint(t *testing.T) {
	// The single-class fixed point must satisfy its own defining equation.
	for _, r := range []float64{0.5, 0.7, 0.9} {
		wa := classWA(r)
		if wa < 1 {
			t.Fatalf("classWA(%g) = %g < 1", r, wa)
		}
		rhs := 1 / (1 - math.Exp(-1/(r*wa)))
		if math.Abs(wa-rhs) > 1e-6 {
			t.Errorf("classWA(%g) = %g does not satisfy its fixed point (rhs %g)", r, wa, rhs)
		}
	}
	// More over-provisioning (smaller r) must mean less write-amplification.
	if classWA(0.5) >= classWA(0.7) || classWA(0.7) >= classWA(0.9) {
		t.Errorf("classWA not increasing in r: %g %g %g", classWA(0.5), classWA(0.7), classWA(0.9))
	}
}

func TestSeparationGainSkewed(t *testing.T) {
	cases := []struct {
		name string
		p    SeparationParams
	}{
		{"hotcold-80-20", SeparationParams{OverProvision: 0.7, HotPageFraction: 0.2, HotWriteShare: 0.8}},
		{"zipfian-approx", SeparationParams{OverProvision: 0.7, HotPageFraction: 0.2, HotWriteShare: 0.9}},
	}
	for _, tc := range cases {
		single, err := SingleFrontierWA(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		sep, err := SeparatedFrontierWA(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		gain := single / sep
		if !(sep < single) {
			t.Errorf("%s: separated WA %.3f not below single-frontier WA %.3f", tc.name, sep, single)
		}
		if gain <= 1.01 {
			t.Errorf("%s: separation gain %.3f, want comfortably above 1", tc.name, gain)
		}
		if sep < 1 || single < 1 {
			t.Errorf("%s: WA below 1 (single %.3f, separated %.3f)", tc.name, single, sep)
		}
	}
}

func TestSeparationGainVanishesWithoutSkew(t *testing.T) {
	// With HotWriteShare == HotPageFraction both classes update at the same
	// per-page rate: splitting them buys (essentially) nothing.
	p := SeparationParams{OverProvision: 0.7, HotPageFraction: 0.3, HotWriteShare: 0.3}
	gain := separationGain(t, p)
	if gain < 0.99 || gain > 1.02 {
		t.Errorf("no-skew separation gain = %.4f, want ~1", gain)
	}
}

func TestSeparationGainMonotonicInSkew(t *testing.T) {
	prev := 0.0
	for i, share := range []float64{0.3, 0.5, 0.7, 0.9} {
		gain := separationGain(t, SeparationParams{OverProvision: 0.7, HotPageFraction: 0.3, HotWriteShare: share})
		if i > 0 && gain < prev-1e-6 {
			t.Errorf("gain not monotonic in skew: share %.1f gain %.4f < previous %.4f", share, gain, prev)
		}
		prev = gain
	}
}

func TestSeparationParamsValidate(t *testing.T) {
	bad := []SeparationParams{
		{OverProvision: 0, HotPageFraction: 0.2, HotWriteShare: 0.8},
		{OverProvision: 1, HotPageFraction: 0.2, HotWriteShare: 0.8},
		{OverProvision: 0.7, HotPageFraction: 0, HotWriteShare: 0.8},
		{OverProvision: 0.7, HotPageFraction: 0.2, HotWriteShare: 1},
	}
	for _, p := range bad {
		if _, err := SingleFrontierWA(p); err == nil {
			t.Errorf("SingleFrontierWA(%+v) accepted invalid params", p)
		}
		if _, err := SeparatedFrontierWA(p); err == nil {
			t.Errorf("SeparatedFrontierWA(%+v) accepted invalid params", p)
		}
	}
}

// separationGain is the write-amplification reduction hot/cold separation
// buys: SingleFrontierWA / SeparatedFrontierWA.
func separationGain(t *testing.T, p SeparationParams) float64 {
	t.Helper()
	single, err := SingleFrontierWA(p)
	if err != nil {
		t.Fatal(err)
	}
	sep, err := SeparatedFrontierWA(p)
	if err != nil {
		t.Fatal(err)
	}
	return single / sep
}
