package geckoftl

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/sim"
)

// TestFTLTable pins what each of the paper's five FTLs is by what it does,
// not by reading a table back. For every kind: its canonical name and every
// alias the command lines document resolve to the same options; after a short
// seeded stream only GeckoFTL has taken runtime checkpoints and only LazyFTL
// and IB-FTL have forced synchronizations to hold their dirty bound; only
// GeckoFTL exports a host checkpoint; and a power failure is ridden out on a
// battery exactly by DFTL and µ-FTL. An unknown name and an out-of-range kind
// are configuration errors, and the comparison experiments list the FTLs in
// Figure 13's order.
func TestFTLTable(t *testing.T) {
	const cache = 64
	ctx := context.Background()
	aliases := map[model.FTLKind][]string{
		model.GeckoFTL: {"", "gecko", "geckoftl"},
		model.DFTL:     {"dftl"},
		model.LazyFTL:  {"lazy", "lazyftl"},
		model.MuFTL:    {"mu", "uftl", "muftl", "mu-ftl"},
		model.IBFTL:    {"ib", "ibftl", "ib-ftl"},
	}
	var order []string
	for _, kind := range model.Kinds() {
		order = append(order, kind.String())
		t.Run(kind.String(), func(t *testing.T) {
			opts, err := FTLOptionsByName(kind.String(), cache)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range aliases[kind] {
				if got, err := FTLOptionsByName(name, cache); err != nil || !reflect.DeepEqual(got, opts) {
					t.Errorf("FTLOptionsByName(%q) = %+v, %v; want %+v", name, got, err, opts)
				}
			}

			d, err := Open(WithFTLOptions(opts))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close(ctx)
			if got := d.Geometry().FTL; got != kind.String() {
				t.Errorf("opened FTL is named %q", got)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < 2000; i++ {
				if err := d.Write(ctx, LPN(rng.Int63n(d.LogicalPages()))); err != nil {
					t.Fatal(err)
				}
			}
			st := d.eng.Stats()
			if got, want := st.Checkpoints > 0, kind == model.GeckoFTL; got != want {
				t.Errorf("%d runtime checkpoints", st.Checkpoints)
			}
			if got, want := st.ForcedSyncs > 0, kind == model.LazyFTL || kind == model.IBFTL; got != want {
				t.Errorf("%d forced synchronizations", st.ForcedSyncs)
			}
			_, err = d.eng.ExportCheckpoint()
			if got, want := err == nil, kind == model.GeckoFTL; got != want || (err != nil && !errors.Is(err, ftl.ErrCheckpointUnsupported)) {
				t.Errorf("ExportCheckpoint: %v", err)
			}
			if err := d.PowerFail(); err != nil {
				t.Fatal(err)
			}
			report, err := d.Recover(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := report.UsedBattery, kind == model.DFTL || kind == model.MuFTL; got != want {
				t.Errorf("recovery UsedBattery = %v", got)
			}
		})
	}
	if _, err := FTLOptionsByName("nope", cache); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown name: %v, want ErrInvalidConfig", err)
	}
	outOfRange := GeckoFTLOptions(cache)
	outOfRange.FTL = model.FTLKind(len(model.Kinds()))
	if _, err := Open(WithFTLOptions(outOfRange)); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("out-of-range kind: %v, want ErrInvalidConfig", err)
	}

	// Figure 13 lists the baselines first and GeckoFTL last.
	if want := []string{"DFTL", "LazyFTL", "uFTL", "IB-FTL", "GeckoFTL"}; !reflect.DeepEqual(order, want) {
		t.Errorf("FTL order %v, want %v", order, want)
	}
	rows, err := sim.Figure13WA(sim.QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rows {
		got = append(got, r.Name)
	}
	if !reflect.DeepEqual(got, order) {
		t.Errorf("Figure13WA rows %v, want %v", got, order)
	}
}
