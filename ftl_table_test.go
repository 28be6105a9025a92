package geckoftl

import (
	"errors"
	"reflect"
	"testing"

	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/sim"
)

// TestFTLTable pins the one table that names the five FTLs: every name the
// models and the experiment rows use, and every alias the command lines
// document, selects the configuration its constructor builds; an unknown name
// is a configuration error; and the comparison experiments still list the
// FTLs in Figure 13's order.
func TestFTLTable(t *testing.T) {
	const cache = 64
	byKind := map[model.FTLKind]struct {
		options func(int) FTLOptions
		aliases []string
	}{
		model.GeckoFTL: {GeckoFTLOptions, []string{"", "gecko", "geckoftl"}},
		model.DFTL:     {DFTLOptions, []string{"dftl"}},
		model.LazyFTL:  {LazyFTLOptions, []string{"lazy", "lazyftl"}},
		model.MuFTL:    {MuFTLOptions, []string{"mu", "uftl", "muftl", "mu-ftl"}},
		model.IBFTL:    {IBFTLOptions, []string{"ib", "ibftl", "ib-ftl"}},
	}
	var order []string
	for _, kind := range model.Kinds() {
		order = append(order, kind.String())
		want := byKind[kind].options(cache)
		if want.Name != kind.String() {
			t.Errorf("%v's constructor names it %q", kind, want.Name)
		}
		for _, name := range append([]string{kind.String()}, byKind[kind].aliases...) {
			got, err := FTLOptionsByName(name, cache)
			if err != nil {
				t.Errorf("FTLOptionsByName(%q): %v", name, err)
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("FTLOptionsByName(%q) = %+v, want %v's %+v", name, got, kind, want)
			}
		}
	}
	if _, err := FTLOptionsByName("nope", cache); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("unknown name: %v, want ErrInvalidConfig", err)
	}

	// Figure 13 lists the baselines first and GeckoFTL last.
	if want := []string{"DFTL", "LazyFTL", "uFTL", "IB-FTL", "GeckoFTL"}; !reflect.DeepEqual(order, want) || !reflect.DeepEqual(ftl.Names(), want) {
		t.Errorf("FTL order: model %v, table %v, want %v", order, ftl.Names(), want)
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
