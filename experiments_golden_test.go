package geckoftl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"geckoftl"
)

// goldenRuns lists every geckobench experiment with the options the tool's
// default flags give it.
var goldenRuns = []struct {
	name string
	rows func(geckoftl.ExperimentScale) (any, error)
}{
	{"fig1", func(geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure1(), nil }},
	{"table1", func(geckoftl.ExperimentScale) (any, error) { return geckoftl.Table1(), nil }},
	{"fig9", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure9(s) }},
	{"fig10", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure10(s) }},
	{"fig11", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure11(s) }},
	{"fig12", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure12(s) }},
	{"fig13ram", func(geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure13RAM(), nil }},
	{"fig13rec", func(geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure13Recovery(), nil }},
	{"fig13wa", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure13WA(s) }},
	{"fig14", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Figure14(s) }},
	{"recovery", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.RecoverySimulation(s) }},
	{"recovery-sweep", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.RecoverySweep(geckoftl.RecoverySweepOptions{Scale: s, Channels: []int{1, 2, 4, 8}})
	}},
	{"channels", func(s geckoftl.ExperimentScale) (any, error) {
		s.Device.DiesPerChannel = 1
		return geckoftl.ChannelSweep(geckoftl.ChannelSweepOptions{Scale: s, Channels: []int{1, 2, 4, 8}, Workload: "uniform"})
	}},
	{"latency", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.LatencySweep(geckoftl.LatencySweepOptions{
			Scale:    s,
			Modes:    []geckoftl.GCMode{geckoftl.GCInline, geckoftl.GCIncremental},
			Policies: []geckoftl.VictimPolicy{geckoftl.VictimMetadataAware, geckoftl.VictimGreedy},
		})
	}},
	{"trim", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.TrimSweep(geckoftl.TrimSweepOptions{Scale: s, Workload: "uniform", TrimFractions: []float64{0, 0.1, 0.2, 0.3}})
	}},
	{"wear", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.WearSweep(geckoftl.WearSweepOptions{Scale: s})
	}},
	{"endurance", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.EnduranceSweep(geckoftl.EnduranceSweepOptions{Scale: s})
	}},
	{"restart", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.RestartSweep(geckoftl.RestartSweepOptions{Scale: s})
	}},
	{"queue", func(s geckoftl.ExperimentScale) (any, error) {
		return geckoftl.QueueSweep(geckoftl.QueueSweepOptions{Scale: s, Workload: "uniform"})
	}},
	{"summary", func(s geckoftl.ExperimentScale) (any, error) { return geckoftl.Headlines(s) }},
}

// goldenRows encodes rows exactly as `geckobench -json` does and lays a row
// list out one row per line, so a number that moves diffs as one line.
func goldenRows(t *testing.T, rows any) []byte {
	t.Helper()
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var list []json.RawMessage
	if json.Unmarshal(raw, &list) != nil {
		return append(raw, '\n')
	}
	var b bytes.Buffer
	b.WriteString("[\n")
	for i, row := range list {
		b.Write(row)
		if i < len(list)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return b.Bytes()
}

// TestExperimentGoldens reruns every experiment at the quick scale and
// compares its rows byte for byte with testdata/bench/<name>.quick.json:
// the rows of `geckobench -experiment <name> -quick -json`. The files are the
// repo's recorded trajectory — a refactor that moves no number leaves them
// alone, and a change that moves one shows which. Regenerate with
// `go test -run TestExperimentGoldens -update .` and review the diff.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range goldenRuns {
		t.Run(e.name, func(t *testing.T) {
			rows, err := e.rows(geckoftl.QuickScale())
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRows(t, rows)
			golden := filepath.Join("testdata", "bench", e.name+".quick.json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("rows moved (regenerate with -update if intended):\n%s", firstDiff(got, want))
			}
		})
	}
}

// firstDiff reports the first line on which two goldens differ.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
