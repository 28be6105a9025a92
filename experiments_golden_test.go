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

// TestExperimentGoldens reruns every registered experiment at the quick
// scale with default parameters and compares its rows byte for byte with
// testdata/bench/<name>.quick.json: the rows of
// `geckobench -experiment <name> -quick -json`. The files are the
// repo's recorded trajectory — a refactor that moves no number leaves them
// alone, and a change that moves one shows which. Regenerate with
// `go test -run TestExperimentGoldens -update .` and review the diff.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range geckoftl.Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			rows, err := e.Run(geckoftl.ExperimentParams{Scale: geckoftl.QuickScale()})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRows(t, rows)
			golden := filepath.Join("testdata", "bench", e.Name+".quick.json")
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
