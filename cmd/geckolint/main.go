// Command geckolint runs the repo's custom analyzer suite: the mechanical
// form of GeckoFTL's correctness invariants (deterministic replay, honest
// batch cancellation, the sealed error taxonomy, lock discipline, seeded
// randomness, the internal/ API boundary). See docs/analysis.md for the
// catalogue of rules and the bugs that motivated them.
//
//	geckolint [-json] [packages]
//
// It loads the packages (./... by default) with their tests, runs every
// rule over them in this one process and prints the findings, one per line
// or with -json as a flat JSON array for CI annotations. Exit status: 0
// clean, 1 findings, 2 the packages could not be loaded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	//geckolint:ignore apiboundary the linter command carries its own analyzers
	"geckoftl/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "print the findings as a JSON array of {file,line,col,analyzer,message}")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: geckolint [-json] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := analysis.Lint(".", nil, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "geckolint: %v\n", err)
		os.Exit(2)
	}
	if err := emit(os.Stdout, findings, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "geckolint: %v\n", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// emit prints the findings: a "file:line:col: analyzer: message" line each,
// or a JSON array — [] when there are none — with the file names absolute,
// as the annotations CI makes of it want them.
func emit(w io.Writer, findings []analysis.Finding, asJSON bool) error {
	if !asJSON {
		for _, f := range findings {
			if _, err := fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]analysis.Finding, len(findings))
	for i, f := range findings {
		abs, err := filepath.Abs(f.File)
		if err != nil {
			return err
		}
		f.File = abs
		out[i] = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
