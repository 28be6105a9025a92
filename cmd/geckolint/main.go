// Command geckolint runs the repo's custom analyzer suite: the mechanical
// form of GeckoFTL's correctness invariants (deterministic replay, honest
// batch cancellation, the sealed error taxonomy, lock discipline, seeded
// randomness, the internal/ API boundary). See docs/analysis.md for the
// catalogue of rules and the bugs that motivated them.
//
// It speaks the go vet -vettool protocol, so both forms work:
//
//	geckolint ./...                      # standalone: re-execs go vet
//	go vet -vettool=$(which geckolint) ./...
//
// Standalone invocation accepts the usual package patterns (defaulting to
// ./...) plus -<analyzer>.* flags, which are forwarded to the vet run, and
// one mode of its own:
//
//	geckolint -json ./...   # findings as a flat JSON array for CI annotations
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	//geckolint:ignore apiboundary the linter command carries its own analyzers
	"geckoftl/internal/analysis"
)

func main() {
	// Under go vet, the tool is probed with -V=full (build caching) and
	// -flags (flag discovery), then invoked on one package at a time with a
	// trailing *.cfg argument. Everything else is a human at a terminal
	// asking for a standalone run.
	if len(os.Args) > 1 {
		last := os.Args[len(os.Args)-1]
		if os.Args[1] == "-V=full" || os.Args[1] == "-flags" || strings.HasSuffix(last, ".cfg") {
			unitchecker.Main(analysis.All()...) // never returns
		}
	}
	os.Exit(standalone(os.Args[1:]))
}

// standalone re-execs the suite through go vet so the toolchain handles
// package loading, caching and export data. Exit codes follow go vet: 0
// clean, non-zero on findings or failure.
func standalone(args []string) int {
	var jsonOut bool
	rest := make([]string, 0, len(args))
	for _, a := range args {
		switch a {
		case "-json", "--json":
			jsonOut = true
		default:
			rest = append(rest, a)
		}
	}
	args = rest
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "geckolint: locating own binary: %v\n", err)
		return 2
	}
	if jsonOut {
		return jsonMain(exe, args)
	}
	vetArgs := append([]string{"vet", "-vettool=" + exe}, args...)
	if !hasPackagePattern(args) {
		vetArgs = append(vetArgs, "./...")
	}
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if exit, ok := err.(*exec.ExitError); ok {
			return exit.ExitCode()
		}
		fmt.Fprintf(os.Stderr, "geckolint: running go vet: %v\n", err)
		return 2
	}
	return 0
}

// hasPackagePattern reports whether args name any package (anything that is
// not a flag).
func hasPackagePattern(args []string) bool {
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			return true
		}
	}
	return false
}
