// Package apiboundary defines an analyzer that seals geckoftl/internal:
// only the root geckoftl package (which is the public facade over the
// internals) and the internal packages themselves may import
// geckoftl/internal/...; cmd/ tools, examples/ and any future public
// subpackage must go through the public API.
//
// PR 4 introduced this boundary and enforced it with a grep over cmd/ and
// examples/ in CI; this analyzer is the typed replacement — it sees the
// real import graph, not file text, and covers every package of the module.
package apiboundary

import (
	"strconv"
	"strings"

	"geckoftl/internal/analysis/lintutil"
)

const doc = `restrict geckoftl/internal imports to the root package and internal/ itself

The Go toolchain already stops other modules from importing internal
packages; inside this module, cmd/ and examples/ could still reach in. They
must not: everything outside internal/ exercises the public surface, which
is what keeps the examples honest documentation and the tools portable to a
real device backend.`

// Analyzer is the apiboundary analyzer.
var Analyzer = &lintutil.Analyzer{
	Name: "apiboundary",
	Doc:  doc,
	Run:  run,
}

// module is the module path whose internal tree is sealed. A variable so
// the fixture tests can run under a synthetic module name.
var module = "geckoftl"

func run(pass *lintutil.Pass) {
	internalPrefix := module + "/internal"
	path := pass.Pkg.Path()
	switch {
	case path == module, path == module+"_test":
		return // the public facade wraps the internals by design
	case path == internalPrefix, strings.HasPrefix(path, internalPrefix+"/"):
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p != internalPrefix && !strings.HasPrefix(p, internalPrefix+"/") {
				continue
			}
			pass.Reportf(imp,
				"%s imports %s across the API boundary; packages outside internal/ must use the public %s package",
				path, p, module)
		}
	}
}
