package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"geckoftl/internal/analysis/lintutil"
)

// Finding is one diagnostic of a Lint run.
type Finding = lintutil.Finding

// Lint runs the whole suite over the packages the patterns name, resolved by
// the go command from dir, and returns the sorted findings. File names, in
// the findings and inside their messages, are relative to dir.
//
// overlay replaces the content of the files it names (by absolute path)
// before they are parsed; packages importing an overlaid package still see
// its compiled form on disk.
func Lint(dir string, overlay map[string][]byte, patterns ...string) ([]Finding, error) {
	pkgs, err := load(dir, overlay, patterns)
	if err != nil {
		return nil, err
	}
	return lintutil.Run(pkgs, All()), nil
}

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string            // file holding the compiled package's export data
	ForTest    string            // set on the variants built for that package's test binary
	ImportMap  map[string]string // source import path -> ImportPath, where a test variant replaces a package
	DepOnly    bool              // listed as a dependency, not because a pattern names it
}

// load parses and type-checks what go vet analyses for the patterns: every
// package once — together with its in-package test files where it has any —
// and its external test package, under the build constraints of a plain
// build. One `go list -export -deps -test` compiles whatever the build cache
// lacks and names each package's export data; imports are read from there,
// so loading needs the go command and the module's sources, nothing else.
func load(dir string, overlay map[string][]byte, patterns []string) ([]*lintutil.Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-test",
		"-json=ImportPath,Dir,GoFiles,Export,ForTest,ImportMap,DepOnly"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var listed []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding its output: %w", err)
		}
		listed = append(listed, p)
		exports[p.ImportPath] = p.Export
	}

	fset := token.NewFileSet()
	var pkgs []*lintutil.Package
	for _, p := range listed {
		// Test variants are listed as "path [for.test]".
		path, _, variant := strings.Cut(p.ImportPath, " [")
		switch {
		case p.DepOnly:
			continue
		case variant && path != p.ForTest && path != p.ForTest+"_test":
			continue // a dependency rebuilt against the package under test
		case !variant && strings.HasSuffix(path, ".test"):
			continue // the generated test main
		case !variant && exports[path+" ["+path+".test]"] != "":
			continue // analysed together with its in-package tests instead
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			abs := filepath.Join(p.Dir, name)
			src, ok := overlay[abs]
			if !ok {
				if src, err = os.ReadFile(abs); err != nil {
					return nil, err
				}
			}
			shown := abs
			if rel, err := filepath.Rel(dir, abs); err == nil && filepath.IsLocal(rel) {
				shown = rel
			}
			f, err := parser.ParseFile(fset, shown, src, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		// A fresh importer for every package: a package and the variant of
		// it built for a test share a path and must not share an import map.
		gc := importer.ForCompiler(fset, "gc", func(id string) (io.ReadCloser, error) {
			if exports[id] == "" {
				return nil, fmt.Errorf("go list named no export data for %s", id)
			}
			return os.Open(exports[id])
		})
		pkg, err := lintutil.Check(fset, path, files, lintutil.ImporterFunc(func(path string) (*types.Package, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			return gc.Import(path)
		}))
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
