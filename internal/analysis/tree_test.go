package analysis_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"geckoftl/internal/analysis"
)

// moduleRoot is where `./...` means the whole module, seen from this package.
const moduleRoot = "../.."

// TestTreeIsClean is the lint CI job inside tier-1: the whole module, tests
// included, through all seven rules, with no finding and no stale waiver.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	// go test caches a pass until a file or directory this process opened
	// changes. The loader reads every source file it lints, but go list finds
	// them in a child process, so list the directories here too: otherwise a
	// file added to another package would be met with a cached pass.
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != moduleRoot && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := analysis.Lint(moduleRoot, nil, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
}

// seeded is the referee's ledger: per rule, one regression written into a
// real file of this module, in memory, each undoing a guard the tree has.
// docs/analysis.md carries the same ledger.
var seeded = []struct {
	rule     string
	file     string
	old, new string // old, found exactly once, is replaced by new
	at       string // text of the line the rule must report
}{
	{
		rule: "apiboundary", file: "examples/quickstart/main.go",
		old: "\t\"geckoftl\"\n",
		new: "\t\"geckoftl\"\n\t_ \"geckoftl/internal/flash\"\n",
		at:  `_ "geckoftl/internal/flash"`,
	},
	{
		// Engine.runBucket, the one loop behind every batch, stops checking
		// ctx between a shard's operations.
		rule: "ctxcheck", file: "internal/ftl/engine.go",
		old: "\t\tif ctx != nil {\n\t\t\tif err := ctx.Err(); err != nil {\n\t\t\t\treturn err\n\t\t\t}\n\t\t}\n",
		at:  "for _, lpn := range pages {",
	},
	{
		rule: "detrand", file: "internal/workload/workload.go",
		old: "flash.LPN(u.rng.Int63n(int64(u.pages)))",
		new: "flash.LPN(rand.Int63n(int64(u.pages)))",
		at:  "rand.Int63n(int64(u.pages))",
	},
	{
		rule: "errwrap", file: "device.go",
		old: "\treturn wrapErr(d.eng.Write(lpn))\n",
		new: "\treturn d.eng.Write(lpn)\n",
		at:  "return d.eng.Write(lpn)",
	},
	{
		// Engine.Flush forgets to unlock the shard.
		rule: "lockdiscipline", file: "internal/ftl/engine.go",
		old: "\t\terr := sh.ftl.Flush()\n\t\tsh.mu.Unlock()\n",
		new: "\t\terr := sh.ftl.Flush()\n",
		at:  "sh.mu.Lock()\n\t\terr := sh.ftl.Flush()",
	},
	{
		// Engine.RAMBytes takes powerMu under a shard's lock; PowerFail and
		// the checkpoint code take them the other way round.
		rule: "lockorder", file: "internal/ftl/engine.go",
		old: "\t\ttotal += sh.ftl.RAMBytes()\n",
		new: "\t\te.powerMu.Lock()\n\t\ttotal += sh.ftl.RAMBytes()\n\t\te.powerMu.Unlock()\n",
		at:  "e.powerMu.Lock()\n\t\ttotal += sh.ftl.RAMBytes()",
	},
	{
		// Gecko's directory recovery keeps its candidate runs in map order,
		// so createSeq ties resolve differently from one recovery to the next.
		rule: "maporder", file: "internal/gecko/recover.go",
		old: "\tslices.SortFunc(candidates, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })\n",
		at:  "candidates = append(candidates, candidate{id: id, createSeq: metas[0].writeSeq, pages: metas})",
	},
}

// TestSeededRegressions is the referee ROADMAP item 6 asks for: every rule
// must fire, and no other rule with it, when the regression it exists for is
// written into the real tree.
func TestSeededRegressions(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks a package per rule")
	}
	var rules []string
	for _, a := range analysis.All() {
		rules = append(rules, a.Name)
	}
	for i, s := range seeded {
		if i >= len(rules) || s.rule != rules[i] {
			t.Fatalf("seeded regressions must follow the registry, one per rule: entry %d is %s, registry %v", i, s.rule, rules)
		}
		t.Run(s.rule, func(t *testing.T) {
			path, err := filepath.Abs(filepath.Join(moduleRoot, s.file))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(b)
			if strings.Count(src, s.old) != 1 {
				t.Fatalf("%s no longer contains exactly once the code this regression undoes:\n%s", s.file, s.old)
			}
			src = strings.Replace(src, s.old, s.new, 1)
			// The finding belongs on the line where s.at starts.
			wantLine := 1 + strings.Count(src[:strings.Index(src, s.at)], "\n")

			findings, err := analysis.Lint(moduleRoot, map[string][]byte{path: []byte(src)}, "./"+filepath.Dir(s.file))
			if err != nil {
				t.Fatal(err)
			}
			hit := false
			for _, f := range findings {
				if f.Analyzer != s.rule || f.File != filepath.FromSlash(s.file) {
					t.Errorf("unrelated finding %s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
				}
				hit = hit || f.Line == wantLine
			}
			if !hit {
				t.Errorf("%s did not fire on line %d of the mutated %s; findings: %+v", s.rule, wantLine, s.file, findings)
			}
		})
	}
	if len(seeded) != len(rules) {
		t.Errorf("%d seeded regressions for %d rules", len(seeded), len(rules))
	}
}
