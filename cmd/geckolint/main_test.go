package main

import (
	"bytes"
	"path/filepath"
	"strconv"
	"testing"

	//geckolint:ignore apiboundary the linter command carries its own analyzers
	"geckoftl/internal/analysis"
)

// TestEmit pins the two output formats: the JSON schema CI's jq annotation
// step reads (field names and order, absolute file names, [] for a clean
// run) and the text lines.
func TestEmit(t *testing.T) {
	findings := []analysis.Finding{
		{File: "internal/ftl/gc.go", Line: 33, Col: 7, Analyzer: "maporder", Message: "map iteration order leaks"},
	}
	abs, err := filepath.Abs("internal/ftl/gc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		findings []analysis.Finding
		asJSON   bool
		want     string
	}{
		{"text", findings, false, "internal/ftl/gc.go:33:7: maporder: map iteration order leaks\n"},
		{"json", findings, true, "[\n  {\n    \"file\": " + strconv.Quote(abs) + ",\n    \"line\": 33,\n    \"col\": 7,\n    \"analyzer\": \"maporder\",\n    \"message\": \"map iteration order leaks\"\n  }\n]\n"},
		{"text clean", nil, false, ""},
		{"json clean", nil, true, "[]\n"},
	} {
		var buf bytes.Buffer
		if err := emit(&buf, tc.findings, tc.asJSON); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := buf.String(); got != tc.want {
			t.Errorf("%s: got\n%s\nwant\n%s", tc.name, got, tc.want)
		}
	}
}
