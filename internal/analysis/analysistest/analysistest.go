// Package analysistest runs analyzers over fixture modules and checks their
// diagnostics against expectations written in the fixtures themselves, in
// the style of golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `range over map`
//
// A want comment, `// want` followed by one or more backquoted regexps,
// expects exactly the listed diagnostics on its own line, each matching
// its (unanchored) regexp. Lines without a want comment expect no
// diagnostics.
//
// Fixtures are miniature modules under testdata/<analyzer>/ with their own
// `go.mod` declaring `module apollo`, so the analyzers' scopes — which key
// on apollo/... import paths — apply to fixture code verbatim.
// The testdata/ location keeps them invisible to the repo's own `./...`
// patterns (build, test, vet and apollo-vet itself all skip testdata).
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"apollo/internal/analysis"
	"apollo/internal/analysis/load"
	"apollo/internal/analysis/vet"
)

// expectation is one want entry: a compiled pattern at a file:line.
type expectation struct {
	file    string // absolute path
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRE captures the expectation list after a want marker.
var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// Run loads the fixture module rooted at dir (relative paths resolve against
// the test's working directory), applies the analyzers to every package in
// it, and fails t on any mismatch between reported diagnostics and the
// fixtures' want comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	wants, err := parseWants(abs)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	diags, err := vet.Run(load.Config{Dir: abs}, analyzers, "./...")
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", dir, err)
	}

	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic:\n  %s", d.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched expectation satisfied by d.
func claim(wants []*expectation, d analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.line != d.Line || w.file != d.File {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants scans every fixture .go file for want comments.
func parseWants(root string) ([]*expectation, error) {
	var wants []*expectation
	err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(blob), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pats, err := splitPatterns(m[1])
			if err != nil {
				return fmt.Errorf("%s:%d: %w", path, i+1, err)
			}
			for _, p := range pats {
				re, err := regexp.Compile(p)
				if err != nil {
					return fmt.Errorf("%s:%d: want pattern %q: %w", path, i+1, p, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re, raw: p})
			}
		}
		return nil
	})
	return wants, err
}

// splitPatterns decodes the sequence of backquoted strings after
// `// want`.
func splitPatterns(s string) ([]string, error) {
	var out []string
	rest := strings.TrimSpace(s)
	for rest != "" {
		if rest[0] != '`' {
			return nil, fmt.Errorf("want expects backquoted patterns, found %q", rest)
		}
		end := strings.IndexByte(rest[1:], '`')
		if end < 0 {
			return nil, fmt.Errorf("unterminated want pattern")
		}
		out = append(out, rest[1:end+1])
		rest = strings.TrimSpace(rest[end+2:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want with no patterns")
	}
	return out, nil
}
