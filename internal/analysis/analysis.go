// Package analysis is a self-contained, stdlib-only static-analysis
// framework modeled on golang.org/x/tools/go/analysis, scoped to what the
// apollo contract linters need: an Analyzer is a named Run function over a
// type-checked package (a Pass), reporting Diagnostics at token positions.
//
// The repo's load-bearing invariants are defended by convention and parity
// tests; the analyzers in the sibling packages (mapiter, floateq, obsguard,
// closecheck, seams) turn them into compile-time checks:
//
//   - numeric bit-parity: `-replicas N -zero` ≡ `-replicas 1`
//     float-for-float, served == offline char-for-char (mapiter, floateq)
//   - the obs nil-handle cost contract: nil registry → nil handles → one
//     predictable branch per event when disabled (obsguard)
//   - the crash-honest ledger: every exit path recorded, every writer
//     flushed, no silently dropped Close/Flush errors (closecheck)
//   - the design's seams: one memory price, randomness keyed by parameter,
//     one walk, one scoring rule, one checkpoint codec, one method
//     catalogue — each a row of the seams table, naming the one place a
//     use or declaration may stand (seams)
//
// vet.Suite is every analyzer; the root package's TestModuleVets runs it
// over the module in `go test ./...`, and cmd/apollo-vet runs it from the
// command line.
//
// Suppression is explicit and justified: a finding of the first four is
// silenced only by an `//apollo:<directive> <justification>` comment on the
// offending line (or the line above, or the enclosing declaration's doc
// comment). A directive with an empty justification is itself a diagnostic
// — the point is a reviewable paper trail, not a mute button. seams has no
// directive: its allow lists live in its rows.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed sources (comments retained).
	Files []*ast.File
	// PkgPath is the canonical import path: for a test-augmented package
	// variant this is the path of the package under test, without the
	// go list "[pkg.test]" decoration.
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info

	report     func(Diagnostic)
	directives map[string][]directive // filename → line-sorted directives
}

// NewPass assembles a pass; the driver and the analysistest harness both
// build passes through here so directive indexing stays consistent.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkgPath string,
	pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	p := &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		PkgPath:  pkgPath,
		Pkg:      pkg,
		Info:     info,
		report:   report,
	}
	p.indexDirectives()
	return p
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //apollo:<name> comment.
type directive struct {
	line   int
	name   string
	reason string
}

// DirectivePrefix introduces every suppression comment.
const DirectivePrefix = "//apollo:"

// parseDirective decodes one comment; ok is false for ordinary comments.
func parseDirective(c *ast.Comment) (name, reason string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, DirectivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, DirectivePrefix)
	name, reason, _ = strings.Cut(rest, " ")
	if name == "" {
		return "", "", false
	}
	return name, strings.TrimSpace(reason), true
}

func (p *Pass) indexDirectives() {
	p.directives = map[string][]directive{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				p.directives[pos.Filename] = append(p.directives[pos.Filename],
					directive{line: pos.Line, name: name, reason: reason})
			}
		}
	}
	for _, ds := range p.directives {
		sort.Slice(ds, func(i, j int) bool { return ds[i].line < ds[j].line })
	}
}

// Directive looks for an //apollo:<name> comment attached to the statement
// at pos: on the same line or on the line immediately above. It returns the
// justification text and whether the directive was found at all — a found
// directive with an empty reason is the caller's cue to demand one.
func (p *Pass) Directive(pos token.Pos, name string) (reason string, found bool) {
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.name != name {
			continue
		}
		if d.line == position.Line || d.line == position.Line-1 {
			return d.reason, true
		}
	}
	return "", false
}

// DocDirective looks for the directive inside a declaration's doc comment.
func (p *Pass) DocDirective(doc *ast.CommentGroup, name string) (reason string, found bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		n, r, ok := parseDirective(c)
		if ok && n == name {
			return r, true
		}
	}
	return "", false
}

// Suppressed resolves the standard three-way outcome for a finding at pos
// governed by //apollo:<name>: directive present with a justification →
// suppressed; present without one → a "missing justification" diagnostic;
// absent → not suppressed. docs, when non-nil, are also searched (for
// declaration-level directives).
func (p *Pass) Suppressed(pos token.Pos, name string, docs ...*ast.CommentGroup) bool {
	reason, found := p.Directive(pos, name)
	if !found {
		for _, doc := range docs {
			if reason, found = p.DocDirective(doc, name); found {
				break
			}
		}
	}
	if !found {
		return false
	}
	if reason == "" {
		p.Reportf(pos, "%s%s requires a justification: write %s%s <why this is safe>",
			DirectivePrefix, name, DirectivePrefix, name)
		return true // the bare directive diagnostic replaces the original finding
	}
	return true
}

// MatchPath reports whether an import path matches any pattern. Patterns
// are exact import paths, or a prefix ending in "/..." matching the prefix
// itself and everything below it.
func MatchPath(path string, patterns []string) bool {
	for _, pat := range patterns {
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
			continue
		}
		if path == pat {
			return true
		}
	}
	return false
}

// IsTestFile reports whether the file at pos is a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeOf is Info.TypeOf with a nil guard for robustness on partially
// checked code.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}
