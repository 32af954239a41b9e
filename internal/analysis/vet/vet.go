// Package vet is the multichecker core shared by cmd/apollo-vet, the root
// package's TestModuleVets and the analysistest harness: it loads packages
// once, runs the analyzers over each analysis target, and returns
// position-sorted diagnostics.
package vet

import (
	"sort"

	"apollo/internal/analysis"
	"apollo/internal/analysis/closecheck"
	"apollo/internal/analysis/floateq"
	"apollo/internal/analysis/load"
	"apollo/internal/analysis/mapiter"
	"apollo/internal/analysis/obsguard"
	"apollo/internal/analysis/seams"
)

// Suite lists every contract analyzer in stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mapiter.Analyzer,
		floateq.Analyzer,
		obsguard.Analyzer,
		closecheck.Analyzer,
		seams.Analyzer,
	}
}

// Run loads patterns under cfg and applies the analyzers to every target
// package. Diagnostics come back sorted by file, line, column, analyzer —
// deterministic across runs.
func Run(cfg load.Config, analyzers []*analysis.Analyzer, patterns ...string) ([]analysis.Diagnostic, error) {
	res, err := load.Load(cfg, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []analysis.Diagnostic
	seen := map[analysis.Diagnostic]bool{}
	report := func(d analysis.Diagnostic) {
		if !seen[d] { // test variants re-check non-test files; dedupe
			seen[d] = true
			diags = append(diags, d)
		}
	}
	for _, pkg := range res.Targets() {
		for _, a := range analyzers {
			pass := analysis.NewPass(a, res.Fset, pkg.Files, pkg.PkgPath, pkg.Types, pkg.Info, report)
			if err := a.Run(pass); err != nil {
				report(analysis.Diagnostic{
					Analyzer: a.Name,
					File:     pkg.Dir,
					Message:  "analyzer failed: " + err.Error(),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
