// Package floateq flags `==` and `!=` between floating-point operands.
// Almost every float equality in numeric code is a latent bug — a value
// that arrives via a different (but mathematically equal) operation order
// compares unequal — and the few places where bitwise equality IS the
// point (parity checks, CRC-covered decode verification, bucket-layout
// identity) must say so out loud.
//
// Exempt without annotation: _test.go files — the parity suites compare
// floats for exact equality by design, it is their entire job.
//
// Everything else needs `//apollo:exactfloat <justification>` on the
// comparison (or the line above, or in the enclosing function's doc
// comment to exempt a whole explicitly-exact helper).
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"

	"apollo/internal/analysis"
)

// Directive is the suppression annotation name.
const Directive = "exactfloat"

// Analyzer is the floateq check; it covers every analyzed package.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc: "flags ==/!= on floating-point operands outside _test.go: exact float equality is " +
		"either a bug or a parity check, and parity checks must be annotated as exact on purpose",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			// The enclosing declaration's doc comment can carry the
			// directive to exempt a whole explicitly-exact helper.
			var doc *ast.CommentGroup
			if fd, ok := decl.(*ast.FuncDecl); ok {
				doc = fd.Doc
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloat(pass.TypeOf(be.X)) && !isFloat(pass.TypeOf(be.Y)) {
					return true
				}
				if pass.IsTestFile(be.Pos()) {
					return true
				}
				if pass.Suppressed(be.OpPos, Directive, doc) {
					return true
				}
				pass.Reportf(be.OpPos,
					"float %s comparison: exact float equality breaks under reassociation; "+
						"compare with a tolerance, or annotate //apollo:%s <justification> if bitwise equality is the point",
					be.Op, Directive)
				return true
			})
		}
	}
	return nil
}

// isFloat reports whether t's underlying type is a float or complex kind
// (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}
