// Package mapiter flags `range` over maps in determinism-critical
// packages. Go map iteration order is deliberately randomized, so a map
// range anywhere on a path whose results reach bytes on disk, the wire, or
// floating-point accumulation order is the classic silent bit-parity
// killer: state gather/save, projector-seed walks and all-reduce layouts
// must traverse in a sorted or index-derived order.
//
// Allowed without annotation:
//
//   - `for range m` / `for k := range m { keys = append(keys, k) }` — the
//     canonical collect-then-sort idiom; collecting keys is order-free
//     because the caller sorts before use (the analyzer cannot see the
//     sort, but the collect loop itself cannot leak order into anything
//     but the slice).
//   - map ranges in _test.go files: assertions are order-insensitive by
//     construction, and the parity tests are the runtime backstop.
//
// Every other map range needs `//apollo:orderfree <justification>` on the
// statement (or the line above) explaining why iteration order cannot
// reach observable bytes — e.g. an exact integer sum, or writes into
// another map.
package mapiter

import (
	"go/ast"
	"go/types"

	"apollo/internal/analysis"
)

// packages are the determinism-critical import paths: the ones where
// iteration order can reach checkpoint bytes, the DP wire format, or float
// accumulation order.
var packages = []string{
	"apollo/internal/optim",
	"apollo/internal/zero",
	"apollo/internal/ckpt",
	"apollo/internal/train",
	"apollo/internal/tensor",
	"apollo/internal/linalg",
}

// Directive is the suppression annotation name.
const Directive = "orderfree"

// Analyzer is the mapiter check.
var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc: "flags range over maps in determinism-critical packages: iteration order is " +
		"randomized and silently breaks the bit-parity contract on state gather/save paths",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.MatchPath(pass.PkgPath, packages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if pass.IsTestFile(rs.Pos()) {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderCannotEscape(rs, pass) {
				return true
			}
			if pass.Suppressed(rs.Pos(), Directive) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map %s in determinism-critical package %s: iteration order is randomized; "+
					"iterate sorted keys (collect, sort.Strings/Slice, then index) or annotate //apollo:%s <justification>",
				types.ExprString(rs.X), pass.PkgPath, Directive)
			return true
		})
	}
	return nil
}

// orderCannotEscape recognizes the loop shapes whose observable effect is
// independent of iteration order without needing an annotation.
func orderCannotEscape(rs *ast.RangeStmt, pass *analysis.Pass) bool {
	// `for range m` binds nothing: order cannot be observed at all.
	if rs.Key == nil && rs.Value == nil {
		return true
	}
	// The collect-keys idiom: exactly `keys = append(keys, k)`, the
	// pre-sort half of collect-then-sort.
	if rs.Value != nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok.String() != "=" || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if obj, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin || obj.Name() != "append" {
		return false
	}
	// append's destination must be the assignment target...
	dst, ok := asg.Lhs[0].(*ast.Ident)
	arg0, ok2 := call.Args[0].(*ast.Ident)
	if !ok || !ok2 || pass.Info.Uses[arg0] == nil ||
		pass.Info.ObjectOf(dst) != pass.Info.Uses[arg0] {
		return false
	}
	// ...and the appended element must be the range key itself.
	arg1, ok := call.Args[1].(*ast.Ident)
	return ok && pass.Info.Uses[arg1] == pass.Info.ObjectOf(key)
}
