// Package closecheck flags discarded error results from Close, Flush,
// Sync and Finalize calls in the packages that own the crash-honest
// writers: the run ledger, checkpoint files and telemetry streams promise
// that every exit path is recorded and every writer flushed, and that
// promise dies silently the first time a Close error is dropped — the
// bytes never hit the disk and nothing ever says so.
//
// A call is flagged when every result is discarded: a bare expression
// statement, a defer/go statement, or an assignment with only blank
// targets (`_ = f.Close()` drops the crash-honest evidence just as
// thoroughly as not assigning it).
//
// The fix is to check the error — or, for emitters with no caller in a
// position to act (mirroring obs.JSONLWriter.Emit), to route it into
// obs.CountWriteError so apollo_obs_write_errors_total accounts for it.
// Genuinely inconsequential discards (closing a file opened read-only
// after a successful read) carry `//apollo:allowdiscard <justification>`.
//
// _test.go files are exempt: tests close fixtures constantly and a leaked
// test-file close error fails no contract.
package closecheck

import (
	"go/ast"
	"go/types"

	"apollo/internal/analysis"
)

// packages are the import paths owning crash-honest writers: the
// ledger/checkpoint/telemetry writer packages and the CLIs that open their
// output files.
var packages = []string{
	"apollo/internal/obs",
	"apollo/internal/obs/runlog",
	"apollo/internal/obs/memprof",
	"apollo/internal/ckpt",
	"apollo/internal/serve",
	"apollo/internal/bench",
	"apollo/cmd/...",
}

// methods are the error-returning cleanup methods tracked.
var methods = map[string]bool{"Close": true, "Flush": true, "Sync": true, "Finalize": true}

// Directive is the suppression annotation name.
const Directive = "allowdiscard"

// Analyzer is the closecheck check.
var Analyzer = &analysis.Analyzer{
	Name: "closecheck",
	Doc: "flags discarded errors from Close/Flush/Sync/Finalize on ledger, checkpoint and " +
		"telemetry writers: the crash-honest contract requires every writer flush to be checked or accounted",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.MatchPath(pass.PkgPath, packages) {
		return nil
	}
	check := func(call *ast.CallExpr, how string) {
		name, ok := cleanupMethod(pass, call)
		if !ok {
			return
		}
		if pass.IsTestFile(call.Pos()) {
			return
		}
		if pass.Suppressed(call.Pos(), Directive) {
			return
		}
		pass.Reportf(call.Pos(),
			"%s error discarded (%s): the crash-honest contract requires checking writer cleanup errors "+
				"— handle it, route it into obs.CountWriteError, or annotate //apollo:%s <justification>",
			name, how, Directive)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(call, "result ignored")
				}
			case *ast.DeferStmt:
				check(st.Call, "deferred without error handling")
			case *ast.GoStmt:
				check(st.Call, "goroutine result unobservable")
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 || !allBlank(st.Lhs) {
					return true
				}
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
					check(call, "assigned to blank")
				}
			}
			return true
		})
	}
	return nil
}

// cleanupMethod reports whether call is `recv.M(...)` for a tracked method
// M whose signature returns exactly one error.
func cleanupMethod(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !methods[sel.Sel.Name] {
		return "", false
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return "", false
	}
	if pass.Info.Selections[sel] == nil {
		// Package-qualified function calls (pkg.Close(...)) are out of
		// scope; only method calls carry the writer contract.
		return "", false
	}
	if sig.Results().Len() != 1 ||
		!types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type()) {
		return "", false
	}
	return types.ExprString(sel.X) + "." + sel.Sel.Name, true
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
