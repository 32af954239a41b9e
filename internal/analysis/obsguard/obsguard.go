// Package obsguard structurally pins the obs nil-handle cost contract:
// a nil *Registry hands out nil handles, and every operation on a nil
// handle must cost exactly one predictable branch. That only holds if
// every exported pointer-receiver method on a handle type starts with a
// nil-receiver guard — one stray method without it turns "observability
// disabled" into a panic at the first hot-path event.
//
// The accepted guard shapes, as the first statement of the method body:
//
//	if h == nil { ... return ... }        // early return (any results)
//	return h != nil && <rest>             // single-expression predicates
//	return h == nil || <rest>
//
// Methods that intentionally break the contract (none today) carry
// `//apollo:noguard <justification>`.
package obsguard

import (
	"go/ast"
	"go/token"

	"apollo/internal/analysis"
)

// handleTypes maps package import paths to every nil-safe handle type the
// obs layer hands out: the types whose exported pointer-receiver methods
// must guard.
var handleTypes = map[string][]string{
	"apollo/internal/obs": {
		"Registry", "Counter", "Gauge", "Histogram", "HistogramWindow",
		"Tracer", "Span", "JSONLWriter", "TrainRecorder",
	},
	"apollo/internal/obs/runlog":  {"Run", "Watchdog"},
	"apollo/internal/obs/memprof": {"Profiler"},
}

// Directive is the suppression annotation name.
const Directive = "noguard"

// Analyzer is the obsguard check.
var Analyzer = &analysis.Analyzer{
	Name: "obsguard",
	Doc: "verifies every exported pointer-receiver method on obs handle types begins with a " +
		"nil-receiver guard, pinning the nil-registry → nil-handles → one-branch cost contract",
	Run: run,
}

func run(pass *analysis.Pass) error {
	typeNames := handleTypes[pass.PkgPath]
	if len(typeNames) == 0 {
		return nil
	}
	guarded := map[string]bool{}
	for _, n := range typeNames {
		guarded[n] = true
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			if pass.IsTestFile(fd.Pos()) {
				continue // in-package test helpers are not part of the handle API
			}
			recvName, typeName, isPtr := receiver(fd)
			if !isPtr || !guarded[typeName] {
				continue
			}
			if hasNilGuard(fd, recvName) {
				continue
			}
			if pass.Suppressed(fd.Pos(), Directive, fd.Doc) {
				continue
			}
			pass.Reportf(fd.Name.Pos(),
				"exported method (*%s).%s lacks a leading nil-receiver guard: the obs cost contract "+
					"requires `if %s == nil { return ... }` as the first statement (or //apollo:%s <justification>)",
				typeName, fd.Name.Name, recvNameOr(recvName, "recv"), Directive)
		}
	}
	return nil
}

func recvNameOr(name, fallback string) string {
	if name == "" {
		return fallback
	}
	return name
}

// receiver extracts the receiver identifier and named type of a method.
func receiver(fd *ast.FuncDecl) (recvName, typeName string, isPtr bool) {
	if len(fd.Recv.List) != 1 {
		return "", "", false
	}
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		isPtr = true
		t = star.X
	}
	// Strip generic instantiations (Type[T]).
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typeName = id.Name
	}
	return recvName, typeName, isPtr
}

// hasNilGuard reports whether the method's first statement is one of the
// accepted nil-receiver guard shapes.
func hasNilGuard(fd *ast.FuncDecl, recvName string) bool {
	// An unnamed (or blank) receiver cannot be dereferenced by the body,
	// so the nil case is trivially safe for any body that compiles without
	// touching it; still require a named receiver for guarded types to
	// keep the contract greppable — except for empty bodies.
	if recvName == "" || recvName == "_" {
		return len(fd.Body.List) == 0
	}
	if len(fd.Body.List) == 0 {
		return true // nothing to guard
	}
	switch first := fd.Body.List[0].(type) {
	case *ast.IfStmt:
		// if recv == nil { ...; return ... } — possibly widened with
		// further disjuncts (`if recv == nil || other { return }`), which
		// short-circuit left-to-right and keep the nil case first.
		if first.Init != nil || !hasNilDisjunct(first.Cond, recvName) {
			return false
		}
		if n := len(first.Body.List); n > 0 {
			_, isReturn := first.Body.List[n-1].(*ast.ReturnStmt)
			return isReturn
		}
		return false
	case *ast.ReturnStmt:
		// return recv != nil && ... / return recv == nil || ...
		for _, res := range first.Results {
			if exprContainsNilCheck(res, recvName) {
				return true
			}
		}
		return false
	}
	return false
}

// hasNilDisjunct reports whether cond is `recv == nil` or an || chain
// containing it as a disjunct.
func hasNilDisjunct(cond ast.Expr, recvName string) bool {
	if isNilCheck(cond, recvName, token.EQL) {
		return true
	}
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.LOR {
		return false
	}
	return hasNilDisjunct(be.X, recvName) || hasNilDisjunct(be.Y, recvName)
}

// isNilCheck matches `name <op> nil` (either operand order).
func isNilCheck(e ast.Expr, name string, op token.Token) bool {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || be.Op != op {
		return false
	}
	return (isIdent(be.X, name) && isIdent(be.Y, "nil")) ||
		(isIdent(be.Y, name) && isIdent(be.X, "nil"))
}

func exprContainsNilCheck(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			if isNilCheck(be, name, token.EQL) || isNilCheck(be, name, token.NEQ) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
