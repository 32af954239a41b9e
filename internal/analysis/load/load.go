// Package load type-checks Go packages for the apollo-vet analyzers using
// only the standard library: it shells out to `go list -deps -json` for
// package discovery and build-constraint resolution, then parses and
// type-checks every package in the dependency closure from source —
// standard library included — in topological order. This trades a couple of
// seconds of CPU for zero dependencies: the usual driver stack
// (golang.org/x/tools/go/packages + export data) is unavailable here by the
// no-new-modules constraint, and the repo's entire closure (~200 packages)
// source-checks in under 3s.
//
// `go list -test` also yields each package's test-augmented variant (import
// path "pkg [pkg.test]" with _test.go files merged into GoFiles) and
// external _test packages; the loader analyzes the augmented variant
// instead of the plain one so analyzers see test files too, while
// dependents keep resolving the plain package. Synthesized ".test" main
// packages (generated _testmain.go) are skipped.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// PkgPath is the canonical import path: test-augmented variants carry
	// the path of the package under test, not the bracketed go list form.
	PkgPath string
	Dir     string
	// Target marks packages named by the load patterns (the ones analyzers
	// should inspect), as opposed to dependencies.
	Target bool
	// TestVariant marks a package whose file set includes _test.go files.
	TestVariant bool
	Files       []*ast.File
	Types       *types.Package
	Info        *types.Info
}

// Result is one load: a shared FileSet plus every package in the closure,
// dependency-ordered. Targets returns the analysis subset.
type Result struct {
	Fset     *token.FileSet
	Packages []*Package
}

// Targets returns the packages analyzers should run over: pattern-named,
// in dependency order, with test-augmented variants replacing their plain
// counterparts when present.
func (r *Result) Targets() []*Package {
	shadowed := map[string]bool{}
	for _, p := range r.Packages {
		if p.TestVariant && p.Target {
			shadowed[p.PkgPath] = true
		}
	}
	var out []*Package
	for _, p := range r.Packages {
		if !p.Target {
			continue
		}
		if !p.TestVariant && shadowed[p.PkgPath] {
			continue // the augmented variant supersedes it
		}
		out = append(out, p)
	}
	return out
}

// Config controls a load.
type Config struct {
	// Dir is the working directory for go list (module root or below);
	// empty means the current directory.
	Dir string
}

// listPkg mirrors the go list -json fields we consume.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists patterns and type-checks the full dependency closure from
// source. Hard errors (go list failure, unparseable target) abort; type
// errors inside dependencies are soft.
func Load(cfg Config, patterns ...string) (*Result, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(cfg, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	cache := map[string]*types.Package{"unsafe": types.Unsafe}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	res := &Result{Fset: fset}

	for _, lp := range pkgs {
		if lp.ImportPath == "unsafe" || strings.HasSuffix(lp.ImportPath, ".test") {
			// unsafe is predeclared; ".test" mains are generated
			// _testmain.go stubs living in the build cache.
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s uses cgo; run with CGO_ENABLED=0", lp.ImportPath)
		}

		var files []*ast.File
		for _, name := range lp.GoFiles {
			path := name
			if !filepath.IsAbs(path) {
				path = filepath.Join(lp.Dir, name)
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("load: %w", err)
			}
			files = append(files, f)
		}

		pkg := &Package{
			PkgPath:     lp.ImportPath,
			Dir:         lp.Dir,
			Target:      !lp.DepOnly && !lp.Standard,
			TestVariant: lp.ForTest != "",
		}
		if lp.ForTest != "" {
			pkg.PkgPath = lp.ForTest
		}

		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{
			Importer: &mapImporter{cache: cache, importMap: lp.ImportMap},
			Sizes:    sizes,
			// A dependency's type errors are soft: analysis proceeds on what
			// was resolved.
			Error: func(error) {},
		}
		tpkg, err := conf.Check(pkg.PkgPath, fset, files, info)
		if err != nil && pkg.Target {
			return nil, fmt.Errorf("load: type-check %s: %w", lp.ImportPath, err)
		}
		pkg.Files = files
		pkg.Types = tpkg
		pkg.Info = info
		if tpkg != nil {
			cache[lp.ImportPath] = tpkg
		}
		res.Packages = append(res.Packages, pkg)
	}
	return res, nil
}

// goList runs go list and decodes its JSON stream. -deps guarantees
// dependencies precede dependents, which is what lets one linear pass
// type-check the closure.
func goList(cfg Config, patterns []string) ([]*listPkg, error) {
	args := append([]string{
		"list", "-deps", "-test",
		"-json=Dir,ImportPath,Standard,DepOnly,ForTest,GoFiles,CgoFiles,ImportMap,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	// Type-checking from source cannot expand cgo, and the repo is pure Go.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list: %w\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decode go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// mapImporter resolves imports from the already-checked cache, honoring the
// per-package ImportMap (vendored std paths, test variants).
type mapImporter struct {
	cache     map[string]*types.Package
	importMap map[string]string
}

func (m *mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if p, ok := m.cache[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %q not yet loaded (go list order violated?)", path)
}
