// Package seams is the table of the design's seams: decisions that live in
// one place — one method catalogue (bench.Methods), one list walk
// (optim.Base.Walk), randomness keyed by parameter (tensor.Mix), one
// gradient arena, one scoring rule (internal/eval), one checkpoint codec
// and writer, one memory price (memmodel.LiveStateBytes). A second copy of
// any of them compiles and passes the parity tests it was written against,
// then drifts; each row names what such a copy looks like and where the one
// copy lives. A row has no suppression directive: a use that stands on
// purpose has its package or file in the row's allow list.
package seams

import (
	"go/ast"
	"go/constant"
	"go/types"
	"path"
	"path/filepath"
	"regexp"
	"strings"

	"apollo/internal/analysis"
)

// row is one seam. A row forbids uses, declarations or cases.
type row struct {
	// uses are objects resolved through types.Info ("pkgpath.Name", or
	// "pkgpath.Type.Member" for a field or method), so an alias import or a
	// method value is the same object and another type's method of the same
	// name is not. A trailing "{}" forbids only composite literals of the
	// type. Uses are not checked in _test.go files.
	uses []string
	// declares are path.Match globs over the names of package-level objects,
	// fields and methods (a method also as Recv.Method), test files
	// included; a type alias declares no new type.
	declares []string
	// cases matches a switch case's constant string value, a named const's
	// as well as a literal's, outside _test.go files.
	cases *regexp.Regexp
	// in are where the row applies (every package when empty), allow where
	// its objects may stand: import paths (exact, or a prefix ending in
	// "/...") or files, written as the package path plus the file name.
	in, allow []string
	message   string // what was found and what to do instead
	why       string // the seam the row protects
}

var (
	optimCore  = []string{"apollo/internal/optim/...", "apollo/internal/core/..."}
	inMemmodel = []string{"apollo/internal/memmodel"}
)

var rows = []row{
	// One method catalogue.
	{cases: regexp.MustCompile(`^(AdamW|SGD|Adam-mini|8-bit|Low-Rank|LoRA|ReLoRA|DoRA|GaLore|Fira|Flora|APOLLO|Q-|Structured)`),
		in:      []string{"apollo/internal/bench", "apollo/cmd/...", "apollo/examples/..."},
		message: "a method is named in a switch outside the catalogue",
		why:     "a method is a row of bench.Methods(); a case on its name is a second description its recipe, rank policy or memmodel link can drift from"},
	{declares: []string{"MethodByName"}, allow: []string{"apollo/internal/bench"},
		message: "a by-name method lookup outside the catalogue: use bench.MethodByName",
		why:     "a second MethodByName is a second list of names that knows fewer rows than the catalogue"},

	// Checkpointable by type; apollo-serve counts once; one list walk.
	{uses: []string{"apollo/internal/optim.StateSaver", "apollo/internal/optim.StateLoader"},
		allow:   []string{"apollo/internal/optim/optimizer.go"},
		message: "run-time StateSaver/StateLoader assertion: Optimizer is checkpointable by type",
		why:     "optim.Optimizer embeds StateSaver and StateLoader, so asserting either re-opens a failure branch no member can reach"},
	{declares: []string{"*Metrics.*"}, in: []string{"apollo/internal/serve"},
		message: "metrics wrapper method in internal/serve: call the obs handle at the event site",
		why:     "the obs handles are nil-safe; a wrapper method is a second guard over them"},
	{uses: []string{"apollo/internal/optim.Base.dense"}, declares: []string{"fallback"}, in: optimCore,
		allow:   []string{"apollo/internal/optim/base.go", "apollo/internal/optim/state.go"},
		message: "covered/fallback split outside optim.Base: Step is Walk plus the member's update",
		why:     "a member is a Schema plus a per-parameter update on optim.Base; a split of its own is a second copy of the walk's order contract"},
	{declares: []string{"SetLR"}, in: optimCore,
		allow:   []string{"apollo/internal/optim/optimizer.go", "apollo/internal/optim/base.go", "apollo/internal/optim/qwrap.go"},
		message: "SetLR outside optim.Base and WeightQuantized: the base forwards to the fallback once",
		why:     "a member's own SetLR is a second copy of the learning-rate forwarding"},

	// Randomness keyed by parameter.
	{uses: []string{"apollo/internal/tensor.RNG"}, in: optimCore, allow: []string{"apollo/internal/optim/optimtest"},
		message: "tensor.RNG kept in optim/core: key the draw with tensor.Mix instead",
		why:     "a generator kept on the optimizer makes an update depend on the parameters stepped before it; the overlapped step, ZeRO's partition and resume assume none does"},
	{uses: []string{"apollo/internal/tensor.RNG.Uint64"}, in: optimCore,
		message: "stream draw in optim/core: key the draw with tensor.Mix instead",
		why:     "a member's random draws are tensor.Mix(seed, p.Name, counters…), never a shared stream's"},
	{declares: []string{"Redraws", "OrderFree", "CaptureGlobals"},
		message: "order-keeping layer reintroduced: every member is order-free by keying",
		why:     "the layer a shared stream needed (Schema.Redraws, optim.OrderFree, the checkpoint's global cursors) is gone"},

	// One backward, one gradient arena.
	{declares: []string{"BackwardLend", "FreeGrads"},
		message: "gradient lifetime outside the arena: use nn.GradPolicy",
		why:     "a model's gradient storage is its arena's; the second backward entry point is gone"},

	// One scoring rule.
	{uses: []string{"apollo/internal/tensor.LogSumExp", "math.Inf"}, in: []string{"apollo/internal/serve"},
		message: "scoring rule copied into internal/serve: call eval.Query.Score / eval.Accuracy",
		why:     "how an option is scored and an item's answer picked lives in internal/eval; the service batches forwards and calls it"},
	{uses: []string{"apollo/internal/nn.Model.Forward"}, in: []string{"apollo/internal/serve", "apollo/internal/eval/eval.go"},
		message: "full forward in a scoring path: forward from the first scored position with nn.Model.ForwardFrom",
		why:     "a full Forward gives the same bits, so only this row sees the head and last-block work it throws away"},

	// One checkpoint codec.
	{uses: []string{"io.ReadAll"}, in: []string{"apollo/internal/ckpt"}, allow: []string{"apollo/internal/ckpt/model.go"},
		message: "second checkpoint reader in internal/ckpt: decode through readModel",
		why:     "internal/ckpt reads a file once and decodes its model half once (Read is ReadModel plus DATA and OPTP)"},
	{uses: []string{"apollo/internal/ckpt.Capture", "apollo/internal/ckpt.SaveFile"}, in: []string{"apollo/cmd/..."},
		message: "checkpoint saved outside the training loop: set PretrainConfig.CkptPath",
		why:     "the training loop is the only writer of a run's snapshots"},

	// One walk.
	{uses: []string{"apollo/internal/runtime.ForRange"}, in: optimCore, allow: []string{"apollo/internal/optim/base.go"},
		message: "parameter fan-out outside optim.Base.Walk: Step is Walk plus the member's update",
		why:     "a member with its own fan-out over its parameters is a second copy of the walk's width contract"},
	{declares: []string{"GaLore8bit"}, in: []string{"apollo/internal/optim/..."},
		message: "GaLore8bit as its own optimizer: it is the projected engine with INT8 moments",
		why:     "8-bit GaLore is a rule on the projected engine (INT8 moments, an 8-bit Adam fallback)"},

	// One memory price.
	{uses: []string{"apollo/internal/memmodel.BytesINT8", "apollo/internal/memmodel.Method.StateBytesPer"}, allow: inMemmodel,
		message: "INT8 width picked outside internal/memmodel: price live state with memmodel.LiveStateBytes",
		why:     "a storage width picked off a method row is a second price; the copies that skipped the INT8 half recorded 8-bit Adam's state 74% high"},
	{uses: []string{"apollo/internal/memmodel.StateElems", "apollo/internal/memmodel.Method.StateElems"}, allow: inMemmodel,
		message: "state elements times a byte width outside internal/memmodel: use memmodel.LiveStateBytes",
		why:     "what a live run's optimizer state costs in bytes is memmodel.LiveStateBytes"},
	{uses: []string{"apollo/internal/memmodel.Shape{}"}, allow: inMemmodel,
		message: "shapes built outside internal/memmodel: use memmodel.ShapesOf or memmodel.ParamShape",
		why:     "a Shape built by hand is a second copy of the price's input"},
	{declares: []string{"StateElemsFor"},
		message: "a per-parameter state-element count: ask StateBytesFor, the bytes ZeRO charges",
		why:     "an element count beside StateBytesFor left one 8-bit GaLore shard 35% over its share"},
}

// Analyzer checks every row over every analyzed package.
var Analyzer = &analysis.Analyzer{
	Name: "seams",
	Doc:  "flags a second copy of a design seam: a use, declaration or method-name case the seams table confines to one place",
	Run:  run,
}

// target is one resolved uses entry.
type target struct {
	row     *row
	name    string // as written in the row, less its package path's directories
	literal bool
}

func run(pass *analysis.Pass) error {
	targets := resolve(pass)
	for _, f := range pass.Files {
		file := pass.PkgPath + "/" + filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		test := pass.IsTestFile(f.Pos())
		// flag reports n when r applies to this file and does not allow it.
		flag := func(r *row, n ast.Node, what string) {
			if (len(r.in) > 0 && !matches(pass.PkgPath, file, r.in)) || matches(pass.PkgPath, file, r.allow) {
				return
			}
			pass.Reportf(n.Pos(), "%s: %s (%s)", what, r.message, r.why)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if t := targets[pass.Info.Uses[n]]; t != nil && !t.literal && !test {
					flag(t.row, n, t.name)
				}
				if obj := pass.Info.Defs[n]; obj != nil {
					for i := range rows {
						if name := declared(&rows[i], obj); name != "" {
							flag(&rows[i], n, "declared "+name)
						}
					}
				}
			case *ast.CompositeLit:
				if named, ok := types.Unalias(pass.TypeOf(n)).(*types.Named); ok && !test {
					if t := targets[named.Obj()]; t != nil && t.literal {
						flag(t.row, n, t.name)
					}
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					v := pass.Info.Types[e].Value
					if v == nil || v.Kind() != constant.String || test {
						continue
					}
					what := "case " + v.ExactString()
					if _, lit := e.(*ast.BasicLit); !lit {
						what += " (" + types.ExprString(e) + ")"
					}
					for i := range rows {
						if rows[i].cases != nil && rows[i].cases.MatchString(constant.StringVal(v)) {
							flag(&rows[i], e, what)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// resolve looks every uses entry up in the packages this pass can see.
func resolve(pass *analysis.Pass) map[types.Object]*target {
	byPath := map[string][]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		for _, q := range byPath[p.Path()] {
			if q == p {
				return
			}
		}
		byPath[p.Path()] = append(byPath[p.Path()], p)
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	visit(pass.Pkg)

	out := map[types.Object]*target{}
	for i := range rows {
		for _, use := range rows[i].uses {
			spec, literal := strings.CutSuffix(use, "{}")
			slash := strings.LastIndex(spec, "/")
			pkgPath, name, _ := strings.Cut(spec[slash+1:], ".")
			pkgPath = spec[:slash+1] + pkgPath
			name, member, _ := strings.Cut(name, ".")
			for _, p := range byPath[pkgPath] {
				obj := p.Scope().Lookup(name)
				if obj != nil && member != "" {
					obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, member)
				}
				if obj != nil {
					out[obj] = &target{row: &rows[i], name: spec[slash+1:], literal: literal}
				}
			}
		}
	}
	return out
}

// declared returns the name under which r forbids declaring obj, or "".
func declared(r *row, obj types.Object) string {
	if len(r.declares) == 0 {
		return ""
	}
	if obj.Parent() != nil && obj.Parent() != obj.Pkg().Scope() {
		return "" // a local: not part of any declared surface
	}
	if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
		return ""
	}
	names := []string{obj.Name()}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := types.Unalias(t).(*types.Named); ok {
				names = append(names, named.Obj().Name()+"."+obj.Name())
			}
		}
	}
	for _, glob := range r.declares {
		for _, name := range names {
			if ok, _ := path.Match(glob, name); ok {
				return name
			}
		}
	}
	return ""
}

// matches reports whether the package or the file is one of patterns.
func matches(pkgPath, file string, patterns []string) bool {
	return analysis.MatchPath(pkgPath, patterns) || analysis.MatchPath(file, patterns)
}
