package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Registry keeps the name-keyed registries (topologies, workload
// patterns, protocol runners, metrics, qdiscs — DESIGN.md §7) init-only:
// every call to a package-level Register* function must happen lexically
// inside a func init() and must register a name the type checker can
// evaluate to a string constant. Every registry is a params.Registry
// behind such a one-line wrapper, and the wrapper's own call to the
// Register method is not a registration site. Init-only registration is
// what makes the unsynchronized registries safe under -parallel: every
// write happens before main starts, so the sweep workers only ever read
// them. (A
// registration behind a helper with a computed name could also run, or
// not, depending on runtime control flow.)
//
// Test files are exempt by construction (the loader never parses
// *_test.go), so throwaway registrations in tests stay legal.
//
// The registered name is located structurally: a composite-literal
// argument with a Name field must set it to a constant string; a plain
// string parameter must receive a constant string. Calls whose name
// material cannot be found at all are flagged as not statically
// enumerable.
var Registry = &Analyzer{
	Name: "registry",
	Doc:  "Register* calls only from init functions, with statically constant names",
	Run:  runRegistry,
}

func runRegistry(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			inInit := fn.Recv == nil && fn.Name.Name == "init"
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				f := registryFunc(pass, call)
				if f == nil {
					return true
				}
				if !inInit {
					pass.Reportf(call.Pos(),
						"%s called outside func init; registries must be fully populated at init time (or register from a _test.go file)", f.Name())
				}
				checkRegisteredName(pass, call, f)
				return true
			})
		}
	}
	return nil
}

// registryFunc returns the callee if it is a package-level function
// named Register<Thing> defined inside the module under analysis.
// Stdlib registration points (gob.Register, image.RegisterFormat) are
// not our registries and stay out of scope.
func registryFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	f := calleeFunc(pass.Pkg.Info, call)
	if f == nil || !strings.HasPrefix(f.Name(), "Register") {
		return nil
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil // methods like Collector.Register are not registries
	}
	if f.Pkg() == nil || !pass.Pkg.IsModule(f.Pkg().Path()) {
		return nil
	}
	return f
}

// checkRegisteredName verifies the call's name material is a string
// constant.
func checkRegisteredName(pass *Pass, call *ast.CallExpr, f *types.Func) {
	info := pass.Pkg.Info
	for _, arg := range call.Args {
		lit := compositeLit(arg)
		if lit == nil {
			continue
		}
		st, ok := underlying(typeOf(info, lit)).(*types.Struct)
		if !ok || !hasField(st, "Name") {
			continue
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Name" {
				if !constString(info, kv.Value) {
					pass.Reportf(kv.Value.Pos(),
						"%s: Name must be a string literal so -list-* stays statically enumerable", f.Name())
				}
				return
			}
		}
		pass.Reportf(lit.Pos(), "%s: entry has no Name field set; registered names must be string literals", f.Name())
		return
	}
	// No entry literal: fall back to the first plain-string parameter.
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		if isString(sig.Params().At(i).Type()) {
			if !constString(info, call.Args[i]) {
				pass.Reportf(call.Args[i].Pos(),
					"%s: registered name must be a string literal so -list-* stays statically enumerable", f.Name())
			}
			return
		}
	}
	pass.Reportf(call.Pos(),
		"%s: cannot determine the registered name statically; pass the entry as a literal with a constant Name", f.Name())
}

func compositeLit(e ast.Expr) *ast.CompositeLit {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return e
	case *ast.UnaryExpr:
		if lit, ok := e.X.(*ast.CompositeLit); ok {
			return lit
		}
	}
	return nil
}

func hasField(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}
