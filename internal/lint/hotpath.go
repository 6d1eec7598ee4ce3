package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPath is the static mirror of the zero-alloc benches (DESIGN.md §2,
// §4): a function carrying a //pdq:hotpath directive in its doc comment
// sits on a path the engine benchmarks at 0 allocs/op (heap
// schedule/fire/cancel, Link.Enqueue, the allocator steps, ring
// record), so constructs that allocate per call are flagged at the
// source level instead of waiting for a bench regression:
//
//   - function literals that capture variables (the closure context
//     escapes and allocates; capture-free literals are fine and compile
//     to plain functions);
//   - bound method values (x.M used as a value allocates the bound
//     receiver; pre-bind it once at construction instead);
//   - conversions of non-pointer-shaped values to interface types
//     (boxing allocates; pointers, maps, chans and funcs ride in the
//     interface word for free, and constants are materialized in
//     read-only data);
//   - any call into package fmt (formatting allocates; move diagnostics
//     to a cold helper);
//   - map construction (make(map...) or a map literal);
//   - heap objects built per call: &T{...} and new(T) (take the object
//     from a pool, or move the one-time allocation into a cold helper —
//     the packet pool's grow and netsim.HeaderOf's attach are the model);
//   - non-constant string concatenation.
//
// Amortized append growth is deliberately allowed: the pools and
// free-lists the hot paths rely on grow that way to their high-water
// mark. Plain value literals (T{...}) are allowed too: they live in
// registers or on the stack.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid per-call allocation constructs in functions annotated //pdq:hotpath",
	Run:  runHotPath,
}

// HotPathMarker is the doc-comment directive that opts a function in.
const HotPathMarker = "//pdq:hotpath"

func runHotPath(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), HotPathMarker) {
			return true
		}
	}
	return false
}

// checkHotFunc walks one annotated function. sigStack tracks the
// result types of the innermost function (the decl or a nested
// literal) so return statements can be boxing-checked.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	var sigStack []*types.Signature
	if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
		sigStack = append(sigStack, obj.Type().(*types.Signature))
	}

	// Selector nodes that are the operand of a direct call — x.M() —
	// are calls, not bound method values.
	calledSels := map[*ast.SelectorExpr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				calledSels[sel] = true
			}
		}
		return true
	})

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capt := captured(info, fn, n); capt != "" {
				pass.Reportf(n.Pos(), "closure captures %s and allocates its context; pre-bind it or pass state explicitly", capt)
			}
			sig, _ := typeOf(info, n).(*types.Signature)
			sigStack = append(sigStack, sig)
			ast.Inspect(n.Body, walk)
			sigStack = sigStack[:len(sigStack)-1]
			return false

		case *ast.SelectorExpr:
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !calledSels[n] {
				pass.Reportf(n.Pos(), "bound method value %s.%s allocates; pre-bind it outside the hot path", exprString(n.X), n.Sel.Name)
			}

		case *ast.CallExpr:
			checkHotCall(pass, n)

		case *ast.UnaryExpr:
			if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op == token.AND {
				pass.Reportf(n.Pos(), "&%s{...} allocates; take the object from a pool or build it in a cold helper", exprString(lit.Type))
			}

		case *ast.CompositeLit:
			t := typeOf(info, n)
			if isMapType(t) {
				pass.Reportf(n.Pos(), "map literal allocates; hoist the map out of the hot path")
			} else {
				checkCompositeBoxing(pass, n, t)
			}

		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkBoxing(pass, n.Rhs[i], typeOf(info, n.Lhs[i]), "assignment")
				}
			}

		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					if obj := info.Defs[name]; obj != nil {
						checkBoxing(pass, n.Values[i], obj.Type(), "assignment")
					}
				}
			}

		case *ast.ReturnStmt:
			if len(sigStack) == 0 || sigStack[len(sigStack)-1] == nil {
				break
			}
			res := sigStack[len(sigStack)-1].Results()
			if res.Len() == len(n.Results) {
				for i, r := range n.Results {
					checkBoxing(pass, r, res.At(i).Type(), "return")
				}
			}

		case *ast.SendStmt:
			if ch, ok := underlying(typeOf(info, n.Chan)).(*types.Chan); ok {
				checkBoxing(pass, n.Value, ch.Elem(), "channel send")
			}

		case *ast.BinaryExpr:
			checkStringConcat(pass, n)
		}
		return true
	}
	ast.Inspect(fn.Body, walk)

	// += on strings parses as an AssignStmt with token.ADD_ASSIGN.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok.String() == "+=" {
			if t := typeOf(info, as.Lhs[0]); t != nil && isString(t) {
				pass.Reportf(as.Pos(), "string concatenation allocates; build into a reusable buffer outside the hot path")
			}
		}
		return true
	})
}

// captured returns the name of a variable the literal captures from the
// enclosing function, or "".
func captured(info *types.Info, enclosing *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || obj.Pos() == 0 {
			return true
		}
		// Captured: declared inside the enclosing decl but outside the
		// literal. Package-level vars and the literal's own locals are
		// not captures.
		if obj.Pos() >= enclosing.Pos() && obj.Pos() < enclosing.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			name = obj.Name()
		}
		return true
	})
	return name
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion, not a call. Conversion to interface never appears
		// here (interface conversions are not expressed as I(x) on hot
		// paths in this tree); boxing through assignment contexts is
		// covered elsewhere.
		return
	}
	if isBuiltin(info, call, "make") {
		if len(call.Args) > 0 {
			if t := typeOf(info, call); isMapType(t) {
				pass.Reportf(call.Pos(), "make(map) allocates; hoist the map out of the hot path")
			}
		}
		return
	}
	if isBuiltin(info, call, "new") {
		pass.Reportf(call.Pos(), "new(%s) allocates; take the object from a pool or build it in a cold helper", exprString(call.Args[0]))
		return
	}
	if isBuiltin(info, call, "append") && len(call.Args) > 1 && !call.Ellipsis.IsValid() {
		if sl, ok := underlying(typeOf(info, call.Args[0])).(*types.Slice); ok {
			for _, arg := range call.Args[1:] {
				checkBoxing(pass, arg, sl.Elem(), "append")
			}
		}
		return
	}
	if f := calleeFunc(info, call); f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates; move formatting to a cold helper", f.Name())
		return
	}
	sig, ok := typeOf(info, call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-element conversion
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(pass, arg, pt, "argument")
	}
}

// checkCompositeBoxing flags interface-typed elements of slice, array
// and struct literals initialized from non-pointer-shaped values.
func checkCompositeBoxing(pass *Pass, lit *ast.CompositeLit, t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		for _, el := range lit.Elts {
			checkBoxing(pass, stripKV(el), u.Elem(), "composite literal")
		}
	case *types.Array:
		for _, el := range lit.Elts {
			checkBoxing(pass, stripKV(el), u.Elem(), "composite literal")
		}
	case *types.Struct:
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					for i := 0; i < u.NumFields(); i++ {
						if u.Field(i).Name() == id.Name {
							checkBoxing(pass, kv.Value, u.Field(i).Type(), "composite literal")
						}
					}
				}
			}
		}
	}
}

func stripKV(e ast.Expr) ast.Expr {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return e
}

// checkBoxing reports expr if assigning it to target converts a
// non-pointer-shaped concrete value into an interface.
func checkBoxing(pass *Pass, expr ast.Expr, target types.Type, context string) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	info := pass.Pkg.Info
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return // unknown, nil, or constant (materialized statically)
	}
	if pointerShaped(tv.Type) {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Interface); ok {
		return // interface-to-interface carries the existing word
	}
	pass.Reportf(expr.Pos(), "%s boxes %s into an interface and allocates; pass a pointer or restructure", context, tv.Type)
}

// pointerShaped reports whether values of t fit the interface data word
// without allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// underlying is a nil-tolerant t.Underlying().
func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func checkStringConcat(pass *Pass, be *ast.BinaryExpr) {
	if be.Op.String() != "+" {
		return
	}
	tv, ok := pass.Pkg.Info.Types[be]
	if !ok || tv.Type == nil || tv.Value != nil || !isString(tv.Type) {
		return
	}
	pass.Reportf(be.Pos(), "string concatenation allocates; move formatting to a cold helper")
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expr"
}
