package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoDeterm enforces the determinism invariants in internal packages
// (DESIGN.md §1, §5): simulations must be reproducible bit for bit from
// their seeds, so nothing under internal/ may read the wall clock, draw
// from the process-global math/rand source, or let Go's randomized map
// iteration order reach an ordering-sensitive sink.
//
// Forbidden outright:
//
//   - time.Now, time.Since, time.Sleep (and the timer constructors
//     time.After, time.Tick, time.NewTimer, time.NewTicker,
//     time.AfterFunc): simulation time is sim.Time, advanced by the
//     event loop, never by the host clock.
//   - package-level math/rand functions (rand.Intn, rand.Float64,
//     rand.Shuffle, rand.Seed, ...): they draw from a process-global
//     source shared across goroutines, so parallel sweep workers would
//     perturb each other's streams. Only seeded *rand.Rand instances
//     threaded from scenario seeds are allowed; the constructors
//     rand.New, rand.NewSource and rand.NewZipf stay legal because they
//     are how those instances are made.
//
// One package is whitelisted for the wall clock: internal/obsv, the
// observability plane's clock seam (DESIGN.md §13). obsv.WallClock is
// the injected-Clock default that cmd/ hands to the Observer; nothing
// obsv measures can feed back into event order, so time.Now is legal
// there — and only there — while the global-rand and map-iteration
// rules still apply in full.
//
// Map iteration: `for ... range m` over a map is flagged when the loop
// body feeds an ordering-sensitive sink — it appends to a slice that is
// not subsequently sorted in the same function, calls into fmt, or
// calls a writer/encoder-shaped method (Write*, Print*, Encode*,
// Append*, Record*, Emit*, Export*) — because the iteration order would
// leak into output bytes. Aggregation bodies (counter updates, map
// writes, deletes) pass untouched.
var NoDeterm = &Analyzer{Name: "nodeterm", Run: runNoDeterm}

// forbiddenTime is the wall-clock/timer surface of package time.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// allowedGlobalRand is the math/rand package-level surface that does
// not touch the global source: constructors for seeded instances.
var allowedGlobalRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runNoDeterm(pass *Pass) error {
	if !hasSegment(pass.Pkg.Path, "internal") {
		return nil
	}
	// internal/obsv is the whitelisted wall-clock shore (see the doc
	// comment above); everything else it does stays under the rules.
	allowTime := hasSegment(pass.Pkg.Path, "obsv")
	for _, file := range pass.Pkg.Files {
		// Walk function by function so map-range analysis can see the
		// whole enclosing body (the "sorted later" check).
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncDeterm(pass, fn.Body, allowTime)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// checkFuncDeterm checks one function body: forbidden calls anywhere,
// and map ranges against the sink heuristic with body as the sort
// horizon. Nested function literals are part of the body and are
// checked in the same walk.
func checkFuncDeterm(pass *Pass, body *ast.BlockStmt, allowTime bool) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkForbiddenCall(pass, n, allowTime)
		case *ast.RangeStmt:
			if isMapType(typeOf(info, n.X)) {
				checkMapRange(pass, n, body)
			}
		}
		return true
	})
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func checkForbiddenCall(pass *Pass, call *ast.CallExpr, allowTime bool) {
	f := calleeFunc(pass.Pkg.Info, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return // methods (e.g. *rand.Rand.Float64, sim.Time.Seconds) are fine
	}
	switch f.Pkg().Path() {
	case "time":
		if forbiddenTime[f.Name()] && !allowTime {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock; simulations must use sim.Time from the event loop", f.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedGlobalRand[f.Name()] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the process-global source; thread a seeded *rand.Rand from the scenario seed instead", f.Name())
		}
	}
}

// sinkMethodPrefixes name method families that serialize their
// arguments into an ordered output stream.
var sinkMethodPrefixes = []string{
	"Write", "Print", "Fprint", "Sprint", "Encode", "Append", "Record", "Emit", "Export",
}

// checkMapRange applies the ordering-sink heuristic to one map range.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, enclosing *ast.BlockStmt) {
	info := pass.Pkg.Info

	var appendTargets []*ast.Ident // slices appended to inside the loop
	flagged := false
	report := func(what string) {
		if flagged {
			return
		}
		flagged = true
		pass.Reportf(rng.For,
			"map iteration order reaches an ordering-sensitive sink (%s); sort the keys first", what)
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "append") {
					continue
				}
				if i < len(n.Lhs) {
					if id := rootIdent(n.Lhs[i]); id != nil {
						appendTargets = append(appendTargets, id)
					}
				}
			}
		case *ast.SendStmt:
			report("channel send")
		case *ast.CallExpr:
			f := calleeFunc(info, n)
			if f == nil {
				return true
			}
			if f.Pkg() != nil && f.Pkg().Path() == "fmt" {
				report("fmt." + f.Name())
				return true
			}
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
				for _, p := range sinkMethodPrefixes {
					if strings.HasPrefix(f.Name(), p) {
						report("method " + f.Name())
						break
					}
				}
			}
		}
		return true
	})
	if flagged {
		return
	}
	// Appends are fine if every appended-to slice is sorted after the
	// loop within the same function body.
	for _, target := range appendTargets {
		obj := info.ObjectOf(target)
		if obj == nil || !sortedAfter(info, enclosing, rng.End(), obj) {
			pass.Reportf(rng.For,
				"map iteration order reaches %q via append and the slice is never sorted; sort it", target.Name)
			return
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// sortPkgFuncs are the stdlib entry points that establish a
// deterministic order over a slice.
var sortPkgFuncs = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether obj (a slice variable) is passed to a
// sorting function after offset end within body.
func sortedAfter(info *types.Info, body *ast.BlockStmt, end token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < end {
			return true
		}
		f := calleeFunc(info, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		names := sortPkgFuncs[f.Pkg().Path()]
		if names == nil || !names[f.Name()] || len(call.Args) == 0 {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
