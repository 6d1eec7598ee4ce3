package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// CellSafe enforces cell isolation (DESIGN.md §10) in the engine packages
// internal/sim and internal/netsim. A sweep runs cells concurrently, one
// per worker goroutine, in one process, each on an engine and a network
// of its own with no locks: correctness rests on cells sharing no mutable
// state through these packages. Two rules follow:
//
//  1. No package-level mutable state. A package-level var is shared by
//     every cell in flight, so a write from one worker races all the
//     others. Error sentinels (vars whose type is error — the errors.New
//     idiom) are immutable by convention and stay legal. Anything else
//     needs a //pdqlint:cellsafe-ok <reason> justification — e.g. the
//     qdisc registry, built whole at package init before any worker
//     goroutine exists.
//
//  2. No ad-hoc synchronization. go statements, select statements,
//     channel types and operations, and imports of sync or sync/atomic
//     have no place in code that one cell's goroutine runs alone; a
//     justified exception (the watchdog interrupt flag in sim.go, set
//     from the watchdog's goroutine) carries the same suppression
//     comment, so every happens-before edge into an engine is auditable.
var CellSafe = &Analyzer{Name: "cellsafe", Run: runCellSafe}

// errorIface is the universe error interface, for recognizing sentinel
// vars.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func runCellSafe(pass *Pass) error {
	if !hasSegment(pass.Pkg.Path, "internal") {
		return nil
	}
	if !hasSegment(pass.Pkg.Path, "sim") && !hasSegment(pass.Pkg.Path, "netsim") {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		checkPkgVars(pass, file)
		checkSyncConstructs(pass, file)
	}
	return nil
}

// checkPkgVars flags package-level vars (rule 1).
func checkPkgVars(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if name.Name == "_" {
					continue
				}
				obj := pass.Pkg.Info.ObjectOf(name)
				if obj != nil && types.Implements(obj.Type(), errorIface) {
					continue // error sentinel, immutable by convention
				}
				if pass.Pkg.justified(name.Pos()) {
					continue
				}
				pass.Reportf(name.Pos(),
					"package-level var %q is shared by every cell in flight; move it into per-Sim or per-Network state, make it a const, or justify with //pdqlint:cellsafe-ok", name.Name)
			}
		}
	}
}

// checkSyncConstructs flags rule-2 violations in one file: the sync and
// sync/atomic imports and every goroutine/channel construct.
func checkSyncConstructs(pass *Pass, file *ast.File) {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || (p != "sync" && p != "sync/atomic") {
			continue
		}
		if pass.Pkg.justified(imp.Pos()) {
			continue
		}
		pass.Reportf(imp.Pos(),
			"import %q in an engine package: a cell's engine runs on one goroutine and needs no synchronization; justify with //pdqlint:cellsafe-ok", p)
	}
	report := func(pos token.Pos, what string) {
		if pass.Pkg.justified(pos) {
			return
		}
		pass.Reportf(pos,
			"%s in an engine package: a cell's engine runs on one goroutine; justify with //pdqlint:cellsafe-ok", what)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n.Pos(), "go statement")
		case *ast.SelectStmt:
			report(n.Pos(), "select statement")
		case *ast.SendStmt:
			report(n.Pos(), "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(n.Pos(), "channel receive")
			}
		case *ast.ChanType:
			report(n.Pos(), "channel type")
		}
		return true
	})
}
