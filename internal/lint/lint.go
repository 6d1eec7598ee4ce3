// Package lint is pdqlint: the static checks that keep every cell of a
// sweep reproducible bit for bit from its seed (DESIGN.md §10).
//
// TestRepoClean runs them over the module. They catch what no run
// notices: a wall-clock read, a global-rand draw or an unsorted map
// iteration on an output path changes a figure only sometimes, and a
// package variable shared by concurrent cells races only under -race.
//
// The suite is deliberately self-contained: analyzers run over go/ast +
// go/types using a stdlib-only loader (go/parser plus the source
// importer), so it needs no module downloads. The Analyzer/Pass shape
// mirrors golang.org/x/tools/go/analysis closely enough that porting
// onto the real framework is mechanical.
//
// The two analyzers:
//
//   - nodeterm:  no wall-clock, no global math/rand, no unsorted map
//     iteration feeding ordering-sensitive sinks in internal packages.
//   - cellsafe:  internal/sim and internal/netsim may hold no mutable
//     package-level state (error sentinels excepted) and may not
//     synchronize — goroutines, channels, sync, sync/atomic — because
//     every cell in flight shares them (//pdqlint:cellsafe-ok
//     suppresses a justified site).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer (minus Requires/Facts, which
// these checks do not need).
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// A Diagnostic is one reported finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// A Pass connects one analyzer to one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full pdqlint suite in a fixed order.
func All() []*Analyzer { return []*Analyzer{NoDeterm, CellSafe} }

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by (file, line, column, analyzer, message) — a
// deterministic order regardless of load or analysis order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// ---------------------------------------------------------------------------
// Shared AST/type helpers.

// hasSegment reports whether path contains seg as a full path segment.
func hasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function of call, or nil for calls
// through function values, type conversions and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent unwraps parens and returns e as an identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rootIdent(e.X)
		}
	}
	return nil
}
