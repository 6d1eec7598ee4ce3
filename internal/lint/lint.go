// Package lint is pdqlint: a custom static-analysis suite that enforces
// the reproduction's determinism and zero-allocation invariants at the
// source level (DESIGN.md §10).
//
// The golden tests and the zero-alloc benches catch violations
// *dynamically*, after the fact; these analyzers make the same
// invariants machine-checked at the source level, so a wall-clock read,
// a global-rand draw, an unsorted map iteration on an output path, or
// an allocation slipped into a //pdq:hotpath function fails the lint
// step before it can perturb a figure byte.
//
// The suite is deliberately self-contained: analyzers run over go/ast +
// go/types using a stdlib-only loader (go/parser plus the source
// importer), so it needs no module downloads — the sandboxed build
// environment has no module proxy. The Analyzer/Pass shape mirrors
// golang.org/x/tools/go/analysis closely enough that porting onto the
// real framework is mechanical if the dependency ever becomes
// available.
//
// Shipped analyzers:
//
//   - nodeterm:  no wall-clock, no global math/rand, no unsorted map
//     iteration feeding ordering-sensitive sinks in internal packages
//     (//pdqlint:ordered-ok suppresses a justified site).
//   - hotpath:   functions annotated //pdq:hotpath must not contain
//     capturing closures, bound method values, interface boxing of
//     non-pointer values, fmt calls, map construction, &T{...} or
//     new(T), or string concatenation — the static mirror of the
//     0 allocs/op benches.
//   - registry:  Register* calls only from init functions (or test
//     files), with statically constant names, so the unsynchronized
//     registry maps are never written once sweep workers read them.
//   - shardsafe: internal/sim and internal/netsim may hold no mutable
//     package-level state (error sentinels excepted) and may not
//     synchronize — goroutines, channels, sync, sync/atomic — outside
//     shard.go, the one file owning cross-shard coordination
//     (//pdqlint:shardsafe-ok suppresses a justified site).
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
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
	Doc  string
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

// Fset returns the file set positions resolve against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full pdqlint suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{NoDeterm, HotPath, Registry, ShardSafe}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", n, analyzerNames())
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames() string {
	var ns []string
	for _, a := range All() {
		ns = append(ns, a.Name)
	}
	return strings.Join(ns, ", ")
}

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

// calleePkgFunc returns the callee if it is a package-level function of
// pkgPath (methods excluded).
func calleePkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) *types.Func {
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return nil
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil
	}
	return f
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

// constString reports whether info knows e to be a constant string.
func constString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String
}
