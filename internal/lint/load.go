package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the tree under
// analysis. Test files (*_test.go) are excluded: they are allowed to
// break the invariants (fixtures, fault injection, test-only registry
// entries).
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files, comments attached
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds any type-checker complaints. Analysis proceeds
	// best-effort; the caller decides whether they are fatal.
	TypeErrors []error

	// cellsafeOK holds the lines carrying a //pdqlint:cellsafe-ok
	// justification comment.
	cellsafeOK map[fileLine]bool
}

// A Loader parses and type-checks the packages of one module without
// invoking the go command or the module proxy: module-internal imports
// resolve against the module tree itself, everything else (the standard
// library) through go/importer's source importer, which compiles from
// $GOROOT/src.
type Loader struct {
	Root    string // module root directory
	ModPath string // module path; "" resolves import paths relative to Root

	fset  *token.FileSet
	pkgs  map[string]*Package // by import path, load memo
	std   types.Importer
	stack []string // in-progress loads, for import-cycle reporting
}

// NewLoader returns a loader for the module rooted at root. modPath is
// the module path from go.mod; pass "" for bare trees (fixtures) whose
// import paths are directory-relative.
func NewLoader(root, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		ModPath: modPath,
		fset:    fset,
		pkgs:    map[string]*Package{},
		std:     importer.ForCompiler(fset, "source", nil),
	}
}

// FindModule locates the enclosing module of dir: the nearest ancestor
// containing go.mod. It returns the module root and module path.
func FindModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadAll walks the module tree and loads every package that has
// non-test Go files, skipping hidden directories, testdata, and
// vendored trees. Packages come back sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if ok, err := hasGoFiles(path); err != nil {
			return err
		} else if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModPath
		if rel != "." {
			rel = filepath.ToSlash(rel)
			if path == "" {
				path = rel
			} else {
				path += "/" + rel
			}
		}
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Load loads (or returns the memoized) package with the given import
// path, which must resolve inside the module tree.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.moduleDir(path)
	if !ok {
		return nil, fmt.Errorf("lint: import path %q is outside the module", path)
	}
	for _, p := range l.stack {
		if p == path {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
	}
	l.stack = append(l.stack, path)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	pkg, err := l.loadDir(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// moduleDir maps an import path to a directory inside the module, if it
// is a module-internal path.
func (l *Loader) moduleDir(path string) (string, bool) {
	switch {
	case l.ModPath != "" && path == l.ModPath:
		return l.Root, true
	case l.ModPath != "" && strings.HasPrefix(path, l.ModPath+"/"):
		return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.ModPath+"/"))), true
	case l.ModPath == "" && path != "":
		dir := filepath.Join(l.Root, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
	}
	return "", false
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true, nil
		}
	}
	return false, nil
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// loadDir parses and type-checks the non-test files of one directory.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info) // errors collected above
	pkg.Types = tpkg
	pkg.Info = info
	pkg.buildComments()
	return pkg, nil
}

// loaderImporter routes module-internal imports back through the loader
// and everything else to the stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if _, ok := l.moduleDir(path); ok {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: no type information for %q", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// fileLine is one line of one source file.
type fileLine struct {
	file string
	line int
}

// buildComments indexes the lines that carry a //pdqlint:cellsafe-ok
// justification comment.
func (p *Package) buildComments() {
	p.cellsafeOK = map[fileLine]bool{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "pdqlint:cellsafe-ok") {
					pos := p.Fset.Position(c.Pos())
					p.cellsafeOK[fileLine{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
}

// justified reports whether pos is covered by a //pdqlint:cellsafe-ok
// comment: a trailing one on its line, or one on the line above.
func (p *Package) justified(pos token.Pos) bool {
	at := p.Fset.Position(pos)
	return p.cellsafeOK[fileLine{at.Filename, at.Line}] || p.cellsafeOK[fileLine{at.Filename, at.Line - 1}]
}
