package lint

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts one fixture expectation: a trailing
//
//	// want "substring of the expected message"
//
// comment on the offending line.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// loadFixture type-checks one tree under testdata/src. Fixture import
// paths are directory-relative (ModPath ""), which is what lets the
// trees fake "internal/..." and "cmd/..." path shapes.
func loadFixture(t *testing.T, tree string) []*Package {
	t.Helper()
	l := NewLoader("testdata/src/"+tree, "")
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("loading fixture %s: %v", tree, err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("fixture %s: type error in %s: %v", tree, p.Path, e)
		}
	}
	return pkgs
}

// checkFixture runs one analyzer over its fixture tree and requires an
// exact bijection between diagnostics and // want comments: every want
// matched by a diagnostic on the same file and line whose message
// contains the quoted substring, and no diagnostic without a want. The
// clean packages carry no wants, so any diagnostic there fails.
func checkFixture(t *testing.T, tree string, a *Analyzer) {
	t.Helper()
	pkgs := loadFixture(t, tree)
	diags, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, tree, err)
	}

	type site struct {
		file string
		line int
	}
	wants := map[site][]string{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := p.Fset.Position(c.Pos())
					s := site{pos.Filename, pos.Line}
					wants[s] = append(wants[s], m[1])
				}
			}
		}
	}

	for _, d := range diags {
		s := site{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, w := range wants[s] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[s] = append(wants[s][:matched], wants[s][matched+1:]...)
		if len(wants[s]) == 0 {
			delete(wants, s)
		}
	}
	var missed []string
	for s, ws := range wants {
		for _, w := range ws {
			missed = append(missed, fmt.Sprintf("%s:%d: want %q, got no diagnostic", s.file, s.line, w))
		}
	}
	sort.Strings(missed)
	for _, m := range missed {
		t.Error(m)
	}
}

func TestNoDetermFixture(t *testing.T) { checkFixture(t, "nodeterm", NoDeterm) }
func TestCellSafeFixture(t *testing.T) { checkFixture(t, "cellsafe", CellSafe) }

// TestRepoClean is how the suite runs: the repository must lint clean
// under every analyzer (scripts/lint.sh runs just this test). Skipped
// under -short, because it type-checks the whole module (a few seconds);
// the un-shortened test step runs it.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, modPath, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("type error in %s: %v", p.Path, e)
		}
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}
