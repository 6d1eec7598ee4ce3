package params

import (
	"fmt"
	"sort"
)

// Registry is a name-keyed table of entries of one kind ("runner",
// "topology", …), each with a declared parameter set. It is built whole
// from a literal table when its package initializes and has no way to be
// written afterwards, so it needs no lock under -parallel.
type Registry[E any] struct {
	kind    string
	entries map[string]registered[E]
}

type registered[E any] struct {
	entry E
	Decl
}

// Decl is what a registry reads from each entry of its table: the name,
// the accepted parameters with their defaults, and Check, which, when
// non-nil, validates resolved values: what it rejects is an error from
// Resolve, before anything runs, instead of a failure inside the entry.
type Decl struct {
	Name   string
	Params map[string]float64
	Check  func(p map[string]float64) error
}

// NewRegistry returns the registry of table's entries, each declared by
// decl; kind names its entries in error messages. A duplicate name
// panics.
func NewRegistry[E any](kind string, decl func(E) Decl, table []E) *Registry[E] {
	r := &Registry[E]{kind: kind, entries: make(map[string]registered[E], len(table))}
	for _, e := range table {
		d := decl(e)
		if _, dup := r.entries[d.Name]; dup {
			panic(fmt.Sprintf("params: duplicate %s %q", kind, d.Name))
		}
		r.entries[d.Name] = registered[E]{e, d}
	}
	return r
}

// Names returns the registered names, sorted.
func (r *Registry[E]) Names() []string {
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List returns the entries sorted by name.
func (r *Registry[E]) List() []E {
	out := make([]E, 0, len(r.entries))
	for _, n := range r.Names() {
		out = append(out, r.entries[n].entry)
	}
	return out
}

// Lookup returns the entry registered under name.
func (r *Registry[E]) Lookup(name string) (E, bool) {
	e, ok := r.entries[name]
	return e.entry, ok
}

// Resolve looks name up and validates given against the entry's declared
// parameters (the package-level Resolve) and its check, returning the
// entry and its default-filled parameters; past the lookup, an error
// names the kind and the entry.
func (r *Registry[E]) Resolve(name string, given map[string]float64) (E, map[string]float64, error) {
	e, ok := r.entries[name]
	if !ok {
		return e.entry, nil, fmt.Errorf("unknown %s %q (available: %v)", r.kind, name, r.Names())
	}
	p, err := Resolve(r.kind, name, e.Params, given)
	if err == nil && e.Check != nil {
		if err = e.Check(p); err != nil {
			err = fmt.Errorf("%s %q: %w", r.kind, name, err)
		}
	}
	return e.entry, p, err
}
