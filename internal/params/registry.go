package params

import (
	"fmt"
	"sort"
)

// Registry is a name-keyed table of entries of one kind ("runner",
// "topology", …), each with a declared parameter set. It is filled from
// init functions and only read afterwards (the registry lint analyzer
// holds callers to that), so it needs no lock under -parallel.
type Registry[E any] struct {
	kind    string
	entries map[string]registered[E]
}

type registered[E any] struct {
	entry    E
	declared map[string]float64
	check    func(p map[string]float64) error
}

// NewRegistry returns an empty registry; kind names its entries in
// error messages.
func NewRegistry[E any](kind string) *Registry[E] {
	return &Registry[E]{kind: kind, entries: map[string]registered[E]{}}
}

// Register adds an entry under name with its accepted parameters and
// their defaults; a duplicate name panics. check, when non-nil, validates
// resolved values: what it rejects is an error from Resolve, before
// anything runs, instead of a failure inside the entry.
func (r *Registry[E]) Register(name string, declared map[string]float64, check func(p map[string]float64) error, e E) {
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("params: duplicate %s %q", r.kind, name))
	}
	r.entries[name] = registered[E]{e, declared, check}
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
// entry and its default-filled parameters.
func (r *Registry[E]) Resolve(name string, given map[string]float64) (E, map[string]float64, error) {
	e, ok := r.entries[name]
	if !ok {
		return e.entry, nil, fmt.Errorf("unknown %s %q (available: %v)", r.kind, name, r.Names())
	}
	p, err := Resolve(r.kind, name, e.declared, given)
	if err == nil && e.check != nil {
		err = e.check(p)
	}
	return e.entry, p, err
}
