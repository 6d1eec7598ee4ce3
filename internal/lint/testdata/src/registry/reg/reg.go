// Package reg is the fixture's module-internal registry surface, shaped
// like the real ones: a generic table whose Register method only the
// one-line package-level wrappers call — a composite-entry form and a
// plain name-parameter form. The method call inside a wrapper is not a
// registration site; the wrapper's callers are.
package reg

type Entry struct {
	Name string
	Doc  string
}

type registry[E any] struct{ entries map[string]E }

func (r *registry[E]) Register(name string, e E) { r.entries[name] = e }

var entries = &registry[Entry]{entries: map[string]Entry{}}

func RegisterEntry(e Entry) { entries.Register(e.Name, e) }

func RegisterName(name, doc string) { entries.Register(name, Entry{Name: name, Doc: doc}) }
