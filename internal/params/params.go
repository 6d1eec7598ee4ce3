// Package params validates the declarative parameter maps of the
// registry entries (topologies, patterns, size distributions, runners,
// metrics, flow generators): defaults fill in, unknown names fail loudly.
package params

import (
	"fmt"
	"sort"
)

// Resolve validates given against the declared set and fills in
// defaults: unknown parameter names are errors so typos in specs fail
// loudly instead of silently running the default scenario.
func Resolve(kind, name string, declared, given map[string]float64) (map[string]float64, error) {
	p := make(map[string]float64, len(declared))
	for k, v := range declared {
		p[k] = v
	}
	// Sorted iteration so the reported unknown key (and hence the error
	// bytes) is the same on every run.
	for _, k := range SortedKeys(given) {
		if _, ok := declared[k]; !ok {
			return nil, fmt.Errorf("%s %q: unknown parameter %q (accepts %v)", kind, name, k, SortedKeys(declared))
		}
		p[k] = given[k]
	}
	return p, nil
}

// SortedKeys returns the map's keys in sorted order.
func SortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
