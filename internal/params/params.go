// Package params validates the registry entries' declarative parameter
// maps (topologies, patterns, size distributions, runners, metrics, flow
// generators, qdiscs): defaults fill in, unknown names fail loudly.
package params

import (
	"fmt"
	"math"
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

// Int refuses v, the value of parameter name, unless it is an integer in
// [lo, hi]: an int conversion would truncate a fraction.
func Int(name string, v, lo, hi float64) error {
	if !(v >= lo && v <= hi) || v != math.Trunc(v) {
		return fmt.Errorf("parameter %q = %v: want an integer in [%v, %v]", name, v, lo, hi)
	}
	return nil
}

// In refuses v, the value of parameter name, unless lo <= v <= hi, so NaN
// is always refused; hi may be +Inf.
func In(name string, v, lo, hi float64) error {
	if !(v >= lo && v <= hi) {
		return fmt.Errorf("parameter %q = %v: want a value in [%v, %v]", name, v, lo, hi)
	}
	return nil
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
