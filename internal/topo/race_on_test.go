//go:build race

package topo

// raceEnabled reports whether the race detector is active; its
// instrumentation changes allocation counts, so exact-count guards
// skip under it.
const raceEnabled = true
