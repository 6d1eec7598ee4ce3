//go:build race

package scenario

// raceEnabled reports whether the race detector is active; its
// instrumentation changes allocation counts, so the allocation budgets
// skip under it.
const raceEnabled = true
