// Package clean exercises the sanctioned patterns: seeded rand
// instances, sorted map iteration and aggregation bodies. It must
// produce no nodeterm diagnostics.
package clean

import (
	"math/rand"
	"sort"
	"time"
)

// Timeout uses time only as a unit constant — no clock read.
const Timeout = 5 * time.Second

// Roll draws from a seeded instance, the allowed pattern.
func Roll(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(6)
}

// Collect sorts after the loop, so the iteration order never escapes.
func Collect(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sum is pure aggregation: order-insensitive, never flagged.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}
