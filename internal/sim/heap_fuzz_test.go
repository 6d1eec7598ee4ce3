package sim

import (
	"slices"
	"testing"
)

// maxFuzzDepth bounds the fuzzed queue depth: a few heap levels, enough
// for partial and full sibling groups, at a few milliseconds an exec.
const maxFuzzDepth = 100

// FuzzHeapMatchesReference runs the lockstep history (heap_diff_test.go)
// at a fuzzed depth and seed: every pop, Cancel verdict and Pending count
// must match the container/heap reference, on a fresh engine and on the
// storage a finished engine yielded with events still pending, and both
// must fire the same sequence. The seeds under testdata/fuzz replay in
// go test.
func FuzzHeapMatchesReference(f *testing.F) {
	for _, depth := range []uint16{1, 5, 64} {
		f.Add(depth, int64(depth))
	}
	f.Fuzz(func(t *testing.T, depth uint16, seed int64) {
		d := 1 + int(depth)%maxFuzzDepth
		fresh, _ := lockstep(t, New(), d, seed)

		donor := New()
		lockstep(t, donor, d, seed+1)
		for i := 0; i < d; i++ {
			donor.At(donor.Now()+Time(i), func() {})
		}
		donor.RunUntil(donor.Now() + Time(d/2))
		reused := New()
		reused.Reuse(donor.Yield())
		if got, _ := lockstep(t, reused, d, seed); !slices.Equal(got, fresh) {
			t.Fatalf("depth %d seed %d: reused storage fired %d events, a fresh engine %d, or in another order", d, seed, len(got), len(fresh))
		}
	})
}
