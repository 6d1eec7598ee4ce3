package fluid

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdq/internal/sim"
	"pdq/internal/workload"
)

// Metamorphic relations on the fluid schedulers, the flow-level ones'
// counterpart in internal/flowsim: shifting every arrival by Δ moves every
// completion by exactly Δ, and multiplying the link rate and every size by
// 2ᵏ moves nothing — a transmission time is size·8/rate, whose rounding a
// power of two does not change.

// metaFlows is a seeded mix of sizes (multiples of 64 bytes, so a scaling
// by 2⁻⁶ stays whole), arrivals over 20 ms and deadlines.
func metaFlows(seed int64) []workload.Flow {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]workload.Flow, 40)
	for i := range flows {
		flows[i] = workload.Flow{ID: uint64(i + 1),
			Size:     int64(1+rng.Intn(4000)) * 64,
			Start:    sim.Time(rng.Int63n(int64(20 * sim.Millisecond))),
			Deadline: sim.Time(1+rng.Intn(25)) * sim.Millisecond}
	}
	return flows
}

// atTimeZero is flows with every arrival at 0, as MooreHodgson takes them.
func atTimeZero(flows []workload.Flow) []workload.Flow {
	out := slices.Clone(flows)
	for i := range out {
		out[i].Start = 0
	}
	return out
}

// sameCompletion asserts that b completes every flow a does, shift later,
// and no other.
func sameCompletion(t *testing.T, a, b Completion, shift sim.Time) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d flows complete, want %d", len(b), len(a))
	}
	for id, at := range a {
		if got, ok := b[id]; !ok || got != at+shift {
			t.Fatalf("flow %d completes at %v (listed %v), want %v", id, got, ok, at+shift)
		}
	}
}

var schedulers = []struct {
	name string
	run  func([]workload.Flow, int64) Completion
}{
	{"SRPT", SRPT},
	{"FairShare", FairShare},
}

func TestMetamorphicTimeShift(t *testing.T) {
	flows := metaFlows(1)
	for _, s := range schedulers {
		base := s.run(flows, gbps)
		for _, shift := range []sim.Time{1, 999, 3 * sim.Second} {
			moved := slices.Clone(flows)
			for i := range moved {
				moved[i].Start += shift
			}
			t.Run(s.name, func(t *testing.T) { sameCompletion(t, base, s.run(moved, gbps), shift) })
		}
	}
}

func TestMetamorphicScaling(t *testing.T) {
	flows := metaFlows(2)
	scale := func(fs []workload.Flow, k int) []workload.Flow {
		out := slices.Clone(fs)
		for i := range out {
			out[i].Size = int64(math.Ldexp(float64(out[i].Size), k))
		}
		return out
	}
	for _, k := range []int{-6, -1, 1, 5} {
		bps := int64(math.Ldexp(gbps, k))
		for _, s := range schedulers {
			t.Run(s.name, func(t *testing.T) { sameCompletion(t, s.run(flows, gbps), s.run(scale(flows, k), bps), 0) })
		}
		t.Run("MooreHodgson", func(t *testing.T) {
			at0 := atTimeZero(flows)
			want, wantTardy := MooreHodgson(at0, gbps)
			if len(wantTardy) == 0 {
				t.Fatal("no flow is discarded: the relation would not cover the tardy set")
			}
			got, gotTardy := MooreHodgson(scale(at0, k), bps)
			sameCompletion(t, want, got, 0)
			if !slices.Equal(gotTardy, wantTardy) {
				t.Fatalf("discarded %v, want %v", gotTardy, wantTardy)
			}
		})
	}
}
