package flowsim

import (
	"testing"

	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

var steadyAllocators = []struct {
	name string
	mk   func() Allocator
}{
	{"PDQ", func() Allocator { return NewPDQ(CritPerfect, 1) }},
	{"PDQ-aging", func() Allocator { p := NewPDQ(CritPerfect, 1); p.AgingRate = 2; return p }},
	{"RCP", func() Allocator { return NewRCP() }},
	{"D3", func() Allocator { return NewD3() }},
}

// TestStepSteadyStateAllocs pins the zero-allocation contract of the
// fluid simulator's step, for every allocator.
//
// frozen: with the allocator scratch grown to its high-water mark and a
// stable set of active flows (sizes far beyond the horizon, so nothing
// completes), advancing the clock must not allocate.
//
// churn: the same with flows arriving and completing, which is where the
// allocators keep state between calls — the kept order lists compact and
// append, RCP's unfrozen-flow and live-link lists shrink and refill. One
// run warms the allocator to the high-water mark; a second, identical Sim
// handed the same allocator must then step from first arrival to last
// completion without allocating outside Start.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, a := range steadyAllocators {
		t.Run("frozen/"+a.name, func(t *testing.T) {
			tp := topo.SingleBottleneck(8, 1)
			s := New(tp, a.mk())
			for i := 0; i < 4; i++ {
				s.Start(workload.Flow{ID: uint64(i + 1), Src: i, Dst: 8, Size: 1 << 40})
			}
			h := 100 * sim.Millisecond
			s.Run(h) // warm-up: admit every flow, grow the scratch
			allocs := testing.AllocsPerRun(100, func() {
				h += sim.Millisecond
				s.Run(h)
			})
			if allocs > 0 {
				t.Errorf("steady-state step allocates %.1f times per run, want 0", allocs)
			}
		})
		t.Run("churn/"+a.name, func(t *testing.T) {
			tp := topo.FatTree(4, 1)
			g := workload.NewGen(5, workload.UniformMean(200<<10), 30*sim.Millisecond)
			flows := g.Batch(96, workload.Permutation{}, len(tp.Hosts), nil, 0)
			for i := range flows {
				flows[i].Start = sim.Time(i) * 250 * sim.Microsecond // arrivals over 24 ms
			}
			alloc := a.mk()
			start := func() *Sim {
				s := New(tp, alloc)
				for _, f := range flows {
					s.Start(f)
				}
				s.active = make([]*FlowState, 0, len(flows))
				return s
			}
			const horizon = 400 * sim.Millisecond
			start().Run(horizon) // the allocator's lists and scratch reach their high-water mark

			// AllocsPerRun reports an integer average, which would round a
			// handful of slice growths over hundreds of steps down to zero,
			// so the whole run is one measured call: its warm-up call takes
			// the first step, the measured one everything after.
			s := start()
			h := sim.Millisecond
			allocs := testing.AllocsPerRun(1, func() {
				s.Run(h)
				h = horizon
			})
			if allocs > 0 {
				t.Errorf("stepping through arrivals and completions allocates %.0f times, want 0", allocs)
			}
			var done, late int
			for _, r := range s.Results() {
				if r.Done() {
					done++
				}
				if r.Start > sim.Millisecond {
					late++
				}
			}
			if done != len(flows) || late < len(flows)/2 {
				t.Fatalf("%d of %d flows finished, %d arrived after the first step: the run does not cover arrivals and completions", done, len(flows), late)
			}
		})
	}
}
