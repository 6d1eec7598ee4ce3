package scenario

import (
	"testing"

	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// shiftExact lists the packet runners the time-shift relation holds for.
// The others read absolute time, for two causes DESIGN.md §5 names: an
// RTT is sampled only from an echo stamped after t = 0, so a handshake
// sent at t = 0 yields none (D3, RCP, PDQ); and RCP's and PDQ's rate
// controllers anchor their first period at t = 0 rather than at the link's
// first packet (RCP, PDQ).
var shiftExact = []string{"TCP", "DCTCP", "pFabric"}

// TestPacketTimeShift is the packet slice of the time-shift relation:
// each runner in shiftExact runs a 12-flow permutation batch with 20 ms
// mean deadlines on the paper's 12-server tree, then the same batch with
// every start delayed by Δ = 7 ms; every finish must move by exactly Δ
// and every other outcome and counter stay unchanged.
func TestPacketTimeShift(t *testing.T) {
	const delta = 7 * sim.Millisecond
	hosts := 12
	batch := func(start sim.Time) []workload.Flow {
		g := workload.NewGen(3, workload.UniformMean(100<<10), workload.MeanDeadlineDflt)
		return g.Batch(hosts, workload.Permutation{}, hosts, nil, start)
	}
	for _, name := range shiftExact {
		e, ok := runners.Lookup(name)
		if !ok {
			t.Fatalf("no runner %s", name)
		}
		t.Run(e.Name, func(t *testing.T) {
			run := func(flows []workload.Flow) []workload.Result {
				build := func() *topo.Topology { return topo.SingleRootedTree(4, 3, 1) }
				return e.Make(e.Params, 1)(build, flows, RunCtx{Horizon: sim.Second})
			}
			base, shifted := run(batch(0)), run(batch(delta))
			differ := 0
			for i, b := range base {
				s := shifted[i]
				s.Start -= delta
				if s.Finish >= 0 {
					s.Finish -= delta
				}
				if s != b || b.Finish < 0 {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d flows differ under a %v shift", differ, len(base), delta)
			}
		})
	}
}
