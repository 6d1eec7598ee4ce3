package rcp

import (
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

func run(t *testing.T, tp *topo.Topology, flows []workload.Flow, horizon sim.Time) []workload.Result {
	t.Helper()
	sys := Install(tp, Config{})
	for _, f := range flows {
		sys.Start(f)
	}
	tp.Sim().RunUntil(horizon)
	return sys.Results()
}

func TestSingleFlow(t *testing.T) {
	tp := topo.SingleBottleneck(1, 1)
	rs := run(t, tp, []workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 100 << 10}}, sim.Second)
	if !rs[0].Done() {
		t.Fatal("flow incomplete")
	}
	if rs[0].FCT() > 2*sim.Millisecond {
		t.Errorf("FCT %v too large for solo flow", rs[0].FCT())
	}
}

func TestFairSharingTwoFlows(t *testing.T) {
	// RCP is processor sharing: two equal flows starting together finish
	// at (nearly) the same time, each at ~half rate — the opposite of
	// PDQ's sequential schedule.
	tp := topo.SingleBottleneck(2, 1)
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, Size: 1 << 20},
		{ID: 2, Src: 1, Dst: 2, Size: 1 << 20},
	}
	rs := run(t, tp, flows, sim.Second)
	if !rs[0].Done() || !rs[1].Done() {
		t.Fatal("flows incomplete")
	}
	// Each ~1 MB at ~500 Mbps ⇒ ~17 ms; both must be in the same ballpark.
	for _, r := range rs {
		if r.FCT() < 14*sim.Millisecond || r.FCT() > 25*sim.Millisecond {
			t.Errorf("FCT %v outside fair-sharing ballpark", r.FCT())
		}
	}
	gap := rs[0].Finish - rs[1].Finish
	if gap < 0 {
		gap = -gap
	}
	if gap > 3*sim.Millisecond {
		t.Errorf("finish gap %v too large for fair sharing", gap)
	}
}

func TestFairShareScalesWithN(t *testing.T) {
	// Five equal flows: each ≈ C/5, so FCT ≈ 5× the solo time for all.
	tp := topo.SingleBottleneck(5, 1)
	var flows []workload.Flow
	for i := 0; i < 5; i++ {
		flows = append(flows, workload.Flow{ID: uint64(i + 1), Src: i, Dst: 5, Size: 500 << 10})
	}
	rs := run(t, tp, flows, sim.Second)
	for _, r := range rs {
		if !r.Done() {
			t.Fatal("flow incomplete")
		}
		if r.FCT() < 17*sim.Millisecond || r.FCT() > 30*sim.Millisecond {
			t.Errorf("FCT %v, want ≈21 ms (C/5 each)", r.FCT())
		}
	}
}

func TestExactFlowCountReleasedOnTERM(t *testing.T) {
	// After the first flow finishes (TERM), the second should speed up to
	// the full rate; total time ≈ solo+solo×2/2 — just check the later
	// flow is faster than 2× solo of its full size.
	tp := topo.SingleBottleneck(2, 1)
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, Size: 200 << 10},
		{ID: 2, Src: 1, Dst: 2, Size: 2 << 20},
	}
	rs := run(t, tp, flows, sim.Second)
	if !rs[1].Done() {
		t.Fatal("long flow incomplete")
	}
	// 2 MB solo ≈ 17.5 ms; sharing for the first ~3 ms only.
	if rs[1].FCT() > 25*sim.Millisecond {
		t.Errorf("long flow FCT %v: flow count not released on TERM?", rs[1].FCT())
	}
}

func TestLossResilience(t *testing.T) {
	tp := topo.SingleBottleneck(2, 1)
	b := tp.Hosts[2].Access.Peer
	b.LossRate = 0.02
	b.Peer.LossRate = 0.02
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 2, Size: 300 << 10},
		{ID: 2, Src: 1, Dst: 2, Size: 300 << 10},
	}
	rs := run(t, tp, flows, 10*sim.Second)
	for _, r := range rs {
		if !r.Done() {
			t.Fatal("flow lost under 2% loss")
		}
	}
}

func TestDeterministic(t *testing.T) {
	do := func() []workload.Result {
		tp := topo.SingleRootedTree(4, 3, 2)
		g := workload.NewGen(2, workload.UniformMean(100<<10), 0)
		return run(t, tp, g.Batch(12, workload.Permutation{}, 12, nil, 0), sim.Second)
	}
	a, b := do(), do()
	for i := range a {
		if a[i].Finish != b[i].Finish {
			t.Fatalf("nondeterministic RCP run at flow %d", i)
		}
	}
}

// TestResetLinkStateRebuilds crashes a link's controller between packets,
// as a switch crash does (fault.SoftStateResetter): the link's next
// forward packet must find a fresh flow count and fair rate, one flow at
// the full link rate, not the two flows and half rate standing before.
func TestResetLinkStateRebuilds(t *testing.T) {
	tp := topo.SingleBottleneck(2, 1)
	l := (*logic)(Install(tp, Config{}))
	link := tp.Hosts[2].Access.Peer
	forward := func(flow netsim.FlowID) int64 {
		pkt := &netsim.Packet{Flow: flow, Kind: netsim.DATA, Hdr: &Header{Rate: link.Rate}}
		l.Process(nil, pkt, nil, link)
		return pkt.Hdr.(*Header).Rate
	}
	var before, after int64
	sm := tp.Sim()
	sm.At(updatePeriod, func() { forward(1); forward(2) })
	sm.At(2*updatePeriod, func() { before = forward(1) })
	sm.At(2*updatePeriod+1, func() {
		l.ResetLinkState(link)
		after = forward(3)
	})
	sm.Run()
	if before != link.Rate/2 {
		t.Fatalf("two flows before the crash get %d, want half of %d", before, link.Rate)
	}
	if st := l.states[link.ID]; after != link.Rate || len(st.flows) != 1 || st.rate != link.Rate {
		t.Errorf("after the crash: rate %d, %d flows counted at fair rate %d; want one flow at %d", after, len(st.flows), st.rate, link.Rate)
	}
}
