package flowsim

import (
	"maps"
	"math"
	"slices"
	"testing"

	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// RCP resumes each call from the last one's filling (DESIGN.md §4). These
// tests hold it to an RCP rebuilt on every call, bit for bit, where the
// resume must notice what it cannot reuse.

// sameAsFresh runs a resuming RCP and a fresh one on clones of flows and
// fails unless every rate has the same bits.
func sameAsFresh(t *testing.T, p *RCP, flows []*FlowState, cap func(*netsim.Link) float64) {
	t.Helper()
	clones := make([]*FlowState, len(flows))
	for i, f := range flows {
		c := *f
		clones[i] = &c
	}
	p.Allocate(0, flows, cap)
	freshRCP{}.Allocate(0, clones, cap)
	for i, f := range flows {
		if !near(f.Rate, clones[i].Rate, 0) {
			t.Fatalf("flow %d: resumed rate %v (%#x), fresh %v (%#x)",
				f.ID, f.Rate, math.Float64bits(f.Rate), clones[i].Rate, math.Float64bits(clones[i].Rate))
		}
	}
}

// resumed reports whether p has listed a departure since it last filled
// from level 0.
func resumed(p *RCP) bool {
	return slices.ContainsFunc(p.flows, func(lf rcpFlow) bool { return lf.gone })
}

// TestRCPResumeMatchesFreshInSim compares every Allocate call of a
// fat-tree k=8 permutation run, arrivals in four waves, with a fresh RCP.
func TestRCPResumeMatchesFreshInSim(t *testing.T) {
	tp := topo.FatTree(8, 1)
	g := workload.NewGen(1, workload.UniformMean(100<<10), 0)
	flows := g.Batch(320, workload.Permutation{}, len(tp.Hosts), nil, 0)
	for i := range flows {
		flows[i].Start = sim.Time(i/80) * 3 * sim.Millisecond
	}
	p := NewRCP()
	sh := &shadowAlloc{t: t, allocPair: allocPair{got: p, ref: freshRCP{}},
		clones: map[*FlowState]*FlowState{}, first: map[*FlowState]**netsim.Link{}}
	s := newCheckedSim(t, tp, sh)
	resumes, invariants := 0, s.check
	s.check = func(active []*FlowState) {
		invariants(active)
		if resumed(p) {
			resumes++
		}
	}
	for _, f := range flows {
		s.Start(f)
	}
	s.Run(2 * sim.Second)
	if resumes < sh.calls/2 {
		t.Fatalf("%d of %d calls resumed: the run does not exercise the resume", resumes, sh.calls)
	}
}

// TestRCPResumeNICAboveLevel has a flow freeze at its NIC floor, which
// lies within 1e-9 above the round's level, and then depart. The cut is
// that round's level: the round must be filled again, not replayed, or
// the flow sharing the departed flow's link keeps its old rate.
func TestRCPResumeNICAboveLevel(t *testing.T) {
	link := func(id int, rate int64) *netsim.Link { return &netsim.Link{ID: id, Rate: rate} }
	m, s, nic := link(0, 1e9), link(1, 1e9), link(2, 1e6)
	caps := map[*netsim.Link]float64{m: 3e6 - 1e-9, s: 5e6, nic: 1e9}
	cap := func(l *netsim.Link) float64 { return caps[l] }
	flow := func(id uint64, path ...*netsim.Link) *FlowState {
		return &FlowState{Flow: workload.Flow{ID: id}, Path: path}
	}
	a, b, c := flow(1, m), flow(2, m), flow(3, m)
	d, e := flow(4, nic, s), flow(5, s)
	p := NewRCP()
	sameAsFresh(t, p, []*FlowState{a, b, c, d, e}, cap)
	if level := a.Rate; !(d.Rate > level && d.Rate <= level+1e-9) || p.flows[3].rnd != p.flows[0].rnd {
		t.Fatalf("flow 4 froze at %v in round %d, the level of round %d is %v: want its NIC floor just above the level, in that round",
			d.Rate, p.flows[3].rnd, p.flows[0].rnd, level)
	}
	sameAsFresh(t, p, []*FlowState{a, b, c, e}, cap)
	if e.Rate != 5e6 {
		t.Fatalf("flow 5 holds %v after flow 4 left, want all of its link, 5e6", e.Rate)
	}
}

// TestRCPResumePathReplaced fails flows over to another route between two
// calls in which another flow departs: the copied link IDs are stale and
// the call must fill from level 0.
func TestRCPResumePathReplaced(t *testing.T) {
	tp := unevenRates(topo.FatTree(4, 1))
	var flows []*FlowState
	for i := range 12 {
		f := workload.Flow{ID: uint64(i + 1), Src: i, Dst: (i*5 + 7) % len(tp.Hosts)}
		flows = append(flows, &FlowState{Flow: f, Path: tp.Path(tp.Hosts[f.Src], tp.Hosts[f.Dst])})
	}
	p := NewRCP()
	sameAsFresh(t, p, flows, linkCap)
	before := make([]float64, len(flows))
	for i, f := range flows {
		before[i] = f.Rate
	}
	moved := 0
	for _, f := range flows[1:] {
		if alts := tp.Paths(tp.Hosts[f.Src], tp.Hosts[f.Dst], 4); len(alts) > 1 {
			f.Path = alts[len(alts)-1]
			moved++
		}
	}
	sameAsFresh(t, p, flows[1:], linkCap)
	changed := 0
	for i, f := range flows[1:] {
		if f.Rate != before[i+1] {
			changed++
		}
	}
	if moved == 0 || changed == 0 {
		t.Fatalf("%d flows moved, %d rates changed: the failover does not test the path check", moved, changed)
	}
}

// TestRCPResumeCapacityChanged gives an unchanged flow set new capacities
// between calls: nothing departed, but every round is stale.
func TestRCPResumeCapacityChanged(t *testing.T) {
	tp := unevenRates(topo.FatTree(4, 1))
	var flows []*FlowState
	for i := range 16 {
		src, dst := tp.Hosts[i], tp.Hosts[(i+3)%16]
		flows = append(flows, &FlowState{Flow: workload.Flow{ID: uint64(i + 1)}, Path: tp.Path(src, dst)})
	}
	p := NewRCP()
	sameAsFresh(t, p, flows, linkCap)
	first := flows[0].Rate
	slow := flows[0].Path[1]
	eighth := func(l *netsim.Link) float64 {
		if l == slow {
			return linkCap(l) / 8
		}
		return linkCap(l)
	}
	sameAsFresh(t, p, flows, eighth)
	if flows[0].Rate == first {
		t.Fatalf("flow 1 kept %v on a link cut to an eighth: the capacity change does not bind", first)
	}
	sameAsFresh(t, p, flows, linkCap)
}

// TestRCPResumeLevelLinkLost has a departed flow cross the link that set
// an early round's level, in a round where that link did not saturate:
// a flow on it froze at a NIC floor far below the level. The round lies
// below the cut, yet without the departed flow the link sets a higher
// level, which NIC-freezes more flows at once, in another order.
func TestRCPResumeLevelLinkLost(t *testing.T) {
	var links []*netsim.Link
	caps := map[*netsim.Link]float64{}
	for i, lc := range []struct {
		rate int64
		cap  float64
	}{{1, 5.8}, {2, 5.6}, {1000, 8.1}, {7, 6.7}, {7, 4.2}} {
		l := &netsim.Link{ID: i, Rate: lc.rate}
		links = append(links, l)
		caps[l] = lc.cap
	}
	cap := func(l *netsim.Link) float64 { return caps[l] }
	var flows []*FlowState
	for i, path := range [][]int{{3}, {4, 3, 1}, {3, 1, 0}, {4}, {4}, {2, 3, 1}, {1}} {
		f := &FlowState{Flow: workload.Flow{ID: uint64(i + 1)}}
		for _, id := range path {
			f.Path = append(f.Path, links[id])
		}
		flows = append(flows, f)
	}
	p := NewRCP()
	sameAsFresh(t, p, flows, cap)
	sameAsFresh(t, p, append(flows[:5:5], flows[6]), cap)
}

// TestPooledAllocatorOnRewoundArena runs two flow-level cells with the
// same flows, one after the other, on one topology reset between them, as
// a sweep runs them: the second cell's FlowStates are the first's, carved
// again from the rewound arena at the same addresses and on the same
// memoized paths. A PDQ, RCP or D3 allocator handed from the first cell to
// the second must give every call the rates of a fresh allocator, bit for bit
// — kept in the network's arena (carve.Keep), which the reset rewinds, as
// the scenario runners keep it, and handed on without a Rewind, where
// RCP's resume and the order list's marks meet the same addresses again.
func TestPooledAllocatorOnRewoundArena(t *testing.T) {
	g := workload.NewGen(1, workload.UniformMean(100<<10), 20*sim.Millisecond)
	tp := topo.FatTree(4, 1)
	flows := g.Batch(48, workload.Permutation{}, len(tp.Hosts), nil, 5*sim.Millisecond)
	for i := range flows {
		flows[i].Start = sim.Time(i%6) * 2 * sim.Millisecond
	}
	// run returns the bits of every rate every Allocate call set, and the
	// run's FlowStates.
	run := func(tp *topo.Topology, a Allocator) (rates []uint64, states map[*FlowState]bool) {
		tp.Reset(sim.New(), 1)
		s := New(tp, a)
		states = map[*FlowState]bool{}
		s.check = func(active []*FlowState) {
			for _, f := range active {
				rates = append(rates, math.Float64bits(f.Rate))
				states[f] = true
			}
		}
		for _, f := range flows {
			s.Start(f)
		}
		s.Run(2 * sim.Second)
		return rates, states
	}
	type allocator interface {
		Allocator
		Rewind()
	}
	for name, mk := range map[string]func() allocator{
		"PDQ": func() allocator { return NewPDQ(CritPerfect, 1) },
		"RCP": func() allocator { return NewRCP() },
		"D3":  func() allocator { return NewD3() },
	} {
		want, _ := run(topo.FatTree(4, 1), mk())
		if len(want) == 0 {
			t.Fatal("no allocation was checked")
		}
		for _, kept := range []bool{true, false} {
			tp := topo.FatTree(4, 1)
			a := mk()
			if kept {
				a = carve.Keep(tp.Net.Arena(), func() allocator { return a })
			}
			first, states := run(tp, a)
			second, again := run(tp, a)
			if !maps.Equal(states, again) {
				t.Fatalf("%s: the second cell's FlowStates are not the first's: the test does not alias them", name)
			}
			for i, got := range [][]uint64{first, second} {
				if !slices.Equal(got, want) {
					t.Errorf("%s (kept in the arena: %v): cell %d's rates differ from a fresh allocator's", name, kept, i+1)
				}
			}
		}
	}
}

// TestRCPResumeFloorCapture departs a flow whose link then sets a level
// just below a logged round's, within the floor of the clean link that set
// that round: the fill from level 0 saturates the clean link at the new,
// lower level too. The logged round cannot replay, nor can the new one
// leave the clean link out: only a scan finds it.
func TestRCPResumeFloorCapture(t *testing.T) {
	link := func(id int) *netsim.Link { return &netsim.Link{ID: id, Rate: 1e12} } // NICs never bind
	d, e, c := link(0), link(1), link(2)
	caps := map[*netsim.Link]float64{d: 3e8, e: 3e8, c: 3e8 + 20}
	cap := func(l *netsim.Link) float64 { return caps[l] }
	var flows []*FlowState
	for i, l := range []*netsim.Link{d, d, d, e, e, e, c, c} {
		flows = append(flows, &FlowState{Flow: workload.Flow{ID: uint64(i + 1)}, Path: []*netsim.Link{l}})
	}
	// Bystanders, each alone on a link of its own, fill later rounds: the
	// call visits too little of the fill to hand over before the round.
	for i := range 40 {
		l := link(3 + i)
		caps[l] = 1e9 + float64(i)*1e6
		flows = append(flows, &FlowState{Flow: workload.Flow{ID: uint64(len(flows) + 1)}, Path: []*netsim.Link{l}})
	}
	p := NewRCP()
	sameAsFresh(t, p, flows, cap)
	if got := flows[6].Rate; got != (3e8+20)/2 {
		t.Fatalf("flow 7 froze at %v before the departure, want its link's level %v", got, (3e8+20)/2)
	}
	sameAsFresh(t, p, flows[1:], cap)
	if got := flows[6].Rate; got != 1.5e8 {
		t.Fatalf("flow 7 froze at %v after flow 1 left, want the departed flow's link's level 1.5e8, within its link's floor", got)
	}
}

// TestRCPResumeNICThenLevel departs a flow that froze at its NIC floor in
// the first round, so the call rewrites its link from there. In that round
// the link also takes another flow's NIC freeze and two λ freezes; the
// flow left on it afterwards holds the residual, whose last bit depends on
// making the NIC freeze first, as the fill from level 0 does.
func TestRCPResumeNICThenLevel(t *testing.T) {
	link := func(id int, rate int64) *netsim.Link { return &netsim.Link{ID: id, Rate: rate} }
	shared, b, c := link(0, 1e12), link(1, 1e12), link(2, 1e12)
	nicA, nicD := link(3, 333333333), link(4, 333333332)
	const level = 333333333.90392005
	caps := map[*netsim.Link]float64{shared: 1700369955.166548, b: level, c: level, nicA: 1e12, nicD: 1e12}
	cap := func(l *netsim.Link) float64 { return caps[l] }
	flows := []*FlowState{
		{Flow: workload.Flow{ID: 1}, Path: []*netsim.Link{nicA, shared}},
		{Flow: workload.Flow{ID: 2}, Path: []*netsim.Link{b, shared}},
		{Flow: workload.Flow{ID: 3}, Path: []*netsim.Link{c, shared}},
		{Flow: workload.Flow{ID: 4}, Path: []*netsim.Link{nicD, shared}},
		{Flow: workload.Flow{ID: 5}, Path: []*netsim.Link{shared}},
	}
	p := NewRCP()
	sameAsFresh(t, p, flows, cap)
	left := append(flows[:3:3], flows[4])
	sameAsFresh(t, p, left, cap)
	want := ((caps[shared] - 333333333) - level) - level
	if swapped := ((caps[shared] - level) - level) - 333333333; want == swapped || flows[4].Rate != want {
		t.Fatalf("flow 5 holds %v, want %v (λ freezes first: %v): the case does not tell the orders apart", flows[4].Rate, want, swapped)
	}
}
