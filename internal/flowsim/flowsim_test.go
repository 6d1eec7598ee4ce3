package flowsim

import (
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

func runAlloc(t *testing.T, alloc Allocator, et bool, flows []workload.Flow, horizon sim.Time) []workload.Result {
	t.Helper()
	tp := topo.SingleBottleneck(8, 1)
	s := New(tp, alloc)
	s.ET = et
	for _, f := range flows {
		s.Start(f)
	}
	s.Run(horizon)
	return s.Results()
}

func TestPDQSequentialService(t *testing.T) {
	var flows []workload.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, workload.Flow{ID: uint64(i + 1), Src: i, Dst: 8, Size: 1 << 20})
	}
	rs := runAlloc(t, NewPDQ(CritPerfect, 1), false, flows, sim.Second)
	var finishes []sim.Time
	for _, r := range rs {
		if !r.Done() {
			t.Fatal("flow incomplete")
		}
		finishes = append(finishes, r.Finish)
	}
	// Sequential: gaps of ~8.7 ms between consecutive completions.
	for i := 1; i < len(finishes); i++ {
		gap := finishes[i] - finishes[i-1]
		if gap < 7*sim.Millisecond || gap > 11*sim.Millisecond {
			t.Errorf("completion gap %v, want ≈8.7 ms (sequential SJF)", gap)
		}
	}
}

// TestHaltStopsAfterTheStep drives Halt the way a search probe does —
// from the collector's watcher, inside a step — and checks that Run
// returns once that step is complete, and that a second Run carries on to
// the results of a run never halted.
func TestHaltStopsAfterTheStep(t *testing.T) {
	var flows []workload.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, workload.Flow{ID: uint64(i + 1), Src: i, Dst: 8, Size: 1 << 20, Deadline: sim.Second})
	}
	want := runAlloc(t, NewPDQ(CritPerfect, 1), false, flows, sim.Second)

	s := New(topo.SingleBottleneck(8, 1), NewPDQ(CritPerfect, 1))
	for _, f := range flows {
		s.Start(f)
	}
	s.Collector.Watch(func(ty workload.Tally) {
		if ty.Met == 2 {
			s.Halt()
		}
	})
	s.Run(sim.Second)
	second := want[1].Finish // sequential service: flow 2 is the second to finish
	if s.now < second || s.now >= second+s.Step {
		t.Fatalf("halted run stopped at %v, want within one step after the second finish at %v", s.now, second)
	}
	if got := s.Collector.Tally(); got.Met != 2 {
		t.Fatalf("tally at the halt %+v, want 2 met", got)
	}
	s.Run(sim.Second)
	for i, r := range s.Results() {
		if r != want[i] {
			t.Errorf("resumed flow %d: %+v, uninterrupted %+v", r.ID, r, want[i])
		}
	}
}

func TestRCPSimultaneousService(t *testing.T) {
	var flows []workload.Flow
	for i := 0; i < 4; i++ {
		flows = append(flows, workload.Flow{ID: uint64(i + 1), Src: i, Dst: 8, Size: 1 << 20})
	}
	rs := runAlloc(t, NewRCP(), false, flows, sim.Second)
	for _, r := range rs {
		if !r.Done() {
			t.Fatal("flow incomplete")
		}
		// 4 flows sharing: each ≈ 4×8.7 ≈ 35 ms.
		if r.FCT() < 30*sim.Millisecond || r.FCT() > 40*sim.Millisecond {
			t.Errorf("FCT %v, want ≈35 ms under fair sharing", r.FCT())
		}
	}
}

func TestPDQBeatsRCPMeanFCT(t *testing.T) {
	g := workload.NewGen(7, workload.UniformMean(100<<10), 0)
	mk := func() []workload.Flow { return g.Batch(20, workload.Aggregation{}, 9, nil, 0) }
	fl := mk()
	pdq := stats.MeanFCT(runAlloc(t, NewPDQ(CritPerfect, 1), false, fl, sim.Second), nil)
	rcp := stats.MeanFCT(runAlloc(t, NewRCP(), false, fl, sim.Second), nil)
	if pdq >= rcp {
		t.Errorf("PDQ mean FCT %.4f not better than RCP %.4f", pdq, rcp)
	}
	// Paper: ~30% mean-FCT savings.
	if pdq > 0.8*rcp {
		t.Errorf("PDQ/RCP FCT ratio %.2f, expected ≤0.8", pdq/rcp)
	}
}

func TestD3EqualsRCPWithoutDeadlines(t *testing.T) {
	g := workload.NewGen(3, workload.UniformMean(100<<10), 0)
	fl := g.Batch(10, workload.Aggregation{}, 9, nil, 0)
	d3 := stats.MeanFCT(runAlloc(t, NewD3(), false, fl, sim.Second), nil)
	rcp := stats.MeanFCT(runAlloc(t, NewRCP(), false, fl, sim.Second), nil)
	ratio := d3 / rcp
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("D3 (no deadlines) mean FCT %.4f vs RCP %.4f: should match (§5.1)", d3, rcp)
	}
}

func TestPDQDeadlinesBeatD3(t *testing.T) {
	g := workload.NewGen(11, workload.UniformMean(100<<10), 20*sim.Millisecond)
	fl := g.Batch(16, workload.Aggregation{}, 9, nil, 0)
	pdq := stats.AppThroughput(runAlloc(t, NewPDQ(CritPerfect, 1), true, fl, sim.Second))
	d3 := stats.AppThroughput(runAlloc(t, NewD3(), false, fl, sim.Second))
	if pdq < d3 {
		t.Errorf("PDQ app throughput %.1f%% < D3 %.1f%%", pdq, d3)
	}
}

func TestEarlyTermination(t *testing.T) {
	// Hopeless flow is dropped, feasible flow meets its deadline.
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 8, Size: 50 << 20, Deadline: 5 * sim.Millisecond},
		{ID: 2, Src: 1, Dst: 8, Size: 100 << 10, Deadline: 20 * sim.Millisecond},
	}
	rs := runAlloc(t, NewPDQ(CritPerfect, 1), true, flows, sim.Second)
	if !rs[0].Terminated {
		t.Error("hopeless flow not terminated")
	}
	if !rs[1].MetDeadline() {
		t.Errorf("feasible flow missed: %+v", rs[1])
	}
}

func TestRandomCriticalityHurtsHeavyTail(t *testing.T) {
	// Fig. 10: with Pareto(1.1) sizes, random criticality should clearly
	// lose to perfect information.
	g := workload.NewGen(13, workload.Pareto{Alpha: 1.1, MeanSize: 100 << 10}, 0)
	fl := g.Batch(10, workload.Aggregation{}, 9, nil, 0)
	perfect := stats.MeanFCT(runAlloc(t, NewPDQ(CritPerfect, 1), false, fl, 20*sim.Second), nil)
	random := stats.MeanFCT(runAlloc(t, NewPDQ(CritRandom, 1), false, fl, 20*sim.Second), nil)
	if random <= perfect {
		t.Errorf("random criticality %.4f should be worse than perfect %.4f", random, perfect)
	}
}

func TestSizeEstimationClosesGap(t *testing.T) {
	// Fig. 10: size estimation should be competitive (close to perfect,
	// and no worse than random).
	g := workload.NewGen(13, workload.Pareto{Alpha: 1.1, MeanSize: 100 << 10}, 0)
	fl := g.Batch(10, workload.Aggregation{}, 9, nil, 0)
	perfect := stats.MeanFCT(runAlloc(t, NewPDQ(CritPerfect, 1), false, fl, 20*sim.Second), nil)
	estimate := stats.MeanFCT(runAlloc(t, NewPDQ(CritEstimate, 1), false, fl, 20*sim.Second), nil)
	random := stats.MeanFCT(runAlloc(t, NewPDQ(CritRandom, 1), false, fl, 20*sim.Second), nil)
	if estimate > random {
		t.Errorf("estimation %.4f worse than random %.4f", estimate, random)
	}
	if estimate > 2*perfect {
		t.Errorf("estimation %.4f too far from perfect %.4f", estimate, perfect)
	}
}

func TestAgingReducesWorstCase(t *testing.T) {
	// Fig. 12: aging trades a little mean FCT for a much better max.
	// A large flow contends with a steady stream of later small flows
	// that would otherwise always preempt it under SRPT.
	mk := func() []workload.Flow {
		fl := []workload.Flow{{ID: 1, Src: 0, Dst: 8, Size: 2 << 20}}
		for i := 0; i < 100; i++ {
			fl = append(fl, workload.Flow{
				ID: uint64(i + 2), Src: 1 + i%7, Dst: 8,
				Size:  100 << 10,
				Start: sim.Time(i) * sim.Millisecond,
			})
		}
		return fl
	}
	runOn := func(aging float64) []workload.Result {
		tp := topo.SingleBottleneck(8, 1)
		p := NewPDQ(CritPerfect, 1)
		p.AgingRate = aging
		s := New(tp, p)
		for _, f := range mk() {
			s.Start(f)
		}
		s.Run(5 * sim.Second)
		return s.Results()
	}
	plain := runOn(0)
	aged := runOn(16)
	worst := func(rs []workload.Result) float64 {
		var m float64
		for _, r := range rs {
			if !r.Done() {
				t.Fatal("incomplete flow")
			}
			if v := r.FCT().Seconds(); v > m {
				m = v
			}
		}
		return m
	}
	if worst(aged) >= worst(plain) {
		t.Errorf("aging did not reduce worst FCT: %.4f vs %.4f", worst(aged), worst(plain))
	}
}

func TestNoLinkOversubscribed(t *testing.T) {
	// Property: after any allocation, no link carries more than its
	// capacity (within float tolerance).
	tp := topo.FatTree(4, 1)
	g := workload.NewGen(23, workload.UniformMean(500<<10), 0)
	fl := g.Batch(48, workload.Permutation{}, len(tp.Hosts), nil, 0)
	for _, alloc := range []Allocator{NewPDQ(CritPerfect, 1), NewRCP(), NewD3()} {
		s := New(tp, alloc)
		var states []*FlowState
		for _, f := range fl {
			s.Start(f)
			states = append(states, s.pending[len(s.pending)-1])
		}
		alloc.Allocate(0, states, func(l *netsim.Link) float64 { return float64(l.Rate) })
		load := map[*netsim.Link]float64{}
		for _, f := range states {
			if f.Rate < 0 {
				t.Fatalf("%s: negative rate", alloc.Name())
			}
			for _, l := range f.Path {
				load[l] += f.Rate
			}
		}
		for l, v := range load {
			if v > float64(l.Rate)*1.0001 {
				t.Errorf("%s: link %v oversubscribed: %.0f > %d", alloc.Name(), l, v, l.Rate)
			}
		}
	}
}

func TestFlowLevelMatchesPacketLevelShape(t *testing.T) {
	// Fig. 8 sanity: flow-level PDQ FCT should be within ~20% of the
	// packet-level result on a small scenario.
	g := workload.NewGen(29, workload.UniformMean(100<<10), 0)
	fl := g.Batch(10, workload.Aggregation{}, 9, nil, 0)
	flowLevel := stats.MeanFCT(runAlloc(t, NewPDQ(CritPerfect, 1), false, fl, sim.Second), nil)
	if flowLevel <= 0 {
		t.Fatal("no flow-level results")
	}
	// Packet-level equivalent is exercised in internal/exp tests; here we
	// check the analytic bound: sequential SJF service of ~1 MB total at
	// ~960 Mbps goodput ⇒ mean FCT in the low milliseconds.
	if flowLevel > 0.02 {
		t.Errorf("flow-level mean FCT %.4fs implausible", flowLevel)
	}
}
