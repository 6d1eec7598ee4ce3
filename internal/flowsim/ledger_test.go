package flowsim

import (
	"math"
	"slices"
	"testing"

	"pdq/internal/fault"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// TestLedgerTakesEveryPath runs the differential streams and checks that
// the kept PDQ and D3 the drivers hold to fresh ones (freshPairs) took
// both paths of a call: a walk of the flows a change reaches, and a full
// walk after the first call (an order sorted anew, D3 deadlines). Both are
// then held bit for bit to a walk from the capacities.
func TestLedgerTakesEveryPath(t *testing.T) {
	for _, cfg := range diffCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			var sum [2]ledgerStats
			for ti, tc := range diffTopos {
				as := beside(cfg, int64(ti+1))
				d := newDiffDriver(t, tc.build(), cfg.deadlines, as...)
				d.run(seededStream(int64(ti+1)), 300)
				for i, a := range as[1:3] {
					st := ledgerOf(a.got).stats
					sum[i].calls += st.calls
					sum[i].full += st.full
					sum[i].hops += st.hops
					sum[i].visited += st.visited
				}
			}
			for i, st := range sum {
				name := [2]string{"PDQ", "D3"}[i]
				if st.full <= len(diffTopos) {
					t.Errorf("%s: %+v: no full walk after a first call", name, st)
				}
				if i == 1 && cfg.deadlines {
					continue // deadlines reserve on every call: D3 walks in full
				}
				if st.full >= st.calls || st.visited >= st.hops/2 {
					t.Errorf("%s: %+v: calls do not recompute only what changed", name, st)
				}
			}
		})
	}
}

// TestLedgerVisitsWhatChanged runs one draw of each of the benchmark's
// flow-scale cells — 2.5 flows per host of 100 KB mean in a permutation
// on fat-tree k=8 and on BCube(4,3), no deadlines — and bounds the
// flow-hops PDQ and D3 recompute against those a full walk visits on
// every call.
func TestLedgerVisitsWhatChanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tp      *topo.Topology
		pdq, d3 float64 // bounds on visited / full-walk flow-hops
	}{
		{"fat-tree-k8", topo.FatTree(8, 1), 0.25, 0.5},
		{"bcube-4-3", topo.BCube(4, 3, 1), 0.02, 0.02},
	} {
		g := workload.NewGen(1, workload.UniformMean(100<<10), 0)
		flows := g.Batch(5*len(tc.tp.Hosts)/2, workload.Permutation{}, len(tc.tp.Hosts), nil, 0)
		for i, a := range []Allocator{NewPDQ(CritPerfect, 1), NewD3()} {
			s := New(tc.tp, a)
			for _, f := range flows {
				s.Start(f)
			}
			s.Run(2 * sim.Second)
			st := ledgerOf(a).stats
			share, bound := float64(st.visited)/float64(st.hops), [2]float64{tc.pdq, tc.d3}[i]
			t.Logf("%s %T: %d calls, %d full; %d of %d flow-hops visited (%.3f)",
				tc.name, a, st.calls, st.full, st.visited, st.hops, share)
			if share > bound {
				t.Errorf("%s %T visited %.3f of a full walk's flow-hops, want ≤ %v", tc.name, a, share, bound)
			}
		}
	}
}

// ledgerOf is a PDQ's or a D3's ledger.
func ledgerOf(a Allocator) *ledger {
	if p, ok := a.(*PDQ); ok {
		return &p.ledger
	}
	return &a.(*D3).ledger
}

// TestPDQResetMatchesNew hands one PDQ from run to run through Reset, as
// the scenario runners do, with a mode, seed and aging rate of its own for
// each: every run must give the results of a PDQ built fresh for it.
func TestPDQResetMatchesNew(t *testing.T) {
	// TestAgingReducesWorstCase's stream, on which aging moves results: a
	// large flow and later small ones that would always preempt it.
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 8, Size: 2 << 20}}
	for i := 0; i < 60; i++ {
		flows = append(flows, workload.Flow{ID: uint64(i + 2), Src: 1 + i%7, Dst: 8,
			Size: 100 << 10, Start: sim.Time(i) * sim.Millisecond})
	}
	tp := topo.SingleBottleneck(8, 1)
	run := func(a Allocator) []workload.Result {
		tp.Reset(sim.New(), 1)
		s := New(tp, a)
		for _, f := range flows {
			s.Start(f)
		}
		s.Run(5 * sim.Second)
		return s.Results()
	}
	kept := NewPDQ(CritPerfect, 1)
	for _, c := range []struct {
		mode  CritMode
		seed  int64
		aging float64
	}{{CritRandom, 7, 0}, {CritPerfect, 1, 16}, {CritPerfect, 1, 0}, {CritRandom, 9, 0}, {CritEstimate, 3, 0}} {
		fresh := NewPDQ(c.mode, c.seed)
		fresh.AgingRate = c.aging
		want := run(fresh)
		kept.Reset(c.mode, c.seed, c.aging)
		if got := run(kept); !slices.Equal(got, want) {
			t.Errorf("mode %d seed %d aging %v: a reset PDQ's results differ from a fresh one's", c.mode, c.seed, c.aging)
		}
	}
}

// TestSimHooksMatchFullWalk runs TestFailoverReroutesFlows' crashes on
// the allocators as a Sim drives them — told between hooks that no
// capacity, Path or Rate moved, and after one that capacities and Paths
// may have — and on the same allocators rebuilt before every call: every
// rate of every call must have the same bits.
func TestSimHooksMatchFullWalk(t *testing.T) {
	for _, cfg := range diffCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			g := workload.NewGen(9, workload.UniformMean(400<<10), 0)
			if cfg.deadlines {
				g.MeanDeadline = 40 * sim.Millisecond
			}
			flows := g.Batch(48, workload.Permutation{}, 16, nil, 0)
			for i := range flows {
				flows[i].Start = sim.Time(i) * 100 * sim.Microsecond
			}
			run := func(a Allocator) (rates []uint64, hooked int) {
				s := New(topo.FatTree(4, 1), a)
				s.ApplyFaults(&fault.Schedule{Events: []fault.Event{
					{Kind: fault.SwitchCrash, Switch: 0, At: 2 * sim.Millisecond, Restart: 6 * sim.Millisecond},
					{Kind: fault.SwitchCrash, Switch: 6, At: 3 * sim.Millisecond, Restart: 3 * sim.Millisecond},
				}}, nil)
				s.check = func(active []*FlowState) {
					for _, f := range active {
						rates = append(rates, math.Float64bits(f.Rate))
					}
				}
				for _, f := range flows {
					s.Start(f)
				}
				s.Run(2 * sim.Second)
				return rates, len(s.hooks)
			}
			var rebuilt Allocator = freshRCP{}
			switch a := cfg.mk(1).got.(type) {
			case *PDQ:
				rebuilt = fresh{a, a.Rewind}
			case *D3:
				rebuilt = fresh{a, a.Rewind}
			}
			want, hooks := run(rebuilt)
			got, _ := run(cfg.mk(1).got)
			if hooks == 0 || len(want) == 0 {
				t.Fatal("the run fired no hook or allocated nothing")
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d of %d rates, the Sim-driven allocator's differ from one rebuilt every call", len(got), len(want))
			}
		})
	}
}

// TestRCPVisitsWhatChanged runs TestLedgerVisitsWhatChanged's draws on
// RCP and bounds the flow-hops its calls visit against those a fill from
// level 0 visits on every call. On the fat-tree a departure's last-bit
// changes reach most links and most calls hand over to the scanning fill.
func TestRCPVisitsWhatChanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tp    *topo.Topology
		bound float64
	}{
		{"fat-tree-k8", topo.FatTree(8, 1), 0.8},
		{"bcube-4-3", topo.BCube(4, 3, 1), 0.05},
	} {
		g := workload.NewGen(1, workload.UniformMean(100<<10), 0)
		flows := g.Batch(5*len(tc.tp.Hosts)/2, workload.Permutation{}, len(tc.tp.Hosts), nil, 0)
		p := NewRCP()
		s := New(tc.tp, p)
		for _, f := range flows {
			s.Start(f)
		}
		s.Run(2 * sim.Second)
		st := p.stats
		share := float64(st.visited) / float64(st.hops)
		t.Logf("%s RCP: %d calls, %d full; %d of %d flow-hops visited (%.3f)",
			tc.name, st.calls, st.full, st.visited, st.hops, share)
		if share > tc.bound {
			t.Errorf("%s RCP visited %.3f of a full fill's flow-hops, want ≤ %v", tc.name, share, tc.bound)
		}
	}
}
