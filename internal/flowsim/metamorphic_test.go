package flowsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// Metamorphic relations: no oracle says what a flow's completion time
// must be, but the model has symmetries every run must respect. Each test
// runs a workload and a transformed copy on small single-rooted trees and
// compares both the outcomes and every rate of every Allocate call: a
// shift in time, a change of units, an idle rack, an infinite deadline
// and a relabelling of racks must change nothing, scale the rates by the
// change of units, or move the finishes by exactly the shift. Exact means
// the same bits and the same integer nanoseconds, which pins that no
// allocator reads absolute time, link IDs or absolute rates. The one
// exemption is RCP's rack swap (rcpTol; DESIGN.md §4).

// metaCfg is one allocator under the relations.
type metaCfg struct {
	name      string
	mk        func() Allocator
	et        bool // Early Termination, as flow:PDQ's et
	deadlines bool
}

var metaCfgs = []metaCfg{
	{"PDQ", func() Allocator { return NewPDQ(CritPerfect, 1) }, false, false},
	{"PDQ-deadlines-ET", func() Allocator { return NewPDQ(CritPerfect, 1) }, true, true},
	{"PDQ-aging", func() Allocator { p := NewPDQ(CritPerfect, 1); p.AgingRate = 2; return p }, false, false},
	{"RCP", func() Allocator { return NewRCP() }, false, false},
	{"D3", func() Allocator { return NewD3() }, false, true},
	{"D3-no-deadlines", func() Allocator { return NewD3() }, false, false},
}

const (
	metaRacks   = 4
	metaPerRack = 3
)

// metaFlows is a seeded mix on the first metaRacks racks: sizes that are
// multiples of 64 bytes (so a scaling by 2⁻⁶ stays whole), arrivals over
// 20 ms, and, with deadlines, a deadline on two flows in three.
func metaFlows(seed int64, deadlines bool) []workload.Flow {
	rng := rand.New(rand.NewSource(seed))
	n := metaRacks * metaPerRack
	flows := make([]workload.Flow, 36)
	for i := range flows {
		src := rng.Intn(n)
		f := workload.Flow{ID: uint64(i + 1), Src: src, Dst: (src + 1 + rng.Intn(n-1)) % n,
			Size:  int64(1+rng.Intn(4000)) * 64,
			Start: sim.Time(rng.Int63n(int64(20 * sim.Millisecond)))}
		if deadlines && i%3 != 0 {
			f.Deadline = sim.Time(5+rng.Intn(40)) * sim.Millisecond
		}
		flows[i] = f
	}
	return flows
}

// metaRun runs flows on tp under cfg, with the model's invariants checked
// after every allocation.
func metaRun(t *testing.T, cfg metaCfg, tp *topo.Topology, flows []workload.Flow) metaOut {
	t.Helper()
	s := newCheckedSim(t, tp, cfg.mk())
	s.ET = cfg.et
	var rates []rateAt
	check := s.check
	s.check = func(fs []*FlowState) {
		check(fs)
		for _, f := range fs {
			rates = append(rates, rateAt{f.ID, f.Rate})
		}
	}
	for _, f := range flows {
		s.Start(f)
	}
	s.Run(2 * sim.Second)
	rs := s.Results()
	done := 0
	for _, r := range rs {
		if r.Done() {
			done++
		}
	}
	if done < len(rs)/2 {
		t.Fatalf("only %d of %d flows finished: the relation would compare little", done, len(rs))
	}
	return metaOut{rs, rates}
}

// metaOut is one run: its outcomes, and every rate of every Allocate call
// in call order.
type metaOut struct {
	rs    []workload.Result
	rates []rateAt
}

type rateAt struct {
	id   uint64
	rate float64
}

// sameRun asserts that run b allocated as run a did, every rate times
// scale (a power of two, so exactly), and ended every flow as a did, each
// finish moved by shift.
func sameRun(t *testing.T, a, b metaOut, scale float64, shift sim.Time) {
	t.Helper()
	sameRates(t, a, b, scale, 0)
	sameOutcome(t, a.rs, b.rs, shift)
}

// sameRates asserts that run b allocated as run a did, every rate times
// scale, within tol (0: the same bits).
func sameRates(t *testing.T, a, b metaOut, scale, tol float64) {
	t.Helper()
	if len(a.rates) != len(b.rates) {
		t.Fatalf("%d rates allocated, want %d", len(b.rates), len(a.rates))
	}
	for i, r := range a.rates {
		if g := b.rates[i]; g.id != r.id || !near(g.rate, r.rate*scale, tol) {
			t.Fatalf("rate %d: flow %d at %v, want flow %d at %v", i, g.id, g.rate, r.id, r.rate*scale)
		}
	}
}

// sameOutcome asserts that run b ended every flow as run a did, each
// finish moved by shift.
func sameOutcome(t *testing.T, a, b []workload.Result, shift sim.Time) {
	t.Helper()
	for i := range a {
		want := a[i].Finish
		if want >= 0 {
			want += shift
		}
		if b[i].Finish != want || b[i].Terminated != a[i].Terminated {
			t.Fatalf("flow %d: finish %v (terminated %v), want %v (terminated %v)",
				a[i].ID, b[i].Finish, b[i].Terminated, want, a[i].Terminated)
		}
	}
}

func TestMetamorphicTimeShift(t *testing.T) {
	for _, cfg := range metaCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			flows := metaFlows(1, cfg.deadlines)
			base := metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), flows)
			for _, k := range []sim.Time{1, 7, 250} {
				shift := k * stepLen
				moved := slices.Clone(flows)
				for i := range moved {
					moved[i].Start += shift
				}
				sameRun(t, base, metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), moved), 1, shift)
			}
		})
	}
}

// TestMetamorphicScaling multiplies every link rate and every flow size by
// 2ᵏ: every quantity the model computes scales by the same power of two,
// exactly, so completion times cannot move. The bound on k is the model's
// one absolute constant: a flow is done when less than half a byte is
// left, and the residue a finishing flow leaves is below its rate times
// one nanosecond, 0.12 bytes at 1 Gbps — 2ᵏ ≤ 4 keeps it under.
func TestMetamorphicScaling(t *testing.T) {
	for _, cfg := range metaCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			flows := metaFlows(2, cfg.deadlines)
			base := metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), flows)
			for _, k := range []int{-6, -1, 1, 2} {
				tp := topo.SingleRootedTree(metaRacks, metaPerRack, 1)
				for _, l := range tp.Net.Links() {
					l.Rate = int64(math.Ldexp(float64(l.Rate), k))
				}
				scaled := slices.Clone(flows)
				for i := range scaled {
					scaled[i].Size = int64(math.Ldexp(float64(scaled[i].Size), k))
				}
				sameRun(t, base, metaRun(t, cfg, tp, scaled), math.Ldexp(1, k), 0)
			}
		})
	}
}

// TestMetamorphicIdleRack adds a rack no flow touches.
func TestMetamorphicIdleRack(t *testing.T) {
	for _, cfg := range metaCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			flows := metaFlows(3, cfg.deadlines)
			base := metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), flows)
			sameRun(t, base, metaRun(t, cfg, topo.SingleRootedTree(metaRacks+1, metaPerRack, 1), flows), 1, 0)
		})
	}
}

// TestMetamorphicInfiniteDeadline gives every unconstrained flow a
// deadline at the end of time: Start + Deadline = sim.MaxTime, which is
// what AbsDeadline reports for no deadline at all.
func TestMetamorphicInfiniteDeadline(t *testing.T) {
	for _, cfg := range metaCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			flows := metaFlows(4, cfg.deadlines)
			base := metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), flows)
			inf := slices.Clone(flows)
			for i := range inf {
				if !inf[i].HasDeadline() {
					inf[i].Deadline = sim.MaxTime - inf[i].Start
				}
			}
			sameRun(t, base, metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), inf), 1, 0)
		})
	}
}

// TestMetamorphicRackSwap relabels hosts by swapping two racks, flow IDs
// kept in order: the tree's automorphism maps every path onto another of
// the same shape, so every rate and the multiset of completion times are
// unchanged — exactly for PDQ and D3, and for RCP within rcpTol and the
// nanosecond such a rate can move a finish.
func TestMetamorphicRackSwap(t *testing.T) {
	for _, cfg := range metaCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			tol, slack := 0.0, sim.Time(0)
			if cfg.name == "RCP" {
				tol, slack = rcpTol, 1
			}
			flows := metaFlows(5, cfg.deadlines)
			base := metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), flows)
			for _, pair := range [][2]int{{0, 1}, {0, 3}, {1, 2}} {
				d := (pair[1] - pair[0]) * metaPerRack
				swap := func(h int) int {
					switch h / metaPerRack {
					case pair[0]:
						return h + d
					case pair[1]:
						return h - d
					}
					return h
				}
				moved := slices.Clone(flows)
				for i := range moved {
					moved[i].Src, moved[i].Dst = swap(moved[i].Src), swap(moved[i].Dst)
				}
				got := metaRun(t, cfg, topo.SingleRootedTree(metaRacks, metaPerRack, 1), moved)
				sameRates(t, base, got, 1, tol)
				want, fcts := fctMultiset(base.rs), fctMultiset(got.rs)
				for i := range want {
					if d := fcts[i] - want[i]; d < -slack || d > slack {
						t.Fatalf("racks %v swapped: %d-th completion time %v, unswapped %v", pair, i, fcts[i], want[i])
					}
				}
			}
		})
	}
}

// fctMultiset is every flow's completion time, sorted; a flow that did not
// finish counts as -1.
func fctMultiset(rs []workload.Result) []sim.Time {
	out := make([]sim.Time, len(rs))
	for i, r := range rs {
		out[i] = -1
		if r.Done() {
			out[i] = r.FCT()
		}
	}
	slices.Sort(out)
	return out
}
