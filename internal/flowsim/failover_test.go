package flowsim

import (
	"math"
	"testing"

	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// shadowAlloc runs the reference allocator on clones beside the production
// one inside a real Sim, and checks every call: rates bit-identical, and no
// flow granted rate across a link that is down.
type shadowAlloc struct {
	t        *testing.T
	got, ref Allocator
	clones   map[*FlowState]*FlowState
	refFlows []*FlowState
	first    map[*FlowState]**netsim.Link // &Path[0] at first sight

	calls, downCalls, replaced int
}

func (a *shadowAlloc) Name() string { return a.got.Name() }

func (a *shadowAlloc) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	a.calls++
	a.refFlows = a.refFlows[:0]
	for _, f := range flows {
		c := a.clones[f]
		if c == nil {
			c = &FlowState{Flow: f.Flow, Started: f.Started}
			a.clones[f] = c
			a.first[f] = &f.Path[0]
		}
		// The Sim owns these between calls: step drains and ages, the
		// fault hooks replace Path and forget the cached criticality.
		c.Path, c.Remaining, c.Waiting = f.Path, f.Remaining, f.Waiting
		if f.crit == 0 {
			c.crit = 0
		}
		a.refFlows = append(a.refFlows, c)
	}
	a.got.Allocate(now, flows, cap)
	a.ref.Allocate(now, a.refFlows, cap)
	anyDown := false
	for i, f := range flows {
		if r := a.refFlows[i]; math.Float64bits(f.Rate) != math.Float64bits(r.Rate) {
			a.t.Fatalf("%s call %d at %v, flow %d: rate %v, reference %v", a.Name(), a.calls, now, f.ID, f.Rate, r.Rate)
		}
		for _, l := range f.Path {
			if l.Down() {
				anyDown = true
				if f.Rate > 0 {
					a.t.Fatalf("%s call %d at %v: flow %d sends at %v across downed link %d", a.Name(), a.calls, now, f.ID, f.Rate, l.ID)
				}
			}
		}
	}
	if anyDown {
		a.downCalls++
	}
}

// TestFailoverReroutesFlows crashes a fat-tree core switch with a restart
// window under each flow-level allocator. Unlike the single-bottleneck
// fault scenarios, the topology has surviving routes, so the reroute hook
// really replaces paths mid-run: the allocators must follow the new path
// (NIC floor, link slots, kept order) exactly as the reference does.
func TestFailoverReroutesFlows(t *testing.T) {
	for _, cfg := range diffCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			p := cfg.mk(1)
			tp := topo.FatTree(4, 1)
			g := workload.NewGen(9, workload.UniformMean(400<<10), 0)
			if cfg.deadlines {
				g.MeanDeadline = 40 * sim.Millisecond
			}
			flows := g.Batch(48, workload.Permutation{}, len(tp.Hosts), nil, 0)
			for i := range flows {
				flows[i].Start = sim.Time(i) * 100 * sim.Microsecond
			}
			sh := &shadowAlloc{t: t, got: p.got, ref: p.ref,
				clones: map[*FlowState]*FlowState{}, first: map[*FlowState]**netsim.Link{}}
			s := New(tp, sh)
			// Switch 0 is a core switch: inter-pod paths prefer it (lowest
			// link IDs) and every one of them has another core to fail
			// over to. Switch 6 is pod 0's first edge switch: its two
			// hosts have no other way out, so their flows keep a path
			// across downed links and must stall at rate zero.
			s.ApplyFaults(&fault.Schedule{Events: []fault.Event{
				{Kind: fault.SwitchCrash, Switch: 0, At: 2 * sim.Millisecond, Restart: 6 * sim.Millisecond},
				{Kind: fault.SwitchCrash, Switch: 6, At: 3 * sim.Millisecond, Restart: 3 * sim.Millisecond},
			}}, nil)
			for _, f := range flows {
				s.Start(f)
			}
			s.Run(2 * sim.Second)

			for f, at := range sh.first {
				if &f.Path[0] != at {
					sh.replaced++
				}
			}
			if sh.replaced == 0 {
				t.Error("no flow's Path was replaced: the crash did not exercise failover")
			}
			if sh.downCalls == 0 {
				t.Error("no Allocate call saw a flow routed over a downed link: the stall check never ran")
			}
			for _, r := range s.Results() {
				if !r.Done() {
					t.Errorf("flow %d never finished", r.ID)
				}
			}
			t.Logf("%d Allocate calls, %d with a downed link on some path, %d flows rerouted", sh.calls, sh.downCalls, sh.replaced)
		})
	}
}
