package flowsim

import (
	"fmt"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/topo"
)

// capTol is how far the rates on one link may sum above its capacity,
// relative. The allocators subtract grants from a running residual one
// flow at a time, so a link's sum can come out a few ulps over: a strict
// check fails at 2.7e-15 (ROADMAP item 1).
const capTol = 1e-12

// rateCheck holds allocations to the model's physical invariants: every
// rate is non-negative and at most its NIC floor, no flow crossing a
// downed link sends, and no link carries more than its capacity, to
// capTol.
type rateCheck struct {
	load []float64                  // per link ID, rates summed over the flows checked
	cap  func(*netsim.Link) float64 // the capacities allocated; nil: linkCap
}

// violation returns the first invariant flows break, or nil.
func (c *rateCheck) violation(flows []*FlowState) error {
	for _, f := range flows {
		for _, l := range f.Path {
			for l.ID >= len(c.load) {
				c.load = append(c.load, 0)
			}
			c.load[l.ID] = 0
		}
	}
	for _, f := range flows {
		if !(f.Rate >= 0) {
			return fmt.Errorf("flow %d: rate %v", f.ID, f.Rate)
		}
		if nic := nicFloor(f.Path); f.Rate > nic {
			return fmt.Errorf("flow %d: rate %v above its NIC floor %v", f.ID, f.Rate, nic)
		}
		for _, l := range f.Path {
			if f.Rate > 0 && l.Down() {
				return fmt.Errorf("flow %d: sends at %v across downed link %d", f.ID, f.Rate, l.ID)
			}
			c.load[l.ID] += f.Rate
		}
	}
	for _, f := range flows {
		for _, l := range f.Path {
			capacity := linkCap(l)
			if c.cap != nil {
				capacity = c.cap(l)
			}
			if c.load[l.ID] > capacity*(1+capTol) {
				return fmt.Errorf("link %d carries %v of capacity %v", l.ID, c.load[l.ID], capacity)
			}
		}
	}
	return nil
}

// newCheckedSim is New with the invariants checked after every Allocate.
func newCheckedSim(tb testing.TB, t *topo.Topology, alloc Allocator) *Sim {
	s := New(t, alloc)
	var c rateCheck
	calls := 0
	s.check = func(flows []*FlowState) {
		calls++
		if err := c.violation(flows); err != nil {
			tb.Fatalf("%T, Allocate call %d at %v: %v", alloc, calls, s.now, err)
		}
	}
	return s
}
