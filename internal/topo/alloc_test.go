package topo

import "testing"

// TestTopologyBuildAllocs is the allocation budget of building a topology
// and routing every ordered host pair on it, both ways: fat-tree k=8 with
// up to two paths per pair, as two-subflow M-PDQ asks, and BCube(4,3)
// with one, as a packet runner does. Nodes and links come from one slab
// per kind, the adjacency is one array, and routes and distances come
// from stores carved in chunks, so the budget is one allocation per few
// dozen routes, not several per route and one per link, node and row.
// The budgets are the counts measured when they were set, plus 10 %.
func TestTopologyBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation counts")
	}
	for _, c := range []struct {
		name   string
		build  func() *Topology
		k      int
		budget float64
	}{
		{"fat-tree k=8", func() *Topology { return FatTree(8, 1) }, 2, 1650},
		{"BCube(4,3)", func() *Topology { return BCube(4, 3, 1) }, 1, 4030},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			tp := c.build()
			for _, a := range tp.Hosts {
				for _, b := range tp.Hosts {
					if a != b {
						tp.Routes(a, b, c.k)
					}
				}
			}
		})
		t.Logf("%s: %.0f allocations", c.name, allocs)
		if allocs > c.budget {
			t.Errorf("%s: building and routing every pair allocates %.0f times, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
