package scenario

import (
	"testing"

	"pdq/internal/sim"
	"pdq/internal/topo"
)

// runnerMallocs is the heap-object budget of one small cell per packet
// runner: poolFlows on the 3×3 tree, run to the end. Each is the count
// measured when it was set plus about 10 %. Packets and their headers come
// in chunks (netsim), a System's flows sit in one table and each flow's
// endpoint state is carved from chunks (protocol), and PDQ's switch carves
// its link states and flow entries (core); a budget overrun means a
// per-packet, per-flow or per-link allocation came back.
var runnerMallocs = map[string]float64{
	"PDQ(Full)":  352,
	"PDQ(ES+ET)": 352,
	"PDQ(ES)":    361,
	"PDQ(Basic)": 350,
	"D3":         442,
	"RCP":        508,
	"TCP":        323,
	"DCTCP":      315,
	"pFabric":    394,
}

// resetMallocs is the same cell's budget on a topology an earlier cell ran
// on and handed back, reset (topo.Topology.Reset), with its routes
// memoized and its arena rewound: what a sweep pays for every cell after
// the first on one topology. The cell carves its packets, headers,
// endpoints and collector cells from the chunks the earlier cell carved,
// so what is left is per-run state that is not carved.
var resetMallocs = map[string]float64{
	"PDQ(Full)":  47,
	"PDQ(ES+ET)": 47,
	"PDQ(ES)":    46,
	"PDQ(Basic)": 44,
	"D3":         156,
	"RCP":        77,
	"TCP":        23,
	"DCTCP":      24,
	"pFabric":    103,
}

func TestPacketRunnerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, e := range RunnerList() {
		if e.Level != "packet" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			flows := poolFlows(len(tree().Hosts))
			run := e.Make(e.Params, 1)
			rc := RunCtx{Horizon: 5 * sim.Second}
			var tp *topo.Topology
			build := func() *topo.Topology { return tp }
			for _, c := range []struct {
				what   string
				budget map[string]float64
				before func()
			}{
				{"one cell", runnerMallocs, func() { tp = tree() }},
				{"one cell on a reset topology", resetMallocs, func() { tp.Reset(sim.New(), 1) }},
			} {
				mallocs := testing.AllocsPerRun(1, func() {
					c.before()
					run(build, flows, rc)
				})
				budget, ok := c.budget[e.Name]
				if !ok {
					t.Fatalf("no allocation budget for packet runner %q", e.Name)
				}
				if mallocs > budget {
					t.Errorf("%s allocates %.0f heap objects, budget %.0f", c.what, mallocs, budget)
				}
			}
		})
	}
}

// TestSpareTopologyHitAllocs hands a topology back to the engine and takes
// it again: a hit costs the reset's fresh engine and nothing else.
func TestSpareTopologyHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	e, err := compile(minimalSpec(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	col := &e.cols[0]
	k := topoKey{col.topo, 1}
	e.putTopo(k, e.takeTopo(k, col))
	if mallocs := testing.AllocsPerRun(100, func() { e.putTopo(k, e.takeTopo(k, col)) }); mallocs != 1 {
		t.Errorf("a hit allocates %v heap objects, want 1: the reset's sim.Sim", mallocs)
	}
}
