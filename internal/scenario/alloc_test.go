package scenario

import (
	"testing"

	"pdq/internal/sim"
	"pdq/internal/topo"
)

// runnerMallocs is the heap-object budget of one small cell per packet
// runner: poolFlows on the 3×3 tree, run to the end. Each is the count
// measured when it was set plus about 10 %. Packets and their headers come
// in chunks (netsim) and a System's flows sit in one table (protocol);
// a budget overrun means a per-packet or per-flow allocation came back.
var runnerMallocs = map[string]float64{
	"PDQ(Full)":  626,
	"PDQ(ES+ET)": 626,
	"PDQ(ES)":    624,
	"PDQ(Basic)": 582,
	"D3":         581,
	"RCP":        637,
	"RCP/D3":     637,
	"TCP":        397,
	"DCTCP":      415,
	"pFabric":    497,
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
			mallocs := testing.AllocsPerRun(1, func() {
				run(func() *topo.Topology { return tree() }, flows, RunCtx{Horizon: 5 * sim.Second})
			})
			budget, ok := runnerMallocs[e.Name]
			if !ok {
				t.Fatalf("no allocation budget for packet runner %q", e.Name)
			}
			if mallocs > budget {
				t.Errorf("one cell allocates %.0f heap objects, budget %.0f", mallocs, budget)
			}
		})
	}
}
