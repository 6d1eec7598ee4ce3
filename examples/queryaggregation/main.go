// Query aggregation (paper §5.2): many workers answer an aggregator under
// a soft deadline — the partition/aggregate pattern behind web search.
//
// This example runs the same deadline-constrained workload through PDQ,
// D3, RCP and TCP on the paper's 12-server single-rooted tree and prints
// the application throughput (fraction of flows meeting their deadline)
// of each, plus the omniscient optimal bound.
//
// Run: go run ./examples/queryaggregation
package main

import (
	"fmt"

	"pdq/internal/core"
	"pdq/internal/fluid"
	"pdq/internal/protocol"
	"pdq/internal/protocol/d3"
	"pdq/internal/protocol/rcp"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

const nFlows = 15

func flows(seed int64) []workload.Flow {
	g := workload.NewGen(seed, workload.UniformMean(100<<10), workload.MeanDeadlineDflt)
	return g.Batch(nFlows, workload.Aggregation{}, 12, func(h int) int { return h / 3 }, 0)
}

func main() {
	fmt.Printf("query aggregation: %d deadline flows (U[2,198] KB, Exp(20ms) deadlines)\n\n", nFlows)
	fmt.Printf("%-10s %s\n", "protocol", "app throughput [%]")
	fmt.Printf("%-10s %.1f\n", "Optimal", fluid.OptimalAppThroughput(flows(1), 1_000_000_000))

	runs := []struct {
		name    string
		install func(*topo.Topology) protocol.Installed
	}{
		{"PDQ", func(t *topo.Topology) protocol.Installed { return core.Install(t, core.Full()) }},
		{"D3", func(t *topo.Topology) protocol.Installed { return d3.Install(t, d3.Config{}) }},
		{"RCP", func(t *topo.Topology) protocol.Installed { return rcp.Install(t, rcp.Config{}) }},
		{"TCP", func(t *topo.Topology) protocol.Installed { return tcp.Install(t, tcp.Config{}) }},
	}
	for _, r := range runs {
		t := topo.SingleRootedTree(4, 3, 1)
		sys := r.install(t)
		for _, f := range flows(1) {
			sys.Start(f)
		}
		t.Sim().RunUntil(500 * sim.Millisecond)
		fmt.Printf("%-10s %.1f\n", r.name, stats.AppThroughput(sys.Results()))
	}
}
