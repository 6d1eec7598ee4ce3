// Trace replay: a synthetic datacenter trace (VL2-like size mixture of
// §5.3 — mice with deadlines, elephants without — arriving as a Poisson
// process under random permutation traffic) replayed through PDQ and RCP.
//
// It prints the two headline metrics of the paper side by side: the
// application throughput of the deadline-constrained mice, and the mean
// completion time of the deadline-unconstrained flows.
//
// Run: go run ./examples/tracereplay
package main

import (
	"fmt"

	"pdq/internal/core"
	"pdq/internal/protocol"
	"pdq/internal/protocol/rcp"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

func trace() []workload.Flow {
	g := workload.NewGen(42, workload.VL2SizeDist{}, workload.MeanDeadlineDflt)
	g.DeadlineIf = func(size int64) bool { return size < workload.ShortFlowCutoff }
	return g.Poisson(2500, 100*sim.Millisecond, workload.Permutation{}, 12, func(h int) int { return h / 3 })
}

func main() {
	flows := trace()
	nShort := 0
	for _, f := range flows {
		if f.HasDeadline() {
			nShort++
		}
	}
	fmt.Printf("trace: %d flows over 100 ms (%d deadline mice, %d background)\n\n",
		len(flows), nShort, len(flows)-nShort)

	for _, run := range []struct {
		name    string
		install func(*topo.Topology) protocol.Installed
	}{
		{"PDQ(Full)", func(t *topo.Topology) protocol.Installed { return core.Install(t, core.Full()) }},
		{"RCP", func(t *topo.Topology) protocol.Installed { return rcp.Install(t, rcp.Config{}) }},
	} {
		t := topo.SingleRootedTree(4, 3, 1)
		sys := run.install(t)
		for _, f := range flows {
			sys.Start(f)
		}
		t.Sim().RunUntil(3 * sim.Second)
		rs := sys.Results()
		long := func(r workload.Result) bool { return !r.HasDeadline() }
		fmt.Printf("%-10s app throughput %.1f%%   background mean FCT %.2f ms\n",
			run.name, stats.AppThroughput(rs), stats.MeanFCT(rs, long)*1000)
	}
}
