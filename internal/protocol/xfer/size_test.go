package xfer_test

import (
	"runtime"
	"testing"

	"pdq/internal/core"
	"pdq/internal/protocol"
	"pdq/internal/protocol/d3"
	"pdq/internal/protocol/rcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// TestFlowStateFollowsWhatIsInFlight pins that a flow's sender and
// receiver cost what the flow has in flight, not what it will carry: a
// 1 GB flow under each rate-paced protocol, stopped 5 ms in, allocates at
// most 256 KiB. Its two per-packet bitmaps take about 180 KiB of that; the
// rest is the window it keeps outstanding and everything else those 5 ms
// allocate. A flag and a send time per packet, allocated at flow start,
// would take about 7 MB.
func TestFlowStateFollowsWhatIsInFlight(t *testing.T) {
	for _, c := range []struct {
		name    string
		install func(*topo.Topology) protocol.Installed
	}{
		{"PDQ", func(tp *topo.Topology) protocol.Installed { return core.Install(tp, core.Full()) }},
		{"RCP", func(tp *topo.Topology) protocol.Installed { return rcp.Install(tp, rcp.Config{}) }},
		{"D3", func(tp *topo.Topology) protocol.Installed { return d3.Install(tp, d3.Config{}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			tp := topo.SingleBottleneck(1, 1)
			sys := c.install(tp)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sys.Start(workload.Flow{ID: 1, Src: 0, Dst: 1, Size: 1 << 30})
			tp.Sim().RunUntil(5 * sim.Millisecond)
			runtime.ReadMemStats(&after)
			if sent := tp.Hosts[0].Access.TxBytes(); sent < 100<<10 {
				t.Fatalf("only %d bytes sent in 5 ms: the flow never got going", sent)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
				t.Errorf("a 1 GB flow allocated %d KiB in its first 5 ms, want at most 256 KiB", got>>10)
			}
		})
	}
}
