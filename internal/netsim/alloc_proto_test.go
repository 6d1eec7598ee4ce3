package netsim_test

import (
	"testing"

	"pdq/internal/core"
	"pdq/internal/netsim"
	"pdq/internal/protocol/d3"
	"pdq/internal/protocol/dctcp"
	"pdq/internal/protocol/pfabric"
	"pdq/internal/protocol/rcp"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// TestProtocolSteadyStateAllocs extends the zero-allocation contract of
// TestEnqueueSteadyStateAllocs from the links up through every protocol's
// per-packet path: one long flow per protocol, warmed up until its window
// is open and the packet pool and event slots sit at their high-water
// marks, then 10 ms of simulated line-rate transfer (about 800 data
// packets, their acknowledgments, every switch hop, the pacing and
// retransmission timers) must not allocate at all. The lossy row runs
// TCP over links that all drop at LossRate, with a Gilbert–Elliott burst
// channel on the bottleneck too: the loss branches of Link.Enqueue, the
// chain and the retransmissions they cause must not allocate either.
func TestProtocolSteadyStateAllocs(t *testing.T) {
	type system interface{ Start(workload.Flow) }
	for _, p := range []struct {
		name    string
		install func(*topo.Topology) system
	}{
		{"PDQ(Full)", func(t *topo.Topology) system { return core.Install(t, core.Full()) }},
		{"TCP", func(t *topo.Topology) system { return tcp.Install(t, tcp.Config{}) }},
		{"DCTCP", func(t *topo.Topology) system { return dctcp.Install(t, dctcp.Config{}) }},
		{"pFabric", func(t *topo.Topology) system { return pfabric.Install(t, pfabric.Config{}) }}, // installs the prio qdisc
		{"RCP", func(t *topo.Topology) system { return rcp.Install(t, rcp.Config{}) }},
		{"D3", func(t *topo.Topology) system { return d3.Install(t, d3.Config{}) }},
		{"TCP+loss", func(t *topo.Topology) system {
			for _, l := range t.Net.Links() {
				l.LossRate = 5e-4
			}
			t.Hosts[2].Access.Peer.SetGE(&netsim.GilbertElliott{PGB: 0.003, PBG: 0.3, LossBad: 0.2})
			return tcp.Install(t, tcp.Config{})
		}},
	} {
		t.Run(p.name, func(t *testing.T) {
			tp := topo.SingleBottleneck(2, 1)
			p.install(tp).Start(workload.Flow{ID: 1, Src: 0, Dst: 2, Size: 64 << 20})
			s := tp.Sim()
			s.RunUntil(100 * sim.Millisecond)
			before, lostBefore := tp.Hosts[2].Access.Peer.TxPackets(), lossDrops(tp)
			// One run after AllocsPerRun's own warm-up call, so the
			// result is the exact count, not an average rounded down.
			allocs := testing.AllocsPerRun(1, func() { s.RunUntil(s.Now() + 10*sim.Millisecond) })
			if sent := tp.Hosts[2].Access.Peer.TxPackets() - before; sent < 1000 {
				t.Fatalf("flow moved only %d packets over the bottleneck in 20 ms: not in steady state", sent)
			}
			if lost := lossDrops(tp) - lostBefore; p.name == "TCP+loss" && lost == 0 {
				t.Fatal("no packet was lost in the measured 20 ms")
			}
			if allocs > 0 {
				t.Errorf("steady state allocates %.0f times per 10 ms of transfer, want 0", allocs)
			}
		})
	}
}

// lossDrops sums the random losses over every link of t.
func lossDrops(t *topo.Topology) uint64 {
	var n uint64
	for _, l := range t.Net.Links() {
		n += l.LossDrops()
	}
	return n
}
