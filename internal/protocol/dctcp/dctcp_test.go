package dctcp

import (
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

func run(t *testing.T, tp *topo.Topology, cfg Config, flows []workload.Flow, horizon sim.Time) (*System, []workload.Result) {
	t.Helper()
	sys := Install(tp, cfg)
	for _, f := range flows {
		sys.Start(f)
	}
	tp.Sim().RunUntil(horizon)
	return sys, sys.Results()
}

func TestInstallSetsECNQdisc(t *testing.T) {
	tp := topo.SingleBottleneck(2, 1)
	Install(tp, Config{Threshold: 12345})
	for _, l := range tp.Net.Links() {
		q, ok := l.Qdisc().(*netsim.ECNFIFO)
		if !ok {
			t.Fatalf("%v: qdisc %T, want *netsim.ECNFIFO", l, l.Qdisc())
		}
		if q.Threshold != 12345 {
			t.Fatalf("%v: threshold %d, want 12345", l, q.Threshold)
		}
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	tp := topo.SingleBottleneck(1, 1)
	_, rs := run(t, tp, Config{}, []workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 1 << 20}}, sim.Second)
	if !rs[0].Done() {
		t.Fatal("flow incomplete")
	}
	// Solo flow: same ballpark as TCP (no marks slow it much).
	if rs[0].FCT() < 8*sim.Millisecond || rs[0].FCT() > 40*sim.Millisecond {
		t.Errorf("FCT %v unexpected", rs[0].FCT())
	}
}

// incastFlows builds n synchronized senders into the last host.
func incastFlows(n int, size int64) []workload.Flow {
	flows := make([]workload.Flow, 0, n)
	for i := 0; i < n; i++ {
		flows = append(flows, workload.Flow{ID: uint64(i + 1), Src: i, Dst: n, Size: size})
	}
	return flows
}

func TestIncastMarksAndCompletes(t *testing.T) {
	tp := topo.SingleBottleneck(16, 1)
	_, rs := run(t, tp, Config{}, incastFlows(16, 256<<10), 10*sim.Second)
	marks := int32(0)
	for i, r := range rs {
		if !r.Done() {
			t.Fatalf("sender %d never completed", i)
		}
		marks += r.ECNMarks
	}
	if marks == 0 {
		t.Fatal("16-way incast produced zero ECN marks")
	}
}

// TestKeepsQueueShortAndAvoidsDrops is DCTCP's core claim: with a
// shallow buffer, threshold marking holds the standing queue near K and
// the incast completes without the tail drops plain TCP suffers.
func TestKeepsQueueShortAndAvoidsDrops(t *testing.T) {
	shallow := func(tp *topo.Topology) *netsim.Link {
		// Bottleneck: switch→receiver (the peer of the receiver's access
		// uplink), with a 150 KB buffer.
		b := tp.Hosts[16].Access.Peer
		b.QueueCap = 150 << 10
		return b
	}

	tpD := topo.SingleBottleneck(16, 1)
	bD := shallow(tpD)
	_, rsD := run(t, tpD, Config{}, incastFlows(16, 256<<10), 10*sim.Second)
	for i, r := range rsD {
		if !r.Done() {
			t.Fatalf("DCTCP sender %d never completed", i)
		}
	}

	tpT := topo.SingleBottleneck(16, 1)
	bT := shallow(tpT)
	sysT := tcp.Install(tpT, tcp.Config{})
	for _, f := range incastFlows(16, 256<<10) {
		sysT.Start(f)
	}
	tpT.Sim().RunUntil(10 * sim.Second)
	for i, r := range sysT.Results() {
		if !r.Done() {
			t.Fatalf("TCP sender %d never completed", i)
		}
	}

	if bT.Drops() == 0 {
		t.Fatal("TCP incast on a shallow buffer should tail-drop (test setup too lenient)")
	}
	if bD.Drops() >= bT.Drops() {
		t.Errorf("DCTCP drops %d not below TCP drops %d", bD.Drops(), bT.Drops())
	}
}

func TestAlphaTracksMarks(t *testing.T) {
	// Heavy congestion: α must move off zero on marked windows.
	tp := topo.SingleBottleneck(8, 1)
	sys, rs := run(t, tp, Config{}, incastFlows(8, 512<<10), 10*sim.Second)
	moved := false
	sys.EachSender(func(sd protocol.Sender) {
		snd := sd.(*sender)
		if snd.alpha > 0 {
			moved = true
		}
		if snd.alpha < 0 || snd.alpha > 1 {
			t.Fatalf("alpha %g out of [0, 1]", snd.alpha)
		}
	})
	if !moved {
		t.Error("no sender's alpha moved off zero under 8-way congestion")
	}
	for i, r := range rs {
		if !r.Done() {
			t.Fatalf("sender %d never completed", i)
		}
	}
}
