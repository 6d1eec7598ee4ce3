package xfer

import (
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// fixedRate is a trivial rate header for tests.
type fixedRate struct{ Rate int64 }

// harness wires a sender and receiver over a single-bottleneck topology
// with a constant granted rate.
func harness(t *testing.T, size int64, rate int64) (*topo.Topology, *Sender, *Receiver) {
	t.Helper()
	tp := topo.SingleBottleneck(1, 1)
	f := workload.Flow{ID: 1, Src: 0, Dst: 1, Size: size}
	path := tp.Path(tp.Hosts[0], tp.Hosts[1])
	recv := NewReceiver(tp.Sim(), tp.Net, f)
	var snd *Sender
	snd = New(tp.Sim(), tp.Net, f, path, Config{}.WithDefaults(), Callbacks{
		Header: func(pkt *netsim.Packet) { netsim.HeaderOf[fixedRate](pkt).Rate = rate },
		OnFeedback: func(hdr any) int64 {
			if h, ok := hdr.(*fixedRate); ok {
				return h.Rate
			}
			return 0
		},
	})
	tp.Hosts[0].Agent = agentFunc(func(pkt *netsim.Packet, _ *netsim.Link) {
		if !pkt.Kind.Forward() {
			snd.HandleAck(pkt)
		}
	})
	tp.Hosts[1].Agent = agentFunc(func(pkt *netsim.Packet, _ *netsim.Link) {
		if pkt.Kind.Forward() {
			recv.OnForward(pkt)
		}
	})
	return tp, snd, recv
}

type agentFunc func(*netsim.Packet, *netsim.Link)

func (f agentFunc) Receive(pkt *netsim.Packet, l *netsim.Link) { f(pkt, l) }

func TestTransferCompletes(t *testing.T) {
	tp, snd, recv := harness(t, 300<<10, 1_000_000_000)
	done := false
	snd.cb.OnComplete = func() { done = true }
	snd.Start()
	tp.Sim().RunUntil(sim.Second)
	if !recv.Done() {
		t.Fatal("receiver incomplete")
	}
	if !done || !snd.Over() {
		t.Fatal("sender did not complete")
	}
	if snd.Remaining() != 0 {
		t.Fatalf("remaining = %d", snd.Remaining())
	}
}

func TestPacingMatchesRate(t *testing.T) {
	// At 100 Mbps, 100 KB should take ≈8.5 ms (plus handshake), not the
	// ~1 ms it would at line rate.
	tp, snd, recv := harness(t, 100<<10, 100_000_000)
	snd.Start()
	tp.Sim().RunUntil(sim.Second)
	if !recv.Done() {
		t.Fatal("incomplete")
	}
	now := tp.Sim().Now()
	_ = now
	// The last event time approximates completion.
	if got := tp.Sim().Now(); got < 8*sim.Millisecond {
		t.Fatalf("completed too fast for 100 Mbps pacing: %v", got)
	}
}

func TestZeroRatePausesAndProbes(t *testing.T) {
	rate := int64(0)
	tp := topo.SingleBottleneck(1, 1)
	f := workload.Flow{ID: 1, Src: 0, Dst: 1, Size: 100 << 10}
	path := tp.Path(tp.Hosts[0], tp.Hosts[1])
	recv := NewReceiver(tp.Sim(), tp.Net, f)
	var snd *Sender
	snd = New(tp.Sim(), tp.Net, f, path, Config{}.WithDefaults(), Callbacks{
		Header:     func(pkt *netsim.Packet) { netsim.HeaderOf[fixedRate](pkt).Rate = rate },
		OnFeedback: func(hdr any) int64 { return rate },
	})
	probes := 0
	tp.Hosts[0].Agent = agentFunc(func(pkt *netsim.Packet, _ *netsim.Link) {
		if !pkt.Kind.Forward() {
			snd.HandleAck(pkt)
		}
	})
	tp.Hosts[1].Agent = agentFunc(func(pkt *netsim.Packet, _ *netsim.Link) {
		if pkt.Kind == netsim.PROBE {
			probes++
		}
		if pkt.Kind.Forward() {
			recv.OnForward(pkt)
		}
	})
	snd.Start()
	tp.Sim().RunUntil(2 * sim.Millisecond)
	if probes < 5 {
		t.Fatalf("paused sender sent %d probes in 2 ms, want ~1/RTT", probes)
	}
	if recv.Done() {
		t.Fatal("flow progressed despite zero rate")
	}
	// Unpause and let it finish.
	rate = 1_000_000_000
	tp.Sim().RunUntil(sim.Second)
	if !recv.Done() {
		t.Fatal("flow did not resume after unpause")
	}
}

func TestLossRecovery(t *testing.T) {
	tp, snd, recv := harness(t, 200<<10, 1_000_000_000)
	l := tp.Hosts[1].Access.Peer
	l.LossRate = 0.05
	l.Peer.LossRate = 0.05
	snd.Start()
	tp.Sim().RunUntil(10 * sim.Second)
	if !recv.Done() {
		t.Fatal("transfer lost under 5% bidirectional loss")
	}
}

func TestStopReleases(t *testing.T) {
	tp, snd, _ := harness(t, 10<<20, 1_000_000_000)
	snd.Start()
	tp.Sim().RunUntil(2 * sim.Millisecond)
	snd.Stop(netsim.TERM)
	if !snd.Over() {
		t.Fatal("Stop did not mark sender over")
	}
	before := tp.Sim().Processed()
	tp.Sim().RunUntil(sim.Second)
	// Only the in-flight tail should drain; no new sends after Stop.
	if tp.Sim().Processed()-before > 200 {
		t.Fatalf("too many events after Stop: %d", tp.Sim().Processed()-before)
	}
}

func TestBadFlowSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	tp := topo.SingleBottleneck(1, 1)
	New(tp.Sim(), tp.Net, workload.Flow{ID: 1, Src: 0, Dst: 1}, tp.Path(tp.Hosts[0], tp.Hosts[1]), Config{}.WithDefaults(), Callbacks{})
}
