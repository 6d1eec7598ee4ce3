package protocol

import (
	"strings"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// end is both fake endpoints: it counts what reaches it. As a receiver it
// owns the packet and releases it; as a sender it leaves that to the agent.
type end struct{ forward, reverse int }

func (e *end) OnForward(pkt *netsim.Packet) { e.forward++; pkt.Release() }
func (e *end) HandleAck(*netsim.Packet)     { e.reverse++ }

// fakes installs a System whose endpoints are one shared pair of counters
// and records how often each side was built.
type fakes struct {
	recv, send   end
	recvs, sends int
}

func (k *fakes) install(tp *topo.Topology) *System {
	return Install(tp, 1,
		func(workload.Flow) Receiver { k.recvs++; return &k.recv },
		func(_ workload.Flow, paths [][]*netsim.Link) Sender {
			if len(paths) != 1 || len(paths[0]) == 0 {
				panic("sender built without its path")
			}
			k.sends++
			return &k.send
		})
}

// TestAgentDemux: a forward packet of a known flow reaches only the
// receiver, a reverse packet only the sender, and a packet of a flow the
// host does not know is released exactly once.
func TestAgentDemux(t *testing.T) {
	tp := topo.SingleBottleneck(2, 1)
	var k fakes
	sys := k.install(tp)
	sys.Start(workload.Flow{ID: 7, Src: 0, Dst: 2, Size: 1000})
	tp.Sim().Run()
	if k.recvs != 1 || k.sends != 1 {
		t.Fatalf("launch built %d receivers and %d senders, want 1 and 1", k.recvs, k.sends)
	}

	deliver := func(host int, flow netsim.FlowID, kind netsim.Kind) {
		pkt := tp.Net.NewPacket(tp.Hosts[host].ID())
		pkt.Flow, pkt.Kind = flow, kind
		tp.Hosts[host].Agent.Receive(pkt, nil)
	}
	for _, kind := range []netsim.Kind{netsim.SYN, netsim.DATA, netsim.PROBE, netsim.TERM} {
		deliver(2, 7, kind)
	}
	if k.recv.forward != 4 || k.send.reverse != 0 {
		t.Fatalf("forward packets: receiver saw %d, sender %d; want 4, 0", k.recv.forward, k.send.reverse)
	}
	for _, kind := range []netsim.Kind{netsim.SYNACK, netsim.ACK, netsim.PROBEACK} {
		deliver(0, 7, kind)
	}
	if k.recv.forward != 4 || k.send.reverse != 3 {
		t.Fatalf("reverse packets: receiver saw %d, sender %d; want 4, 3", k.recv.forward, k.send.reverse)
	}
	// Unknown flow, and a known flow at the wrong end of it.
	deliver(2, 8, netsim.DATA)
	deliver(0, 8, netsim.ACK)
	deliver(0, 7, netsim.DATA)
	deliver(2, 7, netsim.ACK)
	if k.recv.forward != 4 || k.send.reverse != 3 {
		t.Fatalf("stray packets reached an endpoint: receiver %d, sender %d", k.recv.forward, k.send.reverse)
	}
	if taken, released := tp.Net.PacketPoolStats(); taken != 11 || released != taken {
		t.Fatalf("packet pool: %d taken, %d released; want 11 and 11", taken, released)
	}
}

// TestStartShardedSplitsTheLaunch: with the network sharded, the receiver
// is built by an event on the destination host's engine and the sender by
// one on the source host's.
func TestStartShardedSplitsTheLaunch(t *testing.T) {
	tp := topo.FatTree(4, 1)
	g := sim.NewShardGroup(2, topo.MinLinkDelay(tp))
	tp.Net.EnableSharding(g, topo.Partition(tp, 2))
	src, dst := 0, len(tp.Hosts)-1
	srcSim, dstSim := tp.Net.SimFor(tp.Hosts[src].ID()), tp.Net.SimFor(tp.Hosts[dst].ID())
	if srcSim == dstSim {
		t.Fatal("test setup: both hosts on one shard")
	}
	var k fakes
	k.install(tp).Start(workload.Flow{ID: 1, Src: src, Dst: dst, Size: 1000, Start: 5})
	if srcSim.Pending() != 1 || dstSim.Pending() != 1 {
		t.Fatalf("pending events: source engine %d, destination engine %d; want 1 and 1", srcSim.Pending(), dstSim.Pending())
	}
	dstSim.Step()
	if k.recvs != 1 || k.sends != 0 {
		t.Fatalf("destination engine built %d receivers and %d senders, want 1 and 0", k.recvs, k.sends)
	}
	srcSim.Step()
	if k.recvs != 1 || k.sends != 1 {
		t.Fatalf("source engine left %d receivers and %d senders, want 1 and 1", k.recvs, k.sends)
	}
}

// TestStartRejectsBadFlow is the one answer to a flow without bytes or
// without a second host, for every protocol on the scaffold.
func TestStartRejectsBadFlow(t *testing.T) {
	for _, f := range []workload.Flow{
		{ID: 1, Src: 0, Dst: 1},
		{ID: 2, Src: 0, Dst: 1, Size: -5},
		{ID: 3, Src: 1, Dst: 1, Size: 1000},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "positive size and two distinct hosts") {
					t.Errorf("flow %+v: recovered %q, want the scaffold's refusal", f, msg)
				}
			}()
			var k fakes
			k.install(topo.SingleBottleneck(1, 1)).Start(f)
		}()
	}
}
