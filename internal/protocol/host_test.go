package protocol

import (
	"math/rand"
	"reflect"
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
	return Install(tp, 1, nil, func(l Launch) (Receiver, Sender) {
		if len(l.Fwd) != 1 || len(l.Fwd[0]) == 0 || len(l.Rev) != 1 || len(l.Rev[0]) != len(l.Fwd[0]) {
			panic("endpoints built without their routes")
		}
		k.recvs++
		k.sends++
		return &k.recv, &k.send
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
		pkt := tp.Net.NewPacket()
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

// mapAgent is the per-host demultiplexer the flow table replaced, frozen
// here as the reference: two maps per host keyed by flow ID, filled at
// launch.
type mapAgent struct {
	sends map[netsim.FlowID]Sender
	recvs map[netsim.FlowID]Receiver
}

func (a *mapAgent) Receive(pkt *netsim.Packet, _ *netsim.Link) {
	if pkt.Kind.Forward() {
		if r := a.recvs[pkt.Flow]; r != nil {
			r.OnForward(pkt)
			return
		}
	} else if sd := a.sends[pkt.Flow]; sd != nil {
		sd.HandleAck(pkt)
	}
	pkt.Release()
}

// hit is one packet reaching an endpoint.
type hit struct {
	flow uint64
	recv bool
	kind netsim.Kind
	host int
}

// probe is one flow's endpoint; it logs what reaches it to *log, which
// the test points at the table's log or the reference's.
type probe struct {
	flow uint64
	log  **[]hit
	host *int
}

func (p *probe) OnForward(pkt *netsim.Packet) {
	**p.log = append(**p.log, hit{p.flow, true, pkt.Kind, *p.host})
	pkt.Release()
}

func (p *probe) HandleAck(pkt *netsim.Packet) {
	**p.log = append(**p.log, hit{p.flow, false, pkt.Kind, *p.host})
}

// TestFlowTableMatchesMapDemux drives the slot-indexed agents and the
// map-based reference with the same random packet streams, interleaved
// with the flows' launches: packets of launched and not yet launched
// flows at their own ends, the wrong end and bystander hosts; packets of
// unregistered flows carrying another flow's slot, an out-of-range slot
// or a negative one; and acknowledgments on recycled packets. Both must
// hand the same packets to the same endpoints, the pools must balance,
// and EachSender must visit in registration order.
func TestFlowTableMatchesMapDemux(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, refNet := topo.SingleBottleneck(5, 1), topo.SingleBottleneck(5, 1).Net
		hosts := len(tp.Hosts)
		ref := make([]*mapAgent, hosts)
		for i := range ref {
			ref[i] = &mapAgent{sends: map[netsim.FlowID]Sender{}, recvs: map[netsim.FlowID]Receiver{}}
		}
		var got, want []hit
		var log *[]hit
		var at int
		sys := Install(tp, 1, nil, func(l Launch) (Receiver, Sender) {
			r := &probe{flow: l.Flow.ID, log: &log, host: &at}
			ref[l.Flow.Dst].recvs[netsim.FlowID(l.Flow.ID)] = r
			s := &probe{flow: l.Flow.ID, log: &log, host: &at}
			ref[l.Flow.Src].sends[netsim.FlowID(l.Flow.ID)] = s
			return r, s
		})

		// Flow IDs are distinct but not in order, so the collector's
		// out-of-order index is exercised too.
		ids := rng.Perm(40)
		var flows []workload.Flow
		for i, id := range ids[:20] {
			src := rng.Intn(hosts)
			dst := (src + 1 + rng.Intn(hosts-1)) % hosts
			f := workload.Flow{ID: uint64(id + 1), Src: src, Dst: dst, Size: 1000, Start: sim.Time(rng.Intn(100))}
			flows = append(flows, f)
			sys.Start(f)
			if sys.flows[i].tel.Slot() != int32(i) {
				t.Fatalf("flow %d got slot %d", i, sys.flows[i].tel.Slot())
			}
		}
		kinds := []netsim.Kind{netsim.SYN, netsim.DATA, netsim.PROBE, netsim.TERM,
			netsim.SYNACK, netsim.ACK, netsim.PROBEACK, netsim.TERMACK}
		for i := 0; i < 400; i++ {
			host, kind := rng.Intn(hosts), kinds[rng.Intn(len(kinds))]
			var id uint64
			var slot int32
			if j := rng.Intn(len(flows)); rng.Intn(4) > 0 {
				id, slot = flows[j].ID, int32(j) // a registered flow, as its sender stamps it
			} else {
				id = uint64(ids[20+rng.Intn(20)] + 1) // never registered
				slot = []int32{int32(j), int32(len(flows) + rng.Intn(5)), -1 - int32(rng.Intn(3))}[rng.Intn(3)]
			}
			sys.Sim.At(sim.Time(rng.Intn(120)), func() {
				at = host
				for _, side := range []struct {
					net *netsim.Network
					ag  netsim.Agent
					log *[]hit
				}{{tp.Net, tp.Hosts[host].Agent, &got}, {refNet, ref[host], &want}} {
					pkt := side.net.NewPacket()
					pkt.Flow, pkt.Slot, pkt.Kind = netsim.FlowID(id), slot, kind
					log = side.log
					side.ag.Receive(pkt, nil)
				}
			})
		}
		tp.Sim().Run()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the flow table and the map reference demultiplexed differently:\n table %v\n   ref %v", seed, got, want)
		}
		if len(got) == 0 {
			t.Fatalf("seed %d: no packet reached an endpoint", seed)
		}
		for _, n := range []*netsim.Network{tp.Net, refNet} {
			if taken, released := n.PacketPoolStats(); taken != 400 || released != taken {
				t.Fatalf("seed %d: pool took %d and released %d, want 400 and 400", seed, taken, released)
			}
		}
		var order []uint64
		sys.EachSender(func(sd Sender) { order = append(order, sd.(*probe).flow) })
		for i, f := range flows {
			if i >= len(order) || order[i] != f.ID {
				t.Fatalf("seed %d: EachSender visited %v, want registration order", seed, order)
			}
		}
	}
}
