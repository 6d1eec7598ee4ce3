package core

import (
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/topo"
)

type agentFunc func(*netsim.Packet, *netsim.Link)

func (f agentFunc) Receive(pkt *netsim.Packet, l *netsim.Link) { f(pkt, l) }

// TestFailoverAcksTravelTheNewReverse fails a core-facing link under a
// cross-pod flow on a fat-tree. Before the failure every acknowledgment
// comes back over the memoized reverse route (the very slice
// topo.Topology.Routes hands out); once the sender is failed over, the
// receiver answers data on the new path over that path's reverse, not
// over the memoized one, which crosses the dead link: the flow completes.
func TestFailoverAcksTravelTheNewReverse(t *testing.T) {
	tp := topo.FatTree(4, 1)
	sys := install(t, tp, Full())
	src, dst := tp.Hosts[0], tp.Hosts[15]
	sys.Start(flow(1, 0, 15, 2<<20, 0, 0))
	fwd, rev := tp.Routes(src, dst, 1)
	failed := fwd[0][2]

	var fresh []*netsim.Link
	tp.Sim().At(300*sim.Microsecond, func() {
		failed.SetDuplexDown(true)
		sys.OnLinkState(failed, true)
		fresh = sys.windows()[0].Pacers()[0].Path
	})
	var memo, detour, other int
	agent := src.Agent
	src.Agent = agentFunc(func(pkt *netsim.Packet, in *netsim.Link) {
		switch {
		case len(pkt.Path) > 0 && &pkt.Path[0] == &rev[0][0]:
			memo++
		case fresh != nil && pathsEqual(pkt.Path, netsim.ReversePath(fresh)):
			detour++
		default:
			other++
		}
		agent.Receive(pkt, in)
	})
	tp.Sim().RunUntil(sim.Second)

	if fresh == nil || pathsEqual(fresh, fwd[0]) || netsim.PathUses(fresh, failed) {
		t.Fatalf("the flow was not failed over: path %v, memoized %v", fresh, fwd[0])
	}
	if memo == 0 || detour == 0 || other != 0 {
		t.Errorf("acknowledgments: %d over the memoized reverse, %d over the new reverse, %d elsewhere; want some, some, none", memo, detour, other)
	}
	if r := sys.Results()[0]; !r.Done() {
		t.Error("the failed-over flow did not complete")
	}
}

// windows returns the launched senders' windows in registration order.
func (s *System) windows() []*xfer.Window {
	var ws []*xfer.Window
	s.EachSender(func(sd protocol.Sender) { ws = append(ws, sd.(*xfer.Window)) })
	return ws
}

func pathsEqual(a, b []*netsim.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
