package core

import (
	"fmt"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// System wires PDQ into a topology: the shared host scaffold (an agent per
// host, flow launch, the collector of flow outcomes) plus PDQ's switch
// logic on every forwarding element. It is the package's public entry
// point:
//
//	tp := topo.SingleRootedTree(4, 3, seed)
//	sys := core.Install(tp, core.Full())
//	for _, f := range flows { sys.Start(f) }
//	tp.Sim().Run()
//	results := sys.Results()
type System struct {
	*protocol.System
	Cfg   Config
	Logic *SwitchLogic

	xcfg xfer.Config // the transport constants of Cfg, as the sender takes them
}

// Install attaches PDQ with the given configuration to every host and
// switch of the topology.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults()}
	s.System = protocol.Install(t, s.Cfg.Subflows, s.newReceiver, s.newSender)
	s.xcfg = xfer.Config{InitRTT: s.Cfg.InitRTT, RTOmin: s.Cfg.RTOmin, HdrBytes: netsim.SchedHdrWire}
	s.Logic = NewSwitchLogic(&s.Cfg, len(t.Net.Links()))
	for _, sw := range t.Switches {
		sw.Logic = s.Logic
	}
	for _, h := range t.Hosts {
		h.Logic = s.Logic // hosts relay in server-centric topologies
	}
	return s
}

// Name identifies the configured variant for experiment tables.
func (s *System) Name() string {
	switch {
	case s.Cfg.Subflows > 1:
		return fmt.Sprintf("M-PDQ(%d)", s.Cfg.Subflows)
	case s.Cfg.EarlyStart && s.Cfg.EarlyTermination && s.Cfg.SuppressedProbing:
		return "PDQ(Full)"
	case s.Cfg.EarlyStart && s.Cfg.EarlyTermination:
		return "PDQ(ES+ET)"
	case s.Cfg.EarlyStart:
		return "PDQ(ES)"
	default:
		return "PDQ(Basic)"
	}
}

func (s *System) newReceiver(f workload.Flow) protocol.Receiver {
	return xfer.NewReceiver(s.Topo.Hosts[f.Dst], s.Collector, f, s.Cfg.Subflows, capRate)
}

// newSender builds the sender-side state of f — one window, one pacer per
// subflow — and kicks the subflows off. The first subflow also carries the
// Early Termination timer.
func (s *System) newSender(f workload.Flow, paths [][]*netsim.Link) protocol.Sender {
	src := s.Topo.Hosts[f.Src]
	w := xfer.NewWindow(src, s.Collector, &s.xcfg, f)
	subs := make([]subflow, s.Cfg.Subflows)
	for i := range subs {
		subs[i] = subflow{sys: s, rmax: src.NICRate(), pauseBy: netsim.PauseNone}
		w.Attach(&subs[i].Pacer, paths[i%len(paths)], &subs[i])
	}
	for i := range subs {
		subs[i].Start()
		if i == 0 && s.Cfg.EarlyTermination && f.HasDeadline() {
			w.Sim().At(f.AbsDeadline()+1, subs[0].onDeadline)
		}
	}
	return w
}

// OnLinkState implements the fault layer's PathUpdater (structurally —
// core does not import fault): when a link goes down, every active sender
// whose path crosses it is failed over to the shortest surviving route,
// when one exists. Senders keep their old path when the topology offers
// no alternative (single-bottleneck stars); they stall against the dead
// link and recover by RTO once it returns — PDQ's soft-state story needs
// no extra signaling. Restorations are a no-op: surviving routes stay
// valid, and keeping them avoids churn. The per-sender reroute is
// idempotent and independent of visit order, so EachSender's map order is
// safe.
func (s *System) OnLinkState(l *netsim.Link, down bool) {
	if !down {
		return
	}
	s.EachSender(func(sd protocol.Sender) { s.failover(sd.(*xfer.Window), l) })
}

// failover reroutes the subflows of w that traverse either direction of
// the failed link l.
func (s *System) failover(w *xfer.Window, l *netsim.Link) {
	var fresh []*netsim.Link
	for _, sub := range w.Pacers() {
		if !pathUses(sub.Path, l) {
			continue
		}
		if fresh == nil {
			src, dst := s.Topo.Hosts[w.Flow.Src], s.Topo.Hosts[w.Flow.Dst]
			fresh = s.Topo.PathExcluding(src, dst, (*netsim.Link).Down)
			if fresh == nil {
				return // no surviving route; stall and recover by RTO
			}
		}
		sub.Path = fresh
	}
}

// pathUses reports whether path traverses l in either direction.
func pathUses(path []*netsim.Link, l *netsim.Link) bool {
	for _, x := range path {
		if x == l || x == l.Peer {
			return true
		}
	}
	return false
}
