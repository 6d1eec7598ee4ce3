package core

import (
	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/topo"
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

	ends *carve.Chunks[endpoints]
}

// endpoints is one flow's state at both ends, carved whole: the receiver,
// the window and, on a single path, its one subflow.
type endpoints struct {
	rcv xfer.Receiver
	w   xfer.Window
	sub [1]subflow
}

// Install attaches PDQ with the given configuration to every host and
// switch of the topology.
func Install(t *topo.Topology, cfg Config) *System {
	if cfg.Subflows < 1 {
		cfg.Subflows = 1
	}
	s := &System{Cfg: cfg, ends: carve.Of[endpoints](t.Net.Arena())}
	s.Logic = NewSwitchLogic(&s.Cfg, t.Net.Arena(), len(t.Net.Links()))
	s.System = protocol.Install(t, s.Cfg.Subflows, s.Logic, s.launch)
	return s
}

// launch builds the flow's receiver and its sender-side state — one
// window, one pacer per subflow — and kicks the subflows off. The first
// subflow also carries the Early Termination timer. Multipath flows take
// their subflows from the heap.
func (s *System) launch(l protocol.Launch) (protocol.Receiver, protocol.Sender) {
	e := s.ends.New()
	e.rcv.Init(l, capRate)
	w := &e.w
	w.Init(l, netsim.SchedHdrWire)
	subs := e.sub[:]
	if s.Cfg.Subflows > 1 {
		subs = make([]subflow, s.Cfg.Subflows)
	}
	for i := range subs {
		subs[i] = subflow{sys: s, rmax: l.Src.NICRate(), pauseBy: netsim.PauseNone}
		w.Attach(&subs[i].Pacer, l.Fwd[i%len(l.Fwd)], &subs[i])
	}
	for i := range subs {
		subs[i].Start()
		if i == 0 && s.Cfg.EarlyTermination && l.Flow.Deadline > 0 {
			w.Sim().AtRunner(l.Flow.Start+l.Flow.Deadline+1, (*deadlineTimer)(&subs[0]))
		}
	}
	return &e.rcv, w
}

// OnLinkState implements the fault layer's PathUpdater (structurally —
// core does not import fault): when a link goes down, every active sender
// whose path crosses it is failed over to the shortest surviving route,
// when one exists. Senders keep their old path when the topology offers
// no alternative (single-bottleneck stars); they stall against the dead
// link and recover by RTO once it returns — PDQ's soft-state story needs
// no extra signaling. Restorations are a no-op: surviving routes stay
// valid, and keeping them avoids churn. EachSender visits in registration
// order; the per-sender reroute is idempotent and would not depend on
// the order anyway.
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
		if !netsim.PathUses(sub.Path, l) {
			continue
		}
		if fresh == nil {
			src, dst := s.Topo.Hosts[w.Flow.Src], s.Topo.Hosts[w.Flow.Dst]
			fresh = s.Topo.Detour(src, dst)
			if fresh == nil {
				return // no surviving route; stall and recover by RTO
			}
		}
		sub.Path = fresh
	}
}
