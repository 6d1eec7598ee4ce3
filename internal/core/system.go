package core

import (
	"fmt"

	"pdq/internal/netsim"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// System wires PDQ into a topology: one agent per host, shared switch
// logic on every forwarding element, and a collector for flow outcomes.
// It is the package's public entry point:
//
//	tp := topo.SingleRootedTree(4, 3, seed)
//	sys := core.Install(tp, core.Full())
//	for _, f := range flows { sys.Start(f) }
//	tp.Sim().Run()
//	results := sys.Results()
type System struct {
	Cfg       Config
	Topo      *topo.Topology
	Sim       *sim.Sim
	Collector *workload.Collector
	Logic     *SwitchLogic

	agents []*Agent
	xcfg   xfer.Config // the transport constants of Cfg, as the sender takes them
}

// Install attaches PDQ with the given configuration to every host and
// switch of the topology.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{
		Cfg:       cfg.withDefaults(),
		Topo:      t,
		Sim:       t.Sim(),
		Collector: workload.NewCollector(),
	}
	s.xcfg = xfer.Config{InitRTT: s.Cfg.InitRTT, RTOmin: s.Cfg.RTOmin, HdrBytes: netsim.SchedHdrWire}
	s.Logic = NewSwitchLogic(&s.Cfg, len(t.Net.Links()))
	for _, sw := range t.Switches {
		sw.Logic = s.Logic
	}
	for _, h := range t.Hosts {
		ag := &Agent{
			sends: map[netsim.FlowID]*xfer.Window{},
			recvs: map[netsim.FlowID]*xfer.Receiver{},
		}
		h.Agent = ag
		h.Logic = s.Logic // hosts relay in server-centric topologies
		s.agents = append(s.agents, ag)
	}
	return s
}

func (s *System) net() *netsim.Network { return s.Topo.Net }

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

// Start registers flow f and schedules its transmission at f.Start. In a
// sharded run the launch splits across the endpoints' owner engines
// (startSharded); otherwise everything runs on the network's single Sim.
func (s *System) Start(f workload.Flow) {
	if f.Src == f.Dst {
		panic("core: flow to self")
	}
	s.Collector.Register(f)
	if s.net().Sharded() {
		s.startSharded(f)
		return
	}
	s.Sim.At(f.Start, func() { s.launch(f) })
}

// resolvePaths returns the flow's subflow paths. In sharded runs this
// must happen at setup time: Topology.Path memoizes BFS distances, so
// resolving lazily from two shard workers would race.
func (s *System) resolvePaths(f workload.Flow) [][]*netsim.Link {
	srcHost, dstHost := s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst]
	if s.Cfg.Subflows > 1 {
		return s.Topo.Paths(srcHost, dstHost, s.Cfg.Subflows)
	}
	return [][]*netsim.Link{s.Topo.Path(srcHost, dstHost)}
}

func (s *System) launch(f workload.Flow) {
	s.launchReceiver(f)
	s.launchSender(f, s.resolvePaths(f))
}

func (s *System) launchReceiver(f workload.Flow) {
	s.agents[f.Dst].recvs[netsim.FlowID(f.ID)] = xfer.NewReceiver(s.Topo.Hosts[f.Dst], s.Collector, f, s.Cfg.Subflows, capRate)
}

// startSharded schedules the receiver's creation on the destination
// host's shard and the sender's on the source host's, both at f.Start.
// The first SYN delivery is at least one lookahead after f.Start, so the
// receiver exists before anything can reach it. All of a flow's sender
// state (the window and its subflows) lives on the source shard; the
// switch state its packets touch is per-link and shard-owned; the only
// endpoint-shared structure, the collector, keeps per-endpoint fields
// (DESIGN.md §14).
func (s *System) startSharded(f workload.Flow) {
	net := s.net()
	paths := s.resolvePaths(f)
	net.SimFor(s.Topo.Hosts[f.Dst].ID()).At(f.Start, func() { s.launchReceiver(f) })
	net.SimFor(s.Topo.Hosts[f.Src].ID()).At(f.Start, func() { s.launchSender(f, paths) })
}

// launchSender builds the sender-side state of f — one window, one pacer
// per subflow — on the source host's owner engine and kicks the subflows
// off. The first subflow also carries the Early Termination timer.
func (s *System) launchSender(f workload.Flow, paths [][]*netsim.Link) {
	src := s.Topo.Hosts[f.Src]
	w := xfer.NewWindow(src, s.Collector, &s.xcfg, f)
	s.agents[f.Src].sends[netsim.FlowID(f.ID)] = w
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
}

// OnLinkState implements the fault layer's PathUpdater (structurally —
// core does not import fault): when a link goes down, every active sender
// whose path crosses it is failed over to the shortest surviving route,
// when one exists. Senders keep their old path when the topology offers
// no alternative (single-bottleneck stars); they stall against the dead
// link and recover by RTO once it returns — PDQ's soft-state story needs
// no extra signaling. Restorations are a no-op: surviving routes stay
// valid, and keeping them avoids churn. The per-sender reroute is
// idempotent and independent of visit order, so iterating the agents'
// send maps directly is safe.
func (s *System) OnLinkState(l *netsim.Link, down bool) {
	if !down {
		return
	}
	for _, ag := range s.agents {
		for _, w := range ag.sends {
			s.failover(w, l)
		}
	}
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

// Results returns a snapshot of all flow outcomes.
func (s *System) Results() []workload.Result { return s.Collector.Results() }

// FlowCollector exposes the collector for telemetry attachment (the
// scenario runners hang a trace sink and active-flow probes off it).
func (s *System) FlowCollector() *workload.Collector { return s.Collector }

// Agent is the per-host PDQ endpoint, demultiplexing packets to sender and
// receiver flow state.
type Agent struct {
	sends map[netsim.FlowID]*xfer.Window
	recvs map[netsim.FlowID]*xfer.Receiver
}

// Receive implements netsim.Agent. A forward packet goes back out as its
// own acknowledgment; everything else ends its life here — an
// acknowledgment once the sender has digested it, and packets of flows
// this host does not know.
func (a *Agent) Receive(pkt *netsim.Packet, ingress *netsim.Link) {
	if pkt.Kind.Forward() {
		if r := a.recvs[pkt.Flow]; r != nil {
			r.OnForward(pkt)
			return
		}
	} else if w := a.sends[pkt.Flow]; w != nil {
		w.HandleAck(pkt)
	}
	pkt.Release()
}
