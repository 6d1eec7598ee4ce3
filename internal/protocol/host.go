// Package protocol is the host scaffold the six packet protocols share
// (PDQ in internal/core; tcp, dctcp, pfabric, rcp and d3 below this
// directory): the per-host agent that demultiplexes packets to flows, and
// the System that hangs one on every host, registers flows and launches
// them at their start times. A protocol package supplies its config, what
// it installs on links and switches, its header, and the two functions
// that build a flow's receive and send sides.
package protocol

import (
	"fmt"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// Receiver is a flow's state on its destination host.
type Receiver interface {
	// OnForward takes over a packet travelling source to destination
	// (Kind.Forward): it turns it around as the acknowledgment or releases it.
	OnForward(pkt *netsim.Packet)
}

// Sender is a flow's state on its source host.
type Sender interface {
	// HandleAck digests a returning packet. The packet stays the agent's,
	// which releases it afterwards.
	HandleAck(pkt *netsim.Packet)
}

// Installed is what every packet protocol's Install returns, each by
// embedding *System.
type Installed interface {
	Start(workload.Flow)
	Results() []workload.Result
	// FlowCollector exposes the run's collector so telemetry (flow-record
	// sinks, active-flow probes) can be attached.
	FlowCollector() *workload.Collector
}

// System is one protocol installed on a topology: an agent per host and
// the collector of flow outcomes.
type System struct {
	Topo      *topo.Topology
	Sim       *sim.Sim
	Collector *workload.Collector

	agents   []*agent
	subflows int
	recv     func(workload.Flow) Receiver
	send     func(workload.Flow, [][]*netsim.Link) Sender
}

// Install hangs an agent on every host of t. At a flow's start time recv
// builds its receive side and send builds its send side and sets it going
// over paths: the shortest path, or up to subflows equal-cost ones when
// subflows > 1. Both run on the engine that owns their host
// (Network.SimFor), so whatever they build must take its clock from there.
func Install(t *topo.Topology, subflows int, recv func(workload.Flow) Receiver, send func(f workload.Flow, paths [][]*netsim.Link) Sender) *System {
	s := &System{Topo: t, Sim: t.Sim(), Collector: workload.NewCollector(), subflows: subflows, recv: recv, send: send}
	s.agents = make([]*agent, len(t.Hosts))
	for i, h := range t.Hosts {
		s.agents[i] = &agent{sends: map[netsim.FlowID]Sender{}, recvs: map[netsim.FlowID]Receiver{}}
		h.Agent = s.agents[i]
	}
	return s
}

// Start registers flow f and schedules its launch at f.Start. A flow with
// no bytes or no second host is refused here, once for every protocol; the
// scenario layer reports the panic as the cell's failure.
func (s *System) Start(f workload.Flow) {
	if f.Size <= 0 || f.Src == f.Dst {
		panic(fmt.Sprintf("protocol: flow %d of %d bytes from host %d to host %d: a flow needs a positive size and two distinct hosts", f.ID, f.Size, f.Src, f.Dst))
	}
	s.Collector.Register(f)
	if net := s.Topo.Net; net.Sharded() {
		// Each end is built on its host's owner engine, all sender state on
		// the source shard. Paths are resolved here, at setup, because
		// Topology.Path memoizes BFS distances and two shard workers
		// resolving lazily would race. The first forward delivery is at
		// least one lookahead after f.Start, so the receiver exists before
		// anything can reach it (DESIGN.md §14).
		paths := s.paths(f)
		net.SimFor(s.Topo.Hosts[f.Dst].ID()).At(f.Start, func() { s.agents[f.Dst].recvs[netsim.FlowID(f.ID)] = s.recv(f) })
		net.SimFor(s.Topo.Hosts[f.Src].ID()).At(f.Start, func() { s.agents[f.Src].sends[netsim.FlowID(f.ID)] = s.send(f, paths) })
		return
	}
	s.Sim.At(f.Start, func() {
		s.agents[f.Dst].recvs[netsim.FlowID(f.ID)] = s.recv(f)
		s.agents[f.Src].sends[netsim.FlowID(f.ID)] = s.send(f, s.paths(f))
	})
}

func (s *System) paths(f workload.Flow) [][]*netsim.Link {
	src, dst := s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst]
	if s.subflows > 1 {
		return s.Topo.Paths(src, dst, s.subflows)
	}
	return [][]*netsim.Link{s.Topo.Path(src, dst)}
}

// Results returns a snapshot of all flow outcomes.
func (s *System) Results() []workload.Result { return s.Collector.Results() }

// FlowCollector exposes the collector for telemetry attachment (the
// scenario runners hang a trace sink and active-flow probes off it).
func (s *System) FlowCollector() *workload.Collector { return s.Collector }

// EachSender calls fn with every launched flow's send side, in no
// particular order.
func (s *System) EachSender(fn func(Sender)) {
	for _, ag := range s.agents {
		for _, sd := range ag.sends {
			fn(sd)
		}
	}
}

// agent is the per-host endpoint: it routes each arriving packet to the
// flow state it belongs to.
type agent struct {
	sends map[netsim.FlowID]Sender
	recvs map[netsim.FlowID]Receiver
}

// Receive implements netsim.Agent. A forward packet goes to its flow's
// receiver, which sends it back out as its own acknowledgment; everything
// else ends its life here — an acknowledgment once the sender has digested
// it, and packets of flows this host does not know.
//
//pdq:hotpath
func (a *agent) Receive(pkt *netsim.Packet, ingress *netsim.Link) {
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
