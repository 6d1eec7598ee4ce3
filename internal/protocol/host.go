// Package protocol is the host scaffold the six packet protocols share
// (PDQ in internal/core; tcp, dctcp, pfabric, rcp and d3 below this
// directory): the per-host agent that demultiplexes packets to flows, and
// the System that hangs one on every host, registers flows and launches
// them at their start times. A protocol package supplies its config, what
// it installs on links and switches, its header, and the function that
// builds a flow's receive and send sides.
//
// The transport constants the protocols share are defined here, once.
// Each is a constant because no figure or scenario varies it; a value a
// second scenario needs becomes a runner parameter, like pFabric's
// rtomin_us.
package protocol

import (
	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

const (
	// InitRTT seeds RTT estimates before the first measurement, about one
	// round trip of the paper's 12-server tree (§5.1).
	InitRTT = 150 * sim.Microsecond
	// RTOmin bounds retransmission timeouts below: the paper's 1 ms, small
	// to mitigate TCP incast (§5.1).
	RTOmin = sim.Millisecond
	// StaleTimeout evicts a flow from a switch's per-link state once its
	// state has gone this long unrefreshed (its TERM was lost). It stays
	// well above PDQ's largest suppressed-probing interval.
	StaleTimeout = 20 * sim.Millisecond
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

// System is one protocol installed on a topology: an agent per host, the
// collector of flow outcomes, and the flow table. Start gives every flow
// a slot, its index in the table in registration order (and in the
// collector, which registers the same flows in the same order); every
// packet a flow sends carries it, so a host finds the flow's state by
// index.
type System struct {
	Topo      *topo.Topology
	Sim       *sim.Sim
	Collector *workload.Collector

	agents   []agent
	flows    []*flow             // by slot
	entries  *carve.Chunks[flow] // what flows' entries are carved from
	subflows int
	launch   func(Launch) (Receiver, Sender)
}

// flow is one flow's entry in its System's table: the flow, its collector
// entry, and, once launched, its two endpoints. The entry is its own
// launch event, so it must not move: entries are carved from chunks.
type flow struct {
	sys *System
	f   workload.Flow
	tel workload.Ref
	snd Sender
	rcv Receiver
}

// Launch is what a protocol gets to build one flow's endpoints from at the
// flow's start time.
type Launch struct {
	Flow     workload.Flow
	Tel      workload.Ref // the flow's collector entry, and its slot
	Src, Dst *netsim.Host
	// Fwd is the flow's shortest path, or up to subflows equal-cost ones
	// when subflows > 1, and Rev the reverse of each: both memoized on
	// the topology (topo.Topology.Routes), so shared and read-only.
	Fwd, Rev [][]*netsim.Link
}

// Install hangs an agent on every host of t and sets logic, the protocol's
// switch logic (nil for plain forwarding), on every switch and every host:
// hosts relay in server-centric topologies. At a flow's start time launch
// builds its receive side, then its send side, and sets the send side
// going. Both report to the flow's collector entry, whose slot the sender
// stamps on every packet. The flows' entries, their endpoints and their
// collector cells are carved from the network's arena (netsim.Network.Arena).
func Install(t *topo.Topology, subflows int, logic netsim.SwitchLogic, launch func(Launch) (Receiver, Sender)) *System {
	a := t.Net.Arena()
	s := &System{Topo: t, Sim: t.Sim(), Collector: workload.NewCollectorIn(a), entries: carve.Of[flow](a), subflows: subflows, launch: launch}
	s.agents = make([]agent, len(t.Hosts))
	for i, h := range t.Hosts {
		s.agents[i] = agent{sys: s, host: i}
		h.Agent = &s.agents[i]
		h.Logic = logic
	}
	for _, sw := range t.Switches {
		sw.Logic = logic
	}
	return s
}

// Start registers flow f and schedules its launch at f.Start. A flow with
// no bytes or no second host is refused here, once for every protocol
// (workload.Flow.CheckStart).
func (s *System) Start(f workload.Flow) {
	f.CheckStart()
	e := s.entries.New()
	*e = flow{sys: s, f: f, tel: s.Collector.Register(f)}
	s.flows = append(s.flows, e)
	s.Sim.AtRunner(f.Start, e)
}

// RunEvent launches the flow over its memoized routes.
func (e *flow) RunEvent() {
	s := e.sys
	src, dst := s.Topo.Hosts[e.f.Src], s.Topo.Hosts[e.f.Dst]
	fwd, rev := s.Topo.Routes(src, dst, s.subflows)
	e.rcv, e.snd = s.launch(Launch{Flow: e.f, Tel: e.tel, Src: src, Dst: dst, Fwd: fwd, Rev: rev})
}

// Results returns a snapshot of all flow outcomes.
func (s *System) Results() []workload.Result { return s.Collector.Results() }

// FlowCollector exposes the collector for telemetry attachment (the
// scenario runners hang a trace sink and active-flow probes off it).
func (s *System) FlowCollector() *workload.Collector { return s.Collector }

// EachSender calls fn with every launched flow's send side, in
// registration order.
func (s *System) EachSender(fn func(Sender)) {
	for _, e := range s.flows {
		if e.snd != nil {
			fn(e.snd)
		}
	}
}

// agent is the per-host endpoint: it routes each arriving packet to the
// flow state it belongs to, found by the packet's slot.
type agent struct {
	sys  *System
	host int // index in Topo.Hosts
}

// Receive implements netsim.Agent. A forward packet goes to its flow's
// receiver, which sends it back out as its own acknowledgment; everything
// else ends its life here — an acknowledgment once the sender has digested
// it, and packets of flows this host does not own: a slot that names no
// flow or another flow than the packet's, a flow not launched yet, or one
// whose other end this host is.
func (a *agent) Receive(pkt *netsim.Packet, ingress *netsim.Link) {
	if flows := a.sys.flows; uint(pkt.Slot) < uint(len(flows)) {
		if e := flows[pkt.Slot]; e.f.ID == uint64(pkt.Flow) {
			if pkt.Kind.Forward() {
				if e.f.Dst == a.host && e.rcv != nil {
					e.rcv.OnForward(pkt)
					return
				}
			} else if e.f.Src == a.host && e.snd != nil {
				e.snd.HandleAck(pkt)
			}
		}
	}
	pkt.Release()
}

// AckRoute is a receiver's way back: the path each acknowledgment
// travels. A packet that came over one of its flow's memoized paths — that
// very slice, not merely the same links — goes back over the memoized
// reverse. Any other path, a failover route, is reversed itself, once per
// route in a row.
type AckRoute struct {
	fwd, rev [][]*netsim.Link // the flow's memoized routes (Launch)
	detour   *detour          // the last other path seen; nil until one is
}

// detour is a path other than the memoized ones, and its reverse.
type detour struct{ fwd, rev []*netsim.Link }

// Init sets the flow's memoized routes.
func (r *AckRoute) Init(l Launch) { *r = AckRoute{fwd: l.Fwd, rev: l.Rev} }

// For returns the path pkt's acknowledgment travels.
func (r *AckRoute) For(pkt *netsim.Packet) []*netsim.Link {
	for i, p := range r.fwd {
		if sameSlice(pkt.Path, p) {
			return r.rev[i]
		}
	}
	if d := r.detour; d != nil && sameSlice(pkt.Path, d.fwd) {
		return d.rev
	}
	return r.reroute(pkt.Path)
}

// reroute makes path the detour and returns its reverse.
func (r *AckRoute) reroute(path []*netsim.Link) []*netsim.Link {
	r.detour = &detour{path, netsim.ReversePath(path)}
	return r.detour.rev
}

// sameSlice reports whether a and b are one slice: same start, same
// length.
func sameSlice(a, b []*netsim.Link) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}
