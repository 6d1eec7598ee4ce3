// Package tcp implements the TCP Reno baseline of the PDQ paper's
// evaluation (§5.1): slow start, congestion avoidance, fast retransmit,
// fast recovery with NewReno-style partial-ACK retransmission, and
// timeout recovery with a small configurable RTOmin to mitigate the TCP
// incast problem, as suggested by Vasudevan et al. [18].
//
// The congestion/retransmission machinery lives in Kernel (kernel.go),
// an embeddable core shared with the protocols layered on TCP
// (internal/protocol/dctcp, internal/protocol/pfabric); this file is
// the plain-Reno shell around it. The receiver acknowledges every data
// packet with a cumulative ACK (no delayed ACKs), which matches the
// simulators used by the papers in this line of work.
package tcp

import (
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// HdrWire is zero: TCP has no extra scheduling header beyond the TCP/IP
// headers already charged on every packet.
const HdrWire = 0

// Config holds TCP parameters.
type Config struct {
	RTOmin   sim.Duration // default 1 ms (small, for incast)
	InitRTT  sim.Time
	InitCwnd float64 // initial window in MSS, default 2
	MaxCwnd  float64 // cap in MSS, default 1024 (a 1.5 MB window)
}

// WithDefaults fills unset fields with the Reno defaults. Protocols
// embedding the kernel call it before overriding their own defaults.
func (c Config) WithDefaults() Config {
	if c.RTOmin == 0 {
		c.RTOmin = sim.Millisecond
	}
	if c.InitRTT == 0 {
		c.InitRTT = 150 * sim.Microsecond
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 2
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 1024
	}
	return c
}

// System wires TCP into a topology.
type System struct {
	Cfg       Config
	Topo      *topo.Topology
	Sim       *sim.Sim
	Collector *workload.Collector
	agents    []*agent
}

// Install attaches TCP to every host of the topology (switches are plain
// FIFO tail-drop forwarders).
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.WithDefaults(), Topo: t, Sim: t.Sim(), Collector: workload.NewCollector()}
	for _, h := range t.Hosts {
		ag := &agent{sys: s, host: h,
			sends: map[netsim.FlowID]*Conn{},
			recvs: map[netsim.FlowID]*Receiver{},
		}
		h.Agent = ag
		s.agents = append(s.agents, ag)
	}
	return s
}

// Name implements the protocol driver interface.
func (s *System) Name() string { return "TCP" }

// Start registers flow f and schedules its transmission. In a sharded
// run the launch splits across the owning shard engines (startSharded);
// otherwise everything runs on the network's single Sim.
func (s *System) Start(f workload.Flow) {
	s.Collector.Register(f)
	if s.Topo.Net.Sharded() {
		s.startSharded(f)
		return
	}
	s.Sim.At(f.Start, func() { s.launch(f) })
}

// startSharded schedules the receiver's creation on the destination
// host's shard and the sender's on the source host's, both at f.Start.
// The path is resolved here, at setup time, because Topology.Path
// memoizes BFS distances — resolving it lazily from two shard workers
// would race. The first DATA delivery is at least one lookahead after
// f.Start, so the receiver exists before data can reach it.
func (s *System) startSharded(f workload.Flow) {
	net := s.Topo.Net
	path := s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst])
	n := int((f.Size + netsim.MSS - 1) / netsim.MSS)
	src, dst := s.agents[f.Src], s.agents[f.Dst]
	dstSim := net.SimFor(s.Topo.Hosts[f.Dst].ID())
	srcSim := net.SimFor(s.Topo.Hosts[f.Src].ID())
	dstSim.At(f.Start, func() {
		r := NewReceiver(net, s.Collector, f, n)
		r.Sim = dstSim
		dst.recvs[netsim.FlowID(f.ID)] = r
	})
	srcSim.At(f.Start, func() {
		snd := &Conn{Net: net, Flow: f, Path: path, ExtraHdr: HdrWire}
		snd.Init(srcSim, s.Cfg, s.Collector, f.ID, n, snd.SendSeg)
		src.sends[netsim.FlowID(f.ID)] = snd
		snd.TrySend()
	})
}

func (s *System) launch(f workload.Flow) {
	src, dst := s.agents[f.Src], s.agents[f.Dst]
	path := s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst])
	n := int((f.Size + netsim.MSS - 1) / netsim.MSS)
	dst.recvs[netsim.FlowID(f.ID)] = NewReceiver(s.Topo.Net, s.Collector, f, n)
	snd := &Conn{Net: s.Topo.Net, Flow: f, Path: path, ExtraHdr: HdrWire}
	snd.Init(s.Sim, s.Cfg, s.Collector, f.ID, n, snd.SendSeg)
	src.sends[netsim.FlowID(f.ID)] = snd
	snd.TrySend()
}

// Results returns a snapshot of all flow outcomes.
func (s *System) Results() []workload.Result { return s.Collector.Results() }

// FlowCollector exposes the collector for telemetry attachment.
func (s *System) FlowCollector() *workload.Collector { return s.Collector }

type agent struct {
	sys   *System
	host  *netsim.Host
	sends map[netsim.FlowID]*Conn
	recvs map[netsim.FlowID]*Receiver
}

// Receive implements netsim.Agent. A data packet goes back out as its own
// ACK; an ACK's life ends once the sender has digested it, as does any
// packet no flow here takes.
func (a *agent) Receive(pkt *netsim.Packet, ingress *netsim.Link) {
	switch pkt.Kind {
	case netsim.DATA:
		if r := a.recvs[pkt.Flow]; r != nil {
			r.OnData(pkt)
			return
		}
	case netsim.ACK:
		if snd := a.sends[pkt.Flow]; snd != nil {
			snd.ProcessAck(int(pkt.Seq/netsim.MSS), pkt.EchoSentAt)
		}
	}
	pkt.Release()
}
