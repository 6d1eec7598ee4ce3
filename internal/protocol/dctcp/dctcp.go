// Package dctcp implements DCTCP (Alizadeh et al., SIGCOMM 2010) on
// top of the shared TCP kernel (internal/protocol/tcp.Kernel) and the
// netsim qdisc layer: switches run the ECN-threshold FIFO discipline
// (netsim.ECNFIFO) and set CE on packets arriving above K bytes of
// backlog, receivers echo CE back as ECE on every acknowledgment, and
// senders maintain the g-weighted EWMA α of the marked-ACK fraction,
// cutting the window by α/2 once per observation window instead of
// halving on any loss signal.
//
// The retransmission machinery — RTO, fast retransmit, NewReno
// recovery — is the unmodified Reno kernel: DCTCP only changes how the
// window responds to congestion signaled by marks rather than drops.
package dctcp

import (
	"pdq/internal/netsim"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// DefaultG is the α estimation gain of the DCTCP paper (g = 1/16).
const DefaultG = 1.0 / 16

// Config holds DCTCP parameters.
type Config struct {
	TCP tcp.Config // kernel knobs (RTOmin, windows); Reno defaults apply
	// G is the EWMA gain of the marked-fraction estimator α; default 1/16.
	G float64
	// Threshold is the switch marking threshold K in bytes; default
	// netsim.DefaultECNThreshold (30 KB ≈ 20 full-size packets, the
	// paper's K for 1 Gbps links).
	Threshold int
}

func (c Config) withDefaults() Config {
	c.TCP = c.TCP.WithDefaults()
	if c.G == 0 {
		c.G = DefaultG
	}
	if c.Threshold == 0 {
		c.Threshold = netsim.DefaultECNThreshold
	}
	return c
}

// System wires DCTCP into a topology: agents on every host and the
// ECN-threshold discipline on every link. A per-row `qdisc:` override
// in a scenario spec is applied after Install and wins.
type System struct {
	Cfg       Config
	Topo      *topo.Topology
	Sim       *sim.Sim
	Collector *workload.Collector
	agents    []*agent
}

// Install attaches DCTCP to every host and marks every link's queue
// with the ECN-threshold discipline.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults(), Topo: t, Sim: t.Sim(), Collector: workload.NewCollector()}
	for _, l := range t.Net.Links() {
		l.SetQdisc(&netsim.ECNFIFO{Threshold: s.Cfg.Threshold})
	}
	for _, h := range t.Hosts {
		ag := &agent{sys: s,
			sends: map[netsim.FlowID]*sender{},
			recvs: map[netsim.FlowID]*tcp.Receiver{},
		}
		h.Agent = ag
		s.agents = append(s.agents, ag)
	}
	return s
}

// Name implements the protocol driver interface.
func (s *System) Name() string { return "DCTCP" }

// Start registers flow f and schedules its transmission. In a sharded
// run the launch splits across the owning shard engines (startSharded).
func (s *System) Start(f workload.Flow) {
	s.Collector.Register(f)
	if s.Topo.Net.Sharded() {
		s.startSharded(f)
		return
	}
	s.Sim.At(f.Start, func() { s.launch(f) })
}

// startSharded mirrors tcp.System.startSharded: receiver creation on the
// destination shard, sender on the source shard, path resolved at setup
// time (the topology's BFS memo is not shard-safe).
func (s *System) startSharded(f workload.Flow) {
	net := s.Topo.Net
	path := s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst])
	n := int((f.Size + netsim.MSS - 1) / netsim.MSS)
	src, dst := s.agents[f.Src], s.agents[f.Dst]
	dstSim := net.SimFor(s.Topo.Hosts[f.Dst].ID())
	srcSim := net.SimFor(s.Topo.Hosts[f.Src].ID())
	dstSim.At(f.Start, func() {
		rcv := tcp.NewReceiver(net, s.Collector, f, n)
		rcv.EchoECN = true
		rcv.Sim = dstSim
		dst.recvs[netsim.FlowID(f.ID)] = rcv
	})
	srcSim.At(f.Start, func() {
		snd := &sender{sys: s}
		snd.Conn = tcp.Conn{Net: net, Flow: f, Path: path}
		snd.Init(srcSim, s.Cfg.TCP, s.Collector, f.ID, n, snd.SendSeg)
		src.sends[netsim.FlowID(f.ID)] = snd
		snd.TrySend()
	})
}

func (s *System) launch(f workload.Flow) {
	src, dst := s.agents[f.Src], s.agents[f.Dst]
	path := s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst])
	n := int((f.Size + netsim.MSS - 1) / netsim.MSS)
	rcv := tcp.NewReceiver(s.Topo.Net, s.Collector, f, n)
	rcv.EchoECN = true
	dst.recvs[netsim.FlowID(f.ID)] = rcv
	snd := &sender{sys: s}
	snd.Conn = tcp.Conn{Net: s.Topo.Net, Flow: f, Path: path}
	snd.Init(s.Sim, s.Cfg.TCP, s.Collector, f.ID, n, snd.SendSeg)
	src.sends[netsim.FlowID(f.ID)] = snd
	snd.TrySend()
}

// Results returns a snapshot of all flow outcomes.
func (s *System) Results() []workload.Result { return s.Collector.Results() }

// FlowCollector exposes the collector for telemetry attachment.
func (s *System) FlowCollector() *workload.Collector { return s.Collector }

type agent struct {
	sys   *System
	sends map[netsim.FlowID]*sender
	recvs map[netsim.FlowID]*tcp.Receiver
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
			snd.onAck(pkt)
		}
	}
	pkt.Release()
}

// sender is one DCTCP connection: the shared connection shell plus the
// α estimator over the receiver's ECE echoes.
type sender struct {
	tcp.Conn
	sys *System

	alpha     float64 // EWMA of the marked-ACK fraction
	ackTotal  int     // ACKs in the current observation window
	ackMarked int     // of which ECE-marked
	windowEnd int     // segment index closing the observation window
}

// onAck folds the ACK's ECE bit into the α estimator and, at each
// observation-window boundary (one window of data acknowledged),
// updates α and applies the α-scaled cut if the window saw any marks;
// then the Reno kernel processes the acknowledgment as usual.
func (snd *sender) onAck(pkt *netsim.Packet) {
	ackIdx := int(pkt.Seq / netsim.MSS)
	snd.ackTotal++
	if pkt.ECE {
		snd.ackMarked++
		snd.sys.Collector.AddECNMark(snd.Flow.ID)
	}
	if ackIdx > snd.windowEnd {
		f := float64(snd.ackMarked) / float64(snd.ackTotal)
		snd.alpha = (1-snd.sys.Cfg.G)*snd.alpha + snd.sys.Cfg.G*f
		if snd.ackMarked > 0 {
			snd.ECNCut(snd.alpha)
		}
		snd.ackTotal, snd.ackMarked = 0, 0
		snd.windowEnd = snd.SndNext()
	}
	snd.ProcessAck(ackIdx, pkt.EchoSentAt)
}
