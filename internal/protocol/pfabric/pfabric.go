// Package pfabric implements a pFabric baseline (Alizadeh et al.,
// SIGCOMM 2013) on the shared TCP kernel and the netsim qdisc layer:
// every data packet is stamped with a priority derived from the flow's
// current remaining size, switches run the strict-priority multi-band
// discipline (netsim.Prio) so the shortest-remaining flow's packets
// always transmit first, and rate control is minimal — flows start
// with a near-BDP window and a small RTO, leaving scheduling to the
// switches as the paper argues.
//
// The remaining size is quantized into the discipline's bands on a
// log2 scale (BandFor): flows within one segment of completion ride
// band 0, and each doubling of the remaining size drops one band until
// the last band absorbs the rest. Acknowledgments travel in band 0 so
// reverse traffic is never starved by bulk data.
package pfabric

import (
	"math/bits"

	"pdq/internal/netsim"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// Defaults of the minimal rate control: a near-BDP initial window
// (~16 MSS covers 1 Gbps × 150 µs with room for queueing) and a small
// retransmission floor, per the paper's "start at line rate, recover
// by timeout" design.
const (
	DefaultInitCwnd = 16
	DefaultRTOmin   = 300 * sim.Microsecond
)

// Config holds pFabric parameters.
type Config struct {
	TCP   tcp.Config // kernel knobs; InitCwnd/RTOmin default to the pFabric values
	Bands int        // switch priority bands; default netsim.DefaultPrioBands
}

func (c Config) withDefaults() Config {
	if c.TCP.InitCwnd == 0 {
		c.TCP.InitCwnd = DefaultInitCwnd
	}
	if c.TCP.RTOmin == 0 {
		c.TCP.RTOmin = DefaultRTOmin
	}
	c.TCP = c.TCP.WithDefaults()
	if c.Bands <= 0 {
		c.Bands = netsim.DefaultPrioBands
	}
	return c
}

// BandFor quantizes a remaining size of r segments into one of bands
// strict-priority bands: band floor(log2(r)), capped at the last band.
// Smaller remaining size means a smaller band number, i.e. a higher
// priority.
func BandFor(remaining, bands int) uint8 {
	if remaining < 1 {
		remaining = 1
	}
	b := bits.Len(uint(remaining)) - 1 // floor(log2)
	if b >= bands {
		b = bands - 1
	}
	return uint8(b)
}

// System wires pFabric into a topology: agents on every host and the
// strict-priority discipline on every link. A per-row `qdisc:` override
// in a scenario spec is applied after Install and wins.
type System struct {
	Cfg       Config
	Topo      *topo.Topology
	Sim       *sim.Sim
	Collector *workload.Collector
	agents    []*agent
}

// Install attaches pFabric to every host and puts every link's queue
// under strict priority.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults(), Topo: t, Sim: t.Sim(), Collector: workload.NewCollector()}
	for _, l := range t.Net.Links() {
		l.SetQdisc(netsim.NewPrio(s.Cfg.Bands))
	}
	for _, h := range t.Hosts {
		ag := &agent{sys: s,
			sends: map[netsim.FlowID]*tcp.Conn{},
			recvs: map[netsim.FlowID]*tcp.Receiver{},
		}
		h.Agent = ag
		s.agents = append(s.agents, ag)
	}
	return s
}

// Name implements the protocol driver interface.
func (s *System) Name() string { return "pFabric" }

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
		rcv.Sim = dstSim
		dst.recvs[netsim.FlowID(f.ID)] = rcv
	})
	srcSim.At(f.Start, func() {
		snd := &tcp.Conn{Net: net, Flow: f, Path: path}
		snd.PrioFn = func() uint8 {
			s.Collector.AddPrioPacket(f.ID)
			return BandFor(snd.NumPkts()-snd.SndUna(), s.Cfg.Bands)
		}
		snd.Init(srcSim, s.Cfg.TCP, s.Collector, f.ID, n, snd.SendSeg)
		src.sends[netsim.FlowID(f.ID)] = snd
		snd.TrySend()
	})
}

func (s *System) launch(f workload.Flow) {
	src, dst := s.agents[f.Src], s.agents[f.Dst]
	path := s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst])
	n := int((f.Size + netsim.MSS - 1) / netsim.MSS)
	dst.recvs[netsim.FlowID(f.ID)] = tcp.NewReceiver(s.Topo.Net, s.Collector, f, n)
	snd := &tcp.Conn{Net: s.Topo.Net, Flow: f, Path: path}
	// The whole current window carries the flow's remaining size (the
	// unacknowledged tail), so a nearly-done flow's retransmissions and
	// new segments alike jump the queue.
	snd.PrioFn = func() uint8 {
		s.Collector.AddPrioPacket(f.ID)
		return BandFor(snd.NumPkts()-snd.SndUna(), s.Cfg.Bands)
	}
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
	sends map[netsim.FlowID]*tcp.Conn
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
			snd.ProcessAck(int(pkt.Seq/netsim.MSS), pkt.EchoSentAt)
		}
	}
	pkt.Release()
}
