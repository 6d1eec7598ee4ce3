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
	"pdq/internal/protocol"
	"pdq/internal/protocol/tcp"
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

// System wires DCTCP into a topology: the shared host scaffold and the
// ECN-threshold discipline on every link. A per-row `qdisc:` override
// in a scenario spec is applied after Install and wins.
type System struct {
	*protocol.System
	Cfg Config
}

// Install attaches DCTCP to every host and marks every link's queue
// with the ECN-threshold discipline.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults()}
	s.System = protocol.Install(t, 1, s.newReceiver, s.newSender)
	for _, l := range t.Net.Links() {
		l.SetQdisc(&netsim.ECNFIFO{Threshold: s.Cfg.Threshold})
	}
	return s
}

func (s *System) newReceiver(f workload.Flow) protocol.Receiver {
	r := tcp.NewReceiver(s.Topo.Hosts[f.Dst], s.Collector, f)
	r.EchoECN = true
	return r
}

func (s *System) newSender(f workload.Flow, paths [][]*netsim.Link) protocol.Sender {
	snd := &sender{sys: s}
	snd.Open(s.Topo.Hosts[f.Src], s.Cfg.TCP, s.Collector, f, paths[0])
	snd.TrySend()
	return snd
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

// HandleAck implements protocol.Sender ahead of the embedded connection's:
// it folds the ACK's ECE bit into the α estimator and, at each
// observation-window boundary (one window of data acknowledged),
// updates α and applies the α-scaled cut if the window saw any marks;
// then the Reno kernel processes the acknowledgment as usual.
func (snd *sender) HandleAck(pkt *netsim.Packet) {
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
