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
	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/tcp"
	"pdq/internal/topo"
)

// DefaultG is the α estimation gain of the DCTCP paper (g = 1/16).
const DefaultG = 1.0 / 16

// Config holds DCTCP parameters. The kernel runs with the Reno defaults.
type Config struct {
	// G is the EWMA gain of the marked-fraction estimator α; default 1/16.
	G float64
	// Threshold is the switch marking threshold K in bytes; default
	// netsim.DefaultECNThreshold (30 KB ≈ 20 full-size packets, the
	// paper's K for 1 Gbps links).
	Threshold int
}

func (c Config) withDefaults() Config {
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

	ends *carve.Chunks[endpoints]
}

// endpoints is one flow's state at both ends, carved whole.
type endpoints struct {
	rcv tcp.Receiver
	snd sender
}

// Install attaches DCTCP to every host and marks every link's queue
// with the ECN-threshold discipline. The discipline holds no state, so
// every link shares one.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults(), ends: carve.Of[endpoints](t.Net.Arena())}
	s.System = protocol.Install(t, 1, nil, s.launch)
	q := &netsim.ECNFIFO{Threshold: s.Cfg.Threshold}
	for _, l := range t.Net.Links() {
		l.SetQdisc(q)
	}
	return s
}

func (s *System) launch(l protocol.Launch) (protocol.Receiver, protocol.Sender) {
	e := s.ends.New()
	e.rcv.Init(l)
	e.rcv.EchoECN = true
	e.snd.sys = s
	e.snd.Open(l, tcp.Config{}.WithDefaults())
	e.snd.TrySend()
	return &e.rcv, &e.snd
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
		snd.Coll.AddECNMark()
	}
	if ackIdx > snd.windowEnd {
		f := float64(snd.ackMarked) / float64(snd.ackTotal)
		snd.alpha = float64((1-snd.sys.Cfg.G)*snd.alpha) + float64(snd.sys.Cfg.G*f)
		if snd.ackMarked > 0 {
			snd.ECNCut(snd.alpha)
		}
		snd.ackTotal, snd.ackMarked = 0, 0
		snd.windowEnd = snd.SndNext()
	}
	snd.ProcessAck(ackIdx, pkt.EchoSentAt)
}
