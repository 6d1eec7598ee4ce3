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
	"pdq/internal/carve"
	"pdq/internal/protocol"
	"pdq/internal/sim"
	"pdq/internal/topo"
)

// HdrWire is zero: TCP has no extra scheduling header beyond the TCP/IP
// headers already charged on every packet.
const HdrWire = 0

// Config holds the TCP parameters a protocol on the kernel may set
// (pFabric sets both).
type Config struct {
	RTOmin   sim.Duration // default protocol.RTOmin (small, for incast)
	InitCwnd float64      // initial window in MSS, default 2
}

// maxCwnd caps the window, in MSS: a 1.5 MB window.
const maxCwnd = 1024

// WithDefaults fills unset fields with the Reno defaults. Protocols
// embedding the kernel call it after setting their own defaults.
func (c Config) WithDefaults() Config {
	if c.RTOmin == 0 {
		c.RTOmin = protocol.RTOmin
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 2
	}
	return c
}

// System wires TCP into a topology: the shared host scaffold; switches are
// plain FIFO tail-drop forwarders.
type System struct {
	*protocol.System
	Cfg Config

	ends *carve.Chunks[endpoints]
}

// endpoints is one flow's state at both ends, carved whole.
type endpoints struct {
	rcv Receiver
	c   Conn
}

// Install attaches TCP to every host of the topology.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.WithDefaults(), ends: carve.Of[endpoints](t.Net.Arena())}
	s.System = protocol.Install(t, 1, nil, s.launch)
	return s
}

func (s *System) launch(l protocol.Launch) (protocol.Receiver, protocol.Sender) {
	e := s.ends.New()
	e.rcv.Init(l)
	e.c.ExtraHdr = HdrWire
	e.c.Open(l, s.Cfg)
	e.c.TrySend()
	return &e.rcv, &e.c
}
