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
	"pdq/internal/protocol"
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

// System wires TCP into a topology: the shared host scaffold; switches are
// plain FIFO tail-drop forwarders.
type System struct {
	*protocol.System
	Cfg Config
}

// Install attaches TCP to every host of the topology.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.WithDefaults()}
	s.System = protocol.Install(t, 1, s.newReceiver, s.newSender)
	return s
}

func (s *System) newReceiver(f workload.Flow) protocol.Receiver {
	return NewReceiver(s.Topo.Hosts[f.Dst], s.Collector, f)
}

func (s *System) newSender(f workload.Flow, paths [][]*netsim.Link) protocol.Sender {
	c := &Conn{ExtraHdr: HdrWire}
	c.Open(s.Topo.Hosts[f.Src], s.Cfg, s.Collector, f, paths[0])
	c.TrySend()
	return c
}
