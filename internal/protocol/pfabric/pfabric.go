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

	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
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

// System wires pFabric into a topology: the shared host scaffold and the
// strict-priority discipline on every link. A per-row `qdisc:` override
// in a scenario spec is applied after Install and wins.
type System struct {
	*protocol.System
	Cfg Config

	ends *carve.Chunks[endpoints]
	prio func(*tcp.Conn) uint8 // band, bound once for every connection
}

// endpoints is one flow's state at both ends, carved whole.
type endpoints struct {
	rcv tcp.Receiver
	c   tcp.Conn
}

// Install attaches pFabric to every host and puts every link's queue
// under strict priority.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults(), ends: carve.Of[endpoints](t.Net.Arena())}
	s.System = protocol.Install(t, 1, nil, s.launch)
	s.prio = s.band
	for _, l := range t.Net.Links() {
		l.SetQdisc(netsim.NewPrio(s.Cfg.Bands))
	}
	return s
}

func (s *System) launch(l protocol.Launch) (protocol.Receiver, protocol.Sender) {
	e := s.ends.New()
	e.rcv.Init(l)
	e.c.PrioFn = s.prio
	e.c.Open(l, s.Cfg.TCP)
	e.c.TrySend()
	return &e.rcv, &e.c
}

// band is every connection's priority stamp. The whole current window
// carries the flow's remaining size (the unacknowledged tail), so a
// nearly-done flow's retransmissions and new segments alike jump the
// queue.
func (s *System) band(c *tcp.Conn) uint8 {
	c.Coll.AddPrioPacket()
	return BandFor(c.NumPkts()-c.SndUna(), s.Cfg.Bands)
}
