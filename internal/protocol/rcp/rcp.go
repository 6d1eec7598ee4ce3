// Package rcp implements the RCP baseline (Dukkipati & McKeown [10]) used
// throughout the PDQ paper's evaluation: per-link processor sharing with
// explicit rate feedback. Following §5.1, this is the *optimized* variant
// that counts the exact number of flows at each link, which converges to
// the fair rate within about an RTT and avoids the loss bursts of the
// estimator-based original. The paper notes this optimized RCP is exactly
// equivalent to D3 when flows have no deadlines.
package rcp

import (
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// HdrWire is the RCP congestion header size: one 4-byte rate field plus a
// 4-byte echo, conservatively charged like the other explicit-rate
// protocols' headers.
const HdrWire = 8

// Header is the RCP rate feedback carried by every packet.
type Header struct {
	Rate int64 // bits/s; switches lower it to their fair share
}

// Config holds RCP parameters.
type Config struct {
	xfer.Config
	// UpdateEvery is the fair-rate recomputation period in (average)
	// RTTs; the controller uses the same 2·RTT rhythm as PDQ's rate
	// controller so queues built during flow churn drain.
	UpdateEvery float64
	// StaleTimeout evicts flows whose TERM was lost from the exact count.
	StaleTimeout sim.Duration
}

func (c Config) withDefaults() Config {
	c.Config = c.Config.WithDefaults()
	c.HdrBytes = HdrWire
	if c.UpdateEvery == 0 {
		c.UpdateEvery = 2
	}
	if c.StaleTimeout == 0 {
		c.StaleTimeout = 20 * sim.Millisecond
	}
	return c
}

// linkState is the per-link RCP controller: the exact flow set and the
// current fair rate.
type linkState struct {
	cfg        *Config
	link       *netsim.Link
	flows      map[netsim.FlowID]sim.Time // flow → last seen
	rate       int64                      // current fair share
	lastUpdate sim.Time
}

func (st *linkState) maybeUpdate(now sim.Time) {
	rtt := st.cfg.InitRTT
	period := sim.Time(st.cfg.UpdateEvery * float64(rtt))
	if now-st.lastUpdate < period {
		return
	}
	st.lastUpdate = now
	cutoff := now - st.cfg.StaleTimeout
	for id, seen := range st.flows {
		if seen < cutoff {
			delete(st.flows, id)
		}
	}
	n := len(st.flows)
	if n == 0 {
		st.rate = st.link.Rate
		return
	}
	qBits := int64(st.link.QueueWaiting()) * 8
	drain := qBits * int64(sim.Second) / int64(2*rtt)
	c := st.link.Rate - drain
	if c < 0 {
		c = 0
	}
	st.rate = c / int64(n)
}

// System wires RCP into a topology: the shared host scaffold plus the
// per-link controllers, which every switch and relaying host runs.
type System struct {
	*protocol.System
	Cfg Config

	states []*linkState // indexed by the dense link ID
}

// Install attaches RCP to every host and switch of the topology.
func Install(t *topo.Topology, cfg Config) *System {
	s := &System{Cfg: cfg.withDefaults()}
	s.System = protocol.Install(t, 1, s.newReceiver, s.newSender)
	for _, sw := range t.Switches {
		sw.Logic = (*logic)(s)
	}
	for _, h := range t.Hosts {
		h.Logic = (*logic)(s)
	}
	return s
}

// sender is RCP's side of the shared transfer machinery: every packet asks
// for the NIC rate and the sender adopts what the switches left of it.
type sender struct {
	xfer.Pacer
	xfer.Plain
	nic int64
}

// Stamp implements xfer.Hooks.
func (sd *sender) Stamp(pkt *netsim.Packet) { *netsim.HeaderOf[Header](pkt) = Header{Rate: sd.nic} }

// Feedback implements xfer.Hooks.
func (sd *sender) Feedback(pkt *netsim.Packet) int64 {
	if h, ok := pkt.Hdr.(*Header); ok {
		return h.Rate
	}
	return 0
}

// capRate keeps the echoed rate within the receiver's NIC rate.
func capRate(pkt *netsim.Packet, nic int64) {
	if h, ok := pkt.Hdr.(*Header); ok && h.Rate > nic {
		h.Rate = nic
	}
}

func (s *System) newReceiver(f workload.Flow) protocol.Receiver {
	return xfer.NewReceiver(s.Topo.Hosts[f.Dst], s.Collector, f, 1, capRate)
}

func (s *System) newSender(f workload.Flow, paths [][]*netsim.Link) protocol.Sender {
	src := s.Topo.Hosts[f.Src]
	sd := &sender{nic: src.NICRate()}
	w := xfer.NewWindow(src, s.Collector, &s.Cfg.Config, f)
	w.Attach(&sd.Pacer, paths[0], sd)
	sd.Start()
	return w
}

// logic is System viewed as switch logic.
type logic System

func (l *logic) state(link *netsim.Link) *linkState {
	l.states = netsim.GrowTo(l.states, link.ID)
	st := l.states[link.ID]
	if st == nil {
		st = &linkState{cfg: &l.Cfg, link: link, flows: map[netsim.FlowID]sim.Time{}, rate: link.Rate}
		l.states[link.ID] = st
	}
	return st
}

// ResetLinkState implements the fault layer's SoftStateResetter: a switch
// crash discards the link's flow count and rate estimate, rebuilt from
// subsequent traffic.
func (l *logic) ResetLinkState(link *netsim.Link) {
	if link.ID < len(l.states) {
		l.states[link.ID] = nil
	}
}

// Process implements netsim.SwitchLogic: forward packets have their rate
// field lowered to the link's fair share; TERM removes the flow from the
// exact count.
func (l *logic) Process(at netsim.Node, pkt *netsim.Packet, ingress, egress *netsim.Link) bool {
	h, ok := pkt.Hdr.(*Header)
	if !ok || !pkt.Kind.Forward() {
		return true
	}
	st := l.state(egress)
	now := l.Sim.Now()
	if pkt.Kind == netsim.TERM {
		delete(st.flows, pkt.Flow)
		return true
	}
	st.flows[pkt.Flow] = now
	st.maybeUpdate(now)
	if st.rate < h.Rate {
		h.Rate = st.rate
	}
	return true
}
